/**
 * @file
 * The hardened compilation service behind the `ancd` batch driver.
 *
 * A Service owns one canonicalized plan cache and serves compile
 * requests through a per-request fault boundary: every request ends in
 * exactly one of five verdicts --
 *
 *   Compiled          fresh full-tier compilation
 *   Cached            served from the plan cache (any tier)
 *   Degraded          fresh compilation, but a lower ladder tier (or a
 *                     conservative-fallback transformation)
 *   Shed              refused: malformed input, admission-control
 *                     budget overrun, queue overflow, or an unservable
 *                     poisoned request
 *   DeadlineExceeded  the cooperative step budget expired
 *
 * -- and always carries structured core::Diagnostics explaining why.
 * No exception ever escapes serve()/serveSource()/runBatch(): one
 * poisoned request cannot take down a batch (the resilience suite
 * proves this by sweeping the fault injector over every arithmetic
 * site reachable from the service entry points).
 *
 * Since the symbolic-validation rework, the service is also
 * validate-or-degrade by default: every freshly compiled plan is run
 * through translation validation (a symbolic proof covering all
 * parameter values, see verify/symbolic.h) before it is cached, a
 * rung whose plan fails to prove is degraded away inside
 * compileResilient, and the verdict travels with the response
 * (Response::validated) and the metrics (svc.validate.*). Validation
 * work is charged to the same per-request step budget as compilation,
 * so deadlines and replays stay deterministic.
 *
 * Requests are keyed by svc::planKey over the *canonical* form, so
 * loop-reversed, lower-bound-shifted, scale-rendered, or renamed
 * variants of the same nest all hit the same cache line; the service
 * compiles the canonical program and serves that plan.
 *
 * Transient mid-compile faults (injected or real arithmetic failures
 * that escape even the resilient ladder) are retried with exponential
 * backoff; backoff is charged to the request's deterministic step
 * budget, so retry behavior -- like every other verdict -- reproduces
 * bit-for-bit for a fixed (stream, budgets, fault schedule).
 */

#ifndef ANC_SVC_SERVICE_H
#define ANC_SVC_SERVICE_H

#include <functional>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "dsl/parser.h"
#include "obs/metrics.h"
#include "svc/canonical.h"
#include "svc/event_log.h"
#include "svc/plan_cache.h"

namespace anc::svc {

/** How a request ended. Every request gets exactly one. */
enum class Verdict
{
    Compiled,
    Cached,
    Degraded,
    Shed,
    DeadlineExceeded,
};

const char *verdictName(Verdict v);

/**
 * The service's compile defaults: translation validation is ON. Every
 * freshly compiled plan is proven equivalent to its source program
 * (symbolically, for all parameter values; see verify/symbolic.h)
 * before it is cached or served, and a plan that fails validation at
 * some ladder tier is degraded to a tier that proves, never served
 * as-is. Clear `base.validate` (ancd: --no-validate) to opt out.
 */
inline core::ResilientOptions
validatedCompileDefaults()
{
    core::ResilientOptions r;
    r.base.validate = true;
    return r;
}

/** Configuration for a Service. */
struct ServiceOptions
{
    /** Target machine for every compilation (part of the plan key). */
    numa::MachineParams machine = numa::MachineParams::butterflyGP1000();
    /** Per-request compile options; validation defaults ON (see
     * validatedCompileDefaults). `base.cancel` is overwritten by the
     * service with the request's own deadline token. */
    core::ResilientOptions compile = validatedCompileDefaults();
    /** Plan-cache byte budget (0 caches nothing). */
    size_t cacheBytes = size_t(4) << 20;
    /** Per-request step budget (0 = no deadline). */
    uint64_t deadlineSteps = 0;
    /** Admission control: shed sources larger than this (0 = no limit). */
    size_t maxProgramBytes = 0;
    /** Admission control: runBatch sheds requests beyond this queue
     * depth (0 = no limit). */
    size_t queueLimit = 0;
    /** Transient-fault retries per request after the first attempt. */
    int maxRetries = 2;
    /** Backoff charged to the step budget before retry attempt k
     * (doubling: backoff << k). */
    uint64_t retryBackoffSteps = 16;
    /**
     * Structured lifecycle log (null = off; ancd: --log). When set, the
     * service emits one JSONL event per lifecycle step of every request
     * -- admission, parse, canonicalize, cache lookup, compile,
     * validation, retries, verdict -- all correlated by the request id.
     * The log carries sequence numbers, never timestamps, so it is as
     * deterministic as the verdicts themselves. Not owned.
     */
    EventLog *events = nullptr;
};

/** The outcome of one request. */
struct Response
{
    std::string id;
    Verdict verdict = Verdict::Shed;
    /** Plan key; set once canonicalization succeeded. */
    PlanKey key{};
    bool hasKey = false;
    /** Ladder tier of the served plan ("" when nothing was served). */
    std::string tier;
    /** True when the served plan gave up some optimization. */
    bool degradedPlan = false;
    /** True when the served plan carries a passing translation-
     * validation report (fresh compilations: validated before caching;
     * cache hits: the verdict stored with the entry). False when
     * nothing was served or validation was explicitly disabled --
     * there is no "skipped" third state. */
    bool validated = false;
    /** Why the request ended the way it did (always at least one entry
     * for non-Compiled verdicts). */
    core::Diagnostics diagnostics;
    /** Deterministic steps spent (canonicalize + pipeline + validation
     * + backoff). */
    uint64_t steps = 0;
    /** Retry attempts consumed by transient faults. */
    int retries = 0;

    /** One stable JSON object: {"id", "verdict", "key", "tier",
     * "validated", "steps", "retries", "diagnostics"} -- always all
     * keys, in that order. */
    std::string renderJson() const;
};

/** One request parsed out of a batch file. */
struct BatchRequest
{
    std::string id;     //!< "# id: NAME" comment, or "r<index>"
    std::string source; //!< DSL source text
    int line = -1;      //!< 1-based first line in the batch file
};

/**
 * Split a batch file into requests. Format: DSL programs separated by
 * lines whose first non-space character run is `---`; a comment line
 * `# id: NAME` anywhere in a chunk names the request. Blank chunks are
 * skipped. Never throws on malformed text -- malformed *programs* are
 * the service's job to shed, one by one.
 */
std::vector<BatchRequest> parseBatch(const std::string &text);

class Service
{
  public:
    explicit Service(ServiceOptions opts);

    /** Serve one already-parsed program. Never throws. */
    Response serve(const std::string &id, const ir::Program &prog);

    /** Parse (with recovery) then serve. Parse failure => Shed with one
     * diagnostic per recovered error. Never throws. */
    Response serveSource(const std::string &id, const std::string &source);

    /** Serve a whole batch with queue-limit admission control: requests
     * beyond ServiceOptions::queueLimit are shed up front. Never
     * throws; responses are in request order. */
    std::vector<Response> runBatch(const std::vector<BatchRequest> &batch);

    const PlanCache &cache() const { return cache_; }
    const ServiceOptions &options() const { return opts_; }

    /**
     * Crash recovery: replay a prior run's durable cache journal (see
     * PlanCache::durableJournalText) and adopt its verified history,
     * so counters and the determinism witness continue across a
     * restart. Call before serving traffic. Returns the replay record
     * (how many events were restored, rejected, or torn).
     */
    JournalReplay restoreCacheJournal(const std::string &durableText);

    uint64_t requestsServed() const { return requests_; }
    /** Requests that ended with the given verdict so far. */
    uint64_t verdictCount(Verdict v) const { return verdicts_[size_t(v)]; }
    /** Fresh compilations whose served plan carried a passing
     * validation report. */
    uint64_t validationsPassed() const { return validatePassed_; }
    /** Fresh compilations served although validation did not pass
     * (only reachable when compile.base.validate is cleared -- a
     * validation failure otherwise degrades or sheds). */
    uint64_t validationsFailed() const { return validateFailed_; }
    /** Fresh compilations served with validation explicitly off. */
    uint64_t validationsOff() const { return validateOff_; }

    /** Fill svc.* request counters (including svc.validate.*), the
     * svc.steps histogram, and the cache's svc.cache.* counters into a
     * registry. */
    void fillMetrics(obs::MetricsRegistry &m) const;

  private:
    /** Canonicalize `prog` (moved in), then look up or compile. A
     * retry canonicalizes a fresh copy from `rebuild`. */
    Response serveGuarded(const std::string &id, ir::Program prog,
                          const std::function<ir::Program()> &rebuild);
    void finish(Response &r);

    using Fields = std::vector<EventLog::Field>;
    /** Emit one lifecycle event when ServiceOptions::events is set;
     * `fields` (a callable returning Fields) runs only then, so a
     * service without a log renders no field. */
    template <typename FieldsFn>
    void
    event(const std::string &request, const char *name, FieldsFn &&fields)
    {
        if (opts_.events)
            opts_.events->emit(request, name, fields());
    }

    ServiceOptions opts_;
    PlanCache cache_;
    uint64_t requests_ = 0;
    uint64_t retriesTotal_ = 0;
    uint64_t verdicts_[5] = {};
    uint64_t validatePassed_ = 0, validateFailed_ = 0, validateOff_ = 0;
    obs::Histogram stepsHist_;
};

} // namespace anc::svc

#endif // ANC_SVC_SERVICE_H
