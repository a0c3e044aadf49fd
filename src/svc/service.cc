#include "svc/service.h"

#include <sstream>

#include "obs/trace.h"
#include "ratmath/error.h"
#include "ratmath/fault.h"

namespace anc::svc {

const char *
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::Compiled:
        return "compiled";
    case Verdict::Cached:
        return "cached";
    case Verdict::Degraded:
        return "degraded";
    case Verdict::Shed:
        return "shed";
    case Verdict::DeadlineExceeded:
        return "deadline-exceeded";
    }
    return "unknown";
}

std::string
Response::renderJson() const
{
    std::ostringstream os;
    os << "{\"id\": " << obs::jsonStr(id)
       << ", \"verdict\": " << obs::jsonStr(verdictName(verdict))
       << ", \"key\": " << obs::jsonStr(hasKey ? key.hex() : "")
       << ", \"tier\": " << obs::jsonStr(tier)
       << ", \"validated\": " << (validated ? "true" : "false")
       << ", \"steps\": " << steps << ", \"retries\": " << retries
       << ", \"diagnostics\": " << diagnostics.renderJson() << "}";
    return os.str();
}

namespace {

/** "# id: NAME" (leading whitespace allowed) -> NAME, else "". */
std::string
idComment(const std::string &line)
{
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '#')
        return "";
    ++i;
    i = line.find_first_not_of(" \t", i);
    if (i == std::string::npos || line.compare(i, 3, "id:") != 0)
        return "";
    i = line.find_first_not_of(" \t", i + 3);
    if (i == std::string::npos)
        return "";
    size_t end = line.find_last_not_of(" \t\r");
    return line.substr(i, end - i + 1);
}

bool
isSeparator(const std::string &line)
{
    size_t i = line.find_first_not_of(" \t");
    return i != std::string::npos && line.compare(i, 3, "---") == 0;
}

bool
isBlank(const std::string &line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

} // namespace

std::vector<BatchRequest>
parseBatch(const std::string &text)
{
    std::vector<BatchRequest> out;
    BatchRequest cur;
    std::string chunk;
    bool sawContent = false;

    auto flush = [&]() {
        if (sawContent) {
            cur.source = chunk;
            if (cur.id.empty())
                cur.id = "r" + std::to_string(out.size());
            out.push_back(cur);
        }
        cur = BatchRequest{};
        chunk.clear();
        sawContent = false;
    };

    std::istringstream in(text);
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
        if (isSeparator(line)) {
            flush();
            continue;
        }
        std::string id = idComment(line);
        if (!id.empty())
            cur.id = id;
        if (!isBlank(line)) {
            if (cur.line < 0)
                cur.line = lineno;
            sawContent = true;
        }
        chunk += line;
        chunk += '\n';
    }
    flush();
    return out;
}

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheBytes)
{
    opts_.machine.validate();
    // Plan search scores candidates on the machine this service serves
    // plans for, and the scoring machine is part of the plan key.
    opts_.compile.base.search.machine = opts_.machine;
}

void
Service::finish(Response &r)
{
    // Provenance: every diagnostic that leaves the service names the
    // request it was produced for, so a diagnostic extracted from a
    // results file or CI artifact stays attributable on its own.
    r.diagnostics.stampOrigin(r.id);
    ++requests_;
    ++verdicts_[size_t(r.verdict)];
    retriesTotal_ += uint64_t(r.retries);
    stepsHist_.record(r.steps);
    event(r.id, "verdict", [&] {
        return Fields{{"verdict", obs::jsonStr(verdictName(r.verdict))},
                      {"tier", obs::jsonStr(r.tier)},
                      {"validated", r.validated ? "true" : "false"},
                      {"steps", obs::jsonNum(r.steps)},
                      {"retries", obs::jsonNum(uint64_t(r.retries))}};
    });
}

Response
Service::serveGuarded(const std::string &id, ir::Program prog,
                      const std::function<ir::Program()> &rebuild)
{
    Response r;
    r.id = id;
    core::CancelToken token(opts_.deadlineSteps);
    try {
        int attempt = 0;
        for (;;) {
            try {
                token.spend(); // canonicalization phase boundary
                CanonicalForm canon = canonicalize(
                    attempt == 0 ? std::move(prog) : rebuild());
                r.key = planKey(canon, opts_.machine, opts_.compile.base);
                r.hasKey = true;
                const std::string keyHex = r.key.hex();
                event(id, "canonicalize",
                      [&] { return Fields{{"key", obs::jsonStr(keyHex)}}; });
                token.spend(); // keying + lookup phase boundary
                if (const CachedPlan *hit = cache_.lookup(r.key)) {
                    event(id, "cache", [] {
                        return Fields{{"outcome", obs::jsonStr("hit")}};
                    });
                    r.verdict = Verdict::Cached;
                    r.tier = core::tierName(hit->compilation.tier);
                    r.degradedPlan = hit->compilation.degraded();
                    r.validated = hit->compilation.validated;
                    r.diagnostics.note(core::Stage::Driver,
                                       "served from plan cache",
                                       "key " + keyHex);
                    break;
                }
                event(id, "cache", [] {
                    return Fields{{"outcome", obs::jsonStr("miss")}};
                });
                core::ResilientOptions ropts = opts_.compile;
                ropts.base.cancel = &token;
                core::Compilation c =
                    core::compileResilient(canon.program, ropts);
                r.tier = core::tierName(c.tier);
                r.degradedPlan = c.degraded();
                r.validated = c.validated;
                event(id, "compile", [&] {
                    return Fields{
                        {"tier", obs::jsonStr(r.tier)},
                        {"degraded", r.degradedPlan ? "true" : "false"}};
                });
                if (c.search.ran)
                    event(id, "search", [&] {
                        return Fields{
                            {"improved",
                             c.search.improved ? "true" : "false"},
                            {"enumerated", obs::jsonNum(c.search.enumerated)},
                            {"scored", obs::jsonNum(c.search.scored)},
                            {"winner", obs::jsonStr(c.search.winnerOrigin)}};
                    });
                if (ropts.base.validate)
                    c.validated ? ++validatePassed_ : ++validateFailed_;
                else
                    ++validateOff_;
                event(id, "validate", [&] {
                    return Fields{
                        {"outcome",
                         obs::jsonStr(!ropts.base.validate ? "off"
                                      : c.validated        ? "passed"
                                                           : "failed")}};
                });
                r.verdict = r.degradedPlan ? Verdict::Degraded
                                           : Verdict::Compiled;
                for (const core::Diagnostic &d : c.diagnostics.all())
                    r.diagnostics.add(d);
                // Cache fill is best-effort: a fault in the cache's own
                // accounting must not fail a request that already has a
                // plan to serve.
                try {
                    CachedPlan entry;
                    entry.canonicalText = std::move(canon.text);
                    entry.compilation = std::move(c);
                    if (!cache_.insert(r.key, std::move(entry)))
                        r.diagnostics.note(
                            core::Stage::Driver, "plan not cached",
                            "entry exceeds cache byte budget");
                } catch (const Error &e) {
                    r.diagnostics.warning(
                        core::Stage::Driver,
                        "plan cache insert failed; serving uncached",
                        e.what());
                }
                break;
            } catch (const UserError &) {
                throw; // malformed input: the caller's to fix, no retry
            } catch (const Error &e) {
                if (attempt >= opts_.maxRetries)
                    throw;
                uint64_t backoff = opts_.retryBackoffSteps
                                   << uint64_t(attempt);
                event(id, "retry", [&] {
                    return Fields{
                        {"attempt", obs::jsonNum(uint64_t(attempt) + 1)},
                        {"backoffSteps", obs::jsonNum(backoff)},
                        {"cause", obs::jsonStr(e.what())}};
                });
                r.diagnostics.warning(
                    core::Stage::Driver,
                    "transient fault on attempt " +
                        std::to_string(attempt + 1) + "; retrying after " +
                        std::to_string(backoff) + " backoff steps",
                    e.what());
                ++attempt;
                ++r.retries;
                token.spend(backoff);
            }
        }
    } catch (const core::DeadlineExceeded &e) {
        r.verdict = Verdict::DeadlineExceeded;
        r.tier.clear();
        r.diagnostics.error(core::Stage::Driver, e.what(),
                            "request abandoned at a phase boundary");
    } catch (const UserError &e) {
        r.verdict = Verdict::Shed;
        r.diagnostics.error(core::Stage::Validate,
                            "request shed: invalid program", e.what());
    } catch (const Error &e) {
        r.verdict = Verdict::Shed;
        r.diagnostics.error(core::Stage::Driver,
                            "request shed: retries exhausted", e.what());
    } catch (const std::exception &e) {
        r.verdict = Verdict::Shed;
        r.diagnostics.error(core::Stage::Driver,
                            "request shed: unexpected failure", e.what());
    }
    r.steps = token.steps();
    return r;
}

Response
Service::serve(const std::string &id, const ir::Program &prog)
{
    event(id, "admit",
          [] { return Fields{{"outcome", obs::jsonStr("accepted")}}; });
    Response r = serveGuarded(id, prog, [&] { return prog; });
    finish(r);
    return r;
}

Response
Service::serveSource(const std::string &id, const std::string &source)
{
    if (opts_.maxProgramBytes != 0 &&
        source.size() > opts_.maxProgramBytes) {
        event(id, "admit", [&] {
            return Fields{{"outcome", obs::jsonStr("shed")},
                          {"reason", obs::jsonStr("program-size")},
                          {"bytes", obs::jsonNum(uint64_t(source.size()))}};
        });
        Response r;
        r.id = id;
        r.verdict = Verdict::Shed;
        r.diagnostics.error(
            core::Stage::Driver,
            "request shed by admission control: program size limit " +
                std::to_string(opts_.maxProgramBytes) +
                " bytes, observed " + std::to_string(source.size()) +
                " bytes");
        finish(r);
        return r;
    }

    event(id, "admit", [&] {
        return Fields{{"outcome", obs::jsonStr("accepted")},
                      {"bytes", obs::jsonNum(uint64_t(source.size()))}};
    });

    dsl::ParseResult parsed;
    try {
        parsed = dsl::parseProgramRecovering(source);
    } catch (const std::exception &e) {
        event(id, "parse",
              [] { return Fields{{"outcome", obs::jsonStr("failed")}}; });
        Response r;
        r.id = id;
        r.verdict = Verdict::Shed;
        r.diagnostics.error(core::Stage::Parse,
                            "request shed: parser failure", e.what());
        finish(r);
        return r;
    }
    event(id, "parse", [&] {
        return Fields{
            {"outcome", obs::jsonStr(parsed.program ? "ok" : "rejected")},
            {"recovered", obs::jsonNum(uint64_t(parsed.diagnostics.size()))}};
    });

    core::Diagnostics parseDiags;
    for (const dsl::ParseDiagnostic &d : parsed.diagnostics) {
        core::Diagnostic cd;
        cd.severity = parsed.program ? core::Severity::Warning
                                     : core::Severity::Error;
        cd.stage = core::Stage::Parse;
        cd.message = parsed.program
                         ? "malformed unit skipped by parse recovery"
                         : "request shed: unparseable program";
        cd.detail = d.message;
        cd.line = d.line;
        parseDiags.add(cd);
    }

    if (!parsed.program) {
        Response r;
        r.id = id;
        r.verdict = Verdict::Shed;
        if (parseDiags.empty())
            parseDiags.error(core::Stage::Parse,
                             "request shed: empty program");
        r.diagnostics = std::move(parseDiags);
        finish(r);
        return r;
    }

    // The parsed program moves into canonicalization. A retry parses
    // the source again, outside the fault schedule, as the copy it
    // stands in for would have been made.
    Response r =
        serveGuarded(id, std::move(*parsed.program), [&] {
            fault::ScopedPause pause;
            return std::move(*dsl::parseProgramRecovering(source).program);
        });
    if (!parseDiags.empty()) {
        for (const core::Diagnostic &d : r.diagnostics.all())
            parseDiags.add(d);
        r.diagnostics = std::move(parseDiags);
    }
    finish(r);
    return r;
}

std::vector<Response>
Service::runBatch(const std::vector<BatchRequest> &batch)
{
    std::vector<Response> out;
    out.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const BatchRequest &q = batch[i];
        if (opts_.queueLimit != 0 && i >= opts_.queueLimit) {
            event(q.id, "admit", [] {
                return Fields{{"outcome", obs::jsonStr("shed")},
                              {"reason", obs::jsonStr("queue-limit")}};
            });
            Response r;
            r.id = q.id;
            r.verdict = Verdict::Shed;
            core::Diagnostic d;
            d.severity = core::Severity::Error;
            d.stage = core::Stage::Driver;
            d.message =
                "request shed by admission control: queue limit " +
                std::to_string(opts_.queueLimit) +
                " requests, observed " + std::to_string(batch.size()) +
                " requests";
            d.line = q.line;
            r.diagnostics.add(std::move(d));
            finish(r);
            out.push_back(std::move(r));
            continue;
        }
        out.push_back(serveSource(q.id, q.source));
    }
    return out;
}

void
Service::fillMetrics(obs::MetricsRegistry &m) const
{
    m.counter("svc.requests").set(requests_);
    m.counter("svc.compiled").set(verdicts_[size_t(Verdict::Compiled)]);
    m.counter("svc.cached").set(verdicts_[size_t(Verdict::Cached)]);
    m.counter("svc.degraded").set(verdicts_[size_t(Verdict::Degraded)]);
    m.counter("svc.shed").set(verdicts_[size_t(Verdict::Shed)]);
    m.counter("svc.deadline_exceeded")
        .set(verdicts_[size_t(Verdict::DeadlineExceeded)]);
    m.counter("svc.retries").set(retriesTotal_);
    m.counter("svc.validate.passed").set(validatePassed_);
    m.counter("svc.validate.failed").set(validateFailed_);
    m.counter("svc.validate.off").set(validateOff_);
    m.histogram("svc.steps") = stepsHist_;
    cache_.fillMetrics(m);
}

JournalReplay
Service::restoreCacheJournal(const std::string &durableText)
{
    JournalReplay r = PlanCache::replayJournal(durableText);
    cache_.adoptReplay(r);
    return r;
}

} // namespace anc::svc
