/**
 * @file
 * Compilation-service throughput: replay a clustered request stream
 * (randomized programs, resubmitted through access-equivalent
 * disguises -- the svc::clusteredWorkload generator) through
 * svc::Service and report compiles/sec, cache hit rate, verdict mix,
 * and p99 request cost.
 *
 * Three things are asserted, not just printed:
 *
 *   - determinism: serving the same stream twice through two fresh
 *     services produces identical per-request verdicts and an
 *     identical cache journal;
 *   - request isolation: sweeping the deterministic fault injector
 *     across the stream never crashes the batch -- every request still
 *     ends in exactly one verdict (crashed counts are recorded in the
 *     report and must be zero);
 *   - the cache works: the clustered stream must hit at least half the
 *     time (it resubmits each cluster many times);
 *   - validate-or-degrade: the batch serves at least one plan and
 *     every served plan is validated.
 *
 * Output: BENCH_service.json with the batch run, the fault-sweep run,
 * and p99 request cost in deterministic steps. tools/check_bench.py
 * gates the hit rate, shed/deadline counts and p99 steps against the
 * committed baseline's gate block; wall-clock p99 is recorded for
 * information only.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ratmath/fault.h"
#include "svc/service.h"
#include "svc/workload.h"

namespace {

using namespace anc;

size_t
benchRequests()
{
    return size_t(bench::fullScale()
                      ? 1000
                      : bench::envInt("ANC_BENCH_REQUESTS", 240));
}

svc::ServiceOptions
serviceOpts()
{
    svc::ServiceOptions o;
    o.cacheBytes = size_t(1) << 20;
    o.deadlineSteps = 10000; // generous: nothing in-stream should miss
    return o;
}

std::vector<svc::BatchRequest> &
stream()
{
    static std::vector<svc::BatchRequest> s = [] {
        svc::WorkloadOptions w;
        w.seed = uint64_t(bench::envInt("ANC_BENCH_SEED", 20260808));
        w.clusters = size_t(bench::envInt("ANC_BENCH_CLUSTERS", 8));
        w.requests = benchRequests();
        return svc::clusteredWorkload(w);
    }();
    return s;
}

std::string
verdictSignature(const std::vector<svc::Response> &rs)
{
    std::string sig;
    for (const svc::Response &r : rs) {
        sig += r.id;
        sig += '=';
        sig += svc::verdictName(r.verdict);
        sig += r.hasKey ? "/" + r.key.hex() : "/-";
        sig += '\n';
    }
    return sig;
}

void
printServiceBench()
{
    const std::vector<svc::BatchRequest> &batch = stream();
    bench::JsonReport report("service");
    report.flag("requests", Int(batch.size()));
    report.flag("clusters", bench::envInt("ANC_BENCH_CLUSTERS", 8));
    report.flag("seed", bench::envInt("ANC_BENCH_SEED", 20260808));
    report.flag("cache_bytes", Int(serviceOpts().cacheBytes));
    report.flag("deadline_steps", Int(serviceOpts().deadlineSteps));

    // --- Timed batch replay, with per-request wall latency. ---
    svc::Service service(serviceOpts());
    obs::Histogram wallUs;
    bench::WallTimer timer;
    std::vector<svc::Response> responses;
    responses.reserve(batch.size());
    for (const svc::BatchRequest &q : batch) {
        bench::WallTimer rt;
        responses.push_back(service.serveSource(q.id, q.source));
        wallUs.record(uint64_t(rt.seconds() * 1e6));
    }
    double wallS = timer.seconds();

    const svc::PlanCache &cache = service.cache();
    uint64_t lookups = cache.hits() + cache.misses();
    double hitRate =
        lookups ? double(cache.hits()) / double(lookups) : 0.0;
    double perSec = wallS > 0 ? double(batch.size()) / wallS : 0.0;

    obs::MetricsRegistry reg;
    service.fillMetrics(reg);
    uint64_t p99Steps = 0;
    for (const auto &[name, hist] : reg.histograms())
        if (name == "svc.steps")
            p99Steps = hist.quantileUpperBound(0.99);

    std::printf("\ncompilation service replay (%zu requests, %lld "
                "clusters)\n",
                batch.size(),
                static_cast<long long>(
                    bench::envInt("ANC_BENCH_CLUSTERS", 8)));
    std::printf("  wall %.3f s  (%.0f requests/s)\n", wallS, perSec);
    std::printf("  verdicts: compiled %llu cached %llu degraded %llu "
                "shed %llu deadline-exceeded %llu\n",
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Compiled)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Cached)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Degraded)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Shed)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::DeadlineExceeded)));
    std::printf("  cache: hit rate %.3f  evictions %llu  bytes %zu\n",
                hitRate,
                static_cast<unsigned long long>(cache.evictions()),
                cache.bytes());
    std::printf("  p99: %llu steps, %llu us wall\n",
                static_cast<unsigned long long>(p99Steps),
                static_cast<unsigned long long>(
                    wallUs.quantileUpperBound(0.99)));

    if (hitRate < 0.5)
        throw InternalError(
            "bench_service: clustered stream hit rate " +
            std::to_string(hitRate) +
            " < 0.5: canonicalization is missing equivalent requests");

    // --- Validate-or-degrade: validation is on by default, so every
    // response that delivers a plan must carry a validated one -- a
    // single unvalidated plan in the stream is a serving-path bug,
    // not a statistic. ---
    uint64_t servedPlans = 0, unvalidated = 0;
    for (const svc::Response &r : responses) {
        if (r.verdict != svc::Verdict::Compiled &&
            r.verdict != svc::Verdict::Cached &&
            r.verdict != svc::Verdict::Degraded)
            continue;
        ++servedPlans;
        if (!r.validated)
            ++unvalidated;
    }
    std::printf("  validation: %llu served plans, %llu unvalidated "
                "(passed %llu failed %llu)\n",
                static_cast<unsigned long long>(servedPlans),
                static_cast<unsigned long long>(unvalidated),
                static_cast<unsigned long long>(
                    service.validationsPassed()),
                static_cast<unsigned long long>(
                    service.validationsFailed()));
    if (unvalidated != 0)
        throw InternalError(
            "bench_service: " + std::to_string(unvalidated) +
            " of " + std::to_string(servedPlans) +
            " served plans were not validated");
    if (servedPlans == 0)
        throw InternalError("bench_service: the batch served no plans, "
                            "so the validation check is vacuous");

    // --- Determinism: a fresh service over the same stream must
    // reproduce verdicts, keys, and the cache journal bit for bit. ---
    svc::Service replay(serviceOpts());
    std::vector<svc::Response> responses2 = replay.runBatch(batch);
    if (verdictSignature(responses) != verdictSignature(responses2) ||
        cache.journalText() != replay.cache().journalText())
        throw InternalError("bench_service: replay diverged from the "
                            "first run");

    // --- Fault sweep: arm the injector at a spread of operation
    // indices over a slice of the stream; the batch must always
    // complete with every request in a definite verdict. ---
    std::vector<svc::BatchRequest> slice(
        batch.begin(), batch.begin() + std::min<size_t>(batch.size(), 24));
    uint64_t crashed = 0, faultRuns = 0, faultShed = 0, faultDegraded = 0;
    for (uint64_t nth = 5; nth <= 2000; nth += 95) {
        ++faultRuns;
        try {
            svc::Service s(serviceOpts());
            fault::armAt(nth, nth % 190 == 0 ? fault::Kind::Math
                                             : fault::Kind::Overflow);
            std::vector<svc::Response> rs = s.runBatch(slice);
            fault::disarm();
            if (rs.size() != slice.size())
                ++crashed;
            faultShed += s.verdictCount(svc::Verdict::Shed);
            faultDegraded += s.verdictCount(svc::Verdict::Degraded);
        } catch (...) {
            fault::disarm();
            ++crashed;
        }
    }
    std::printf("  fault sweep: %llu runs, %llu crashed, %llu shed, "
                "%llu degraded\n",
                static_cast<unsigned long long>(faultRuns),
                static_cast<unsigned long long>(crashed),
                static_cast<unsigned long long>(faultShed),
                static_cast<unsigned long long>(faultDegraded));
    if (crashed != 0)
        throw InternalError("bench_service: a fault crashed the batch");

    report.metrics(reg);
    report.run("batch", Int(batch.size()), wallS, 0.0, 0.0,
               {{"requests_per_s", std::to_string(perSec)},
                {"hit_rate", std::to_string(hitRate)},
                {"shed", std::to_string(service.verdictCount(
                             svc::Verdict::Shed))},
                {"deadline_miss",
                 std::to_string(service.verdictCount(
                     svc::Verdict::DeadlineExceeded))},
                {"served_plans", std::to_string(servedPlans)},
                {"unvalidated", std::to_string(unvalidated)},
                {"p99_steps", std::to_string(p99Steps)},
                {"p99_wall_us",
                 std::to_string(wallUs.quantileUpperBound(0.99))}});
    report.run("fault_sweep", Int(slice.size()), 0.0, 0.0, 0.0,
               {{"fault_runs", std::to_string(faultRuns)},
                {"crashed", std::to_string(crashed)},
                {"shed", std::to_string(faultShed)},
                {"degraded", std::to_string(faultDegraded)}});
    report.write();
}

void
BM_Service_CachedRequest(benchmark::State &state)
{
    svc::Service s(serviceOpts());
    const svc::BatchRequest &q = stream().front();
    s.serveSource(q.id, q.source); // warm the cache line
    for (auto _ : state)
        benchmark::DoNotOptimize(s.serveSource(q.id, q.source));
}
BENCHMARK(BM_Service_CachedRequest)->Unit(benchmark::kMicrosecond);

void
BM_Service_ColdCompile(benchmark::State &state)
{
    const svc::BatchRequest &q = stream().front();
    for (auto _ : state) {
        svc::Service s(serviceOpts());
        benchmark::DoNotOptimize(s.serveSource(q.id, q.source));
    }
}
BENCHMARK(BM_Service_ColdCompile)->Unit(benchmark::kMicrosecond);

void
BM_Service_CanonicalizeAndKey(benchmark::State &state)
{
    ir::Program prog = dsl::parseProgram(stream().front().source);
    svc::ServiceOptions o = serviceOpts();
    for (auto _ : state) {
        svc::CanonicalForm c = svc::canonicalize(prog);
        benchmark::DoNotOptimize(
            svc::planKey(c, o.machine, o.compile.base));
    }
}
BENCHMARK(BM_Service_CanonicalizeAndKey)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    printServiceBench();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
