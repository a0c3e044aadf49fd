/**
 * @file
 * The repository's end-to-end benchmark: one process, one named
 * workload, one closed-loop client.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--scale full|tiny] [--tamper]
 *             [--trace-out FILE] [--print-sim-table]
 *
 * Workloads (perfbench/README.md records why each was chosen):
 *
 *   serve_hot       svc::Service::serveSource over a clustered stream of
 *                   disguised programs, plan cache on
 *   compile_cold    the same service with a zero-byte cache: every
 *                   request is a cold, validated compile
 *   compile_search  cold compiles with plan search enabled
 *   simulate_paper  numa::Simulator::run over the Fig. 4/5 sweep
 *
 * Every run measures whole passes over the workload's inputs until S
 * seconds have elapsed, then checks every output outside the timed
 * section: served plans are executed and compared against the
 * interpreter on the *original request source*, searched winners
 * against the committed search results, simulated times against a
 * fixed table. The last stdout line is one JSON object with the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 * End-to-end timings of single-threaded work are scaled to nominal host
 * speed by a reference kernel timed between passes (kReferenceMs).
 *
 * The traced run replays the inputs through the same public calls the
 * service makes (parse, canonicalize, plan key, cache lookup/insert,
 * compileResilient) and records one span per call (spans.h). Sub-phases
 * of compileResilient come from Compilation::phaseTimes; the search's
 * enumeration share is measured by re-running
 * xform::enumerateSearchCandidates after the request. Traced and
 * untraced passes alternate, so obs.trace_overhead_ratio compares the
 * same code path with recording on and off.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "dsl/parser.h"
#include "dsl/printer.h"
#include "ir/gallery.h"
#include "ir/interp.h"
#include "numa/simulator.h"
#include "ratmath/error.h"
#include "spans.h"
#include "svc/service.h"
#include "svc/workload.h"
#include "xform/search.h"

namespace perfbench {
namespace {

using namespace anc;

// ---------------------------------------------------------------------
// Command line and run-wide settings
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool tamper = false;
    bool printSimTable = false;
    std::string root = ".";
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve_hot|compile_cold|compile_search|simulate_paper "
                 "--seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--scale full|tiny] [--tamper] [--trace-out FILE] "
                 "[--print-sim-table]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    auto number = [&](int &i) -> double {
        std::string v = value(i);
        char *end = nullptr;
        double d = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0' || !(d >= 0))
            usage("not a non-negative number: " + v);
        return d;
    };
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--workload")
            a.workload = value(i);
        else if (k == "--seed")
            a.seed = uint64_t(number(i));
        else if (k == "--seconds")
            a.seconds = number(i);
        else if (k == "--trace")
            a.trace = number(i) != 0;
        else if (k == "--root")
            a.root = value(i);
        else if (k == "--scale") {
            std::string s = value(i);
            if (s != "full" && s != "tiny")
                usage("unknown scale " + s);
            a.tiny = s == "tiny";
        } else if (k == "--tamper")
            a.tamper = true;
        else if (k == "--trace-out")
            a.traceOut = value(i);
        else if (k == "--print-sim-table")
            a.printSimTable = true;
        else
            usage("unknown argument " + k);
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Host threads for simulator runs: at most nproc, and at most 4 so runs
 * on bigger hosts stay comparable. SimStats are bit-identical for every
 * value. */
Int
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return Int(std::clamp(n, 1u, 4u));
}

/** Host threads for the plan search's scoring runs. Its runs are tiny,
 * and on a shared host the thread-pool wake-ups between them doubled
 * the run-to-run spread of compile_search. */
constexpr Int kSearchHostThreads = 1;

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

double
seconds(int64_t ns)
{
    return double(ns) / 1e9;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw UserError("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Fisher-Yates over raw mt19937_64 output (identical across standard
 * libraries, unlike std::shuffle). */
template <class T>
void
seededShuffle(std::vector<T> &v, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[size_t(rng() % i)]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of sorted data. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = size_t(std::ceil(q * double(sorted.size())));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

struct Input
{
    std::string id;
    std::string source;
};

/** The 11 gallery kernels rendered to DSL source. */
std::vector<Input>
galleryInputs(bool tiny)
{
    std::vector<std::pair<const char *, ir::Program>> ks = {
        {"figure1", ir::gallery::figure1()},
        {"section3", ir::gallery::section3Example()},
        {"scaling", ir::gallery::scalingExample()},
        {"section5", ir::gallery::section5Example()},
        {"gemm", ir::gallery::gemm()},
        {"gemv", ir::gallery::gemv()},
        {"ger", ir::gallery::ger()},
        {"jacobi2d", ir::gallery::jacobi2d()},
        {"gaussSeidel", ir::gallery::gaussSeidel()},
        {"syr2k", ir::gallery::syr2kBanded()},
        {"skewedScatter", ir::gallery::skewedScatter()},
    };
    static const std::set<std::string> kTiny = {"section3", "scaling",
                                                "gemv", "skewedScatter"};
    std::vector<Input> out;
    for (auto &[name, prog] : ks)
        if (!tiny || kTiny.count(name))
            out.push_back({std::string("gallery/") + name,
                           dsl::printDsl(prog)});
    return out;
}

/** The committed sample programs, read from the checkout. */
std::vector<Input>
fileInputs(const std::string &root, bool tiny)
{
    static const char *const kFiles[] = {
        "tools/samples/figure1.an", "tools/samples/gemm.an",
        "tools/samples/gemv.an",    "tools/samples/jacobi.an",
        "tools/samples/syr2k.an",   "examples/skewed_stencil.an",
        "examples/transpose.an",
    };
    std::vector<Input> out;
    for (const char *f : kFiles) {
        if (tiny && std::strcmp(f, "tools/samples/gemv.an") != 0)
            continue;
        out.push_back({f, readFile(root + "/" + f)});
    }
    return out;
}

/** Every array after interpreting the program with all parameters 4,
 * from the deterministic initial fill. */
std::vector<std::vector<double>>
interpret(const ir::Program &p)
{
    IntVec params(p.params.size(), 4);
    ir::ArrayStorage store(p, params);
    store.fillDeterministic(1);
    ir::run(p, {params, std::vector<double>(p.scalars.size(), 1.0)}, store);
    std::vector<std::vector<double>> out;
    for (size_t a = 0; a < store.numArrays(); ++a)
        out.push_back(store.data(a));
    return out;
}

/**
 * True when reversing any subset of the program's loops leaves its
 * result unchanged. svc::canonicalize normalizes loop direction without
 * consulting dependences, so for a direction-sensitive nest the served
 * plan computes something other than the request (about a fifth of the
 * generator's nests). The random inputs keep only direction-insensitive
 * nests. The test looks at the input alone, so the input set stays the
 * same when canonicalization changes.
 */
bool
directionInsensitive(const ir::Program &p)
{
    const std::vector<std::vector<double>> want = interpret(p);
    const size_t depth = p.nest.depth();
    for (unsigned mask = 1; mask < (1u << depth); ++mask) {
        ir::Program q = p;
        for (size_t k = 0; k < depth; ++k)
            if (mask >> k & 1)
                q = svc::reversedVariant(q, k);
        if (interpret(q) != want)
            return false;
    }
    return true;
}

/**
 * `requests` disguised requests over random base nests, drawn from
 * svc::clusteredWorkload, keeping direction-insensitive nests only (a
 * request's id names its cluster, "q<i>-c<k>-<variant>"). The stream is
 * drawn with `draw` times as many requests as are kept. With
 * `clusters` > 0 it has twice that many clusters and the first
 * `clusters` insensitive ones are used; otherwise it has as many
 * clusters as requests, so most requests are distinct nests. With
 * `fixedDepthMix`, 3 of every 8 kept requests are 2-deep and the rest
 * 3-deep: the generator's depth is a coin flip between 2 and 3, compile
 * time differs by depth, and a fixed mix keeps the median of a pass in
 * one population whatever the seed.
 */
std::vector<Input>
randomInputs(uint64_t seed, size_t clusters, size_t requests, size_t draw,
             bool fixedDepthMix)
{
    svc::WorkloadOptions w;
    w.seed = seed;
    w.clusters = clusters ? 2 * clusters : draw * requests;
    w.requests = draw * requests;
    std::vector<svc::BatchRequest> stream = svc::clusteredWorkload(w);
    auto clusterOf = [](const svc::BatchRequest &q) {
        return std::stoul(q.id.substr(q.id.find("-c") + 2));
    };
    std::map<size_t, size_t> depthOf; // cluster -> depth, 0 when dropped
    size_t kept = 0;
    size_t quota[4] = {0, 0, requests * 3 / 8, requests - requests * 3 / 8};
    std::vector<Input> out;
    for (svc::BatchRequest &q : stream) {
        if (out.size() == requests)
            break;
        size_t c = clusterOf(q);
        if (!depthOf.count(c)) {
            ir::Program p = dsl::parseProgram(q.source);
            bool keep =
                (!clusters || kept < clusters) && directionInsensitive(p);
            depthOf[c] = keep ? p.nest.depth() : 0;
            kept += keep;
        }
        size_t d = depthOf[c];
        if (!d || d > 3 || (fixedDepthMix && !quota[d]))
            continue;
        --quota[d];
        out.push_back({"random/" + q.id, std::move(q.source)});
    }
    return out;
}

// ---------------------------------------------------------------------
// Correctness oracle
// ---------------------------------------------------------------------

/**
 * Execute the served transformed nest and the interpreter on the
 * ORIGINAL request source (not the canonical program the service
 * compiled) from identical deterministic initial contents, on the first
 * feasible small binding, and compare every array bit for bit.
 */
std::string
checkAgainstSource(const core::Compilation &served, const std::string &source)
{
    ir::Program orig;
    try {
        orig = dsl::parseProgram(source);
    } catch (const std::exception &e) {
        return std::string("request source does not parse: ") + e.what();
    }
    std::vector<Int> candidates = {4, 3, 2, 6, 1};
    if (orig.params.empty())
        candidates = {0};
    for (Int v : candidates) {
        IntVec params(orig.params.size(), v);
        bool feasible = true;
        for (const ir::ArrayDecl &a : orig.arrays) {
            double total = 1;
            for (Int e : a.evalExtents(params)) {
                feasible = feasible && e > 0;
                total *= double(e);
            }
            feasible = feasible && total <= double(1 << 16);
        }
        if (!feasible)
            continue;
        try {
            ir::ArrayStorage want(orig, params);
            ir::ArrayStorage got(served.program, params);
            want.fillDeterministic(1);
            got.fillDeterministic(1);
            ir::run(orig, {params, std::vector<double>(orig.scalars.size(), 1.0)},
                    want);
            served.nest().run(
                {params,
                 std::vector<double>(served.program.scalars.size(), 1.0)},
                got);
            for (size_t a = 0; a < orig.arrays.size(); ++a) {
                size_t b = 0;
                while (b < served.program.arrays.size() &&
                       served.program.arrays[b].name != orig.arrays[a].name)
                    ++b;
                if (b == served.program.arrays.size())
                    return "served plan lacks array " + orig.arrays[a].name;
                if (want.data(a) != got.data(b))
                    return "array " + orig.arrays[a].name +
                           " differs from the interpreter";
            }
            return "";
        } catch (const UserError &) {
            continue; // binding out of range for this program
        } catch (const std::exception &e) {
            return std::string("execution failed: ") + e.what();
        }
    }
    return "no feasible small binding";
}

/** The committed plan-search results (bench_search): the two kernels
 * the search improves, with their summed sweep times before and after;
 * every other input keeps the heuristic. */
std::string
checkSearchResult(const std::string &id, const core::Compilation &c)
{
    struct Expected
    {
        const char *id;
        const char *heuristic, *winner;
    };
    static const Expected kImproved[] = {
        {"gallery/section3", "11.2", "8.0"},
        {"gallery/skewedScatter", "512.0", "478.4"},
    };
    auto total = [](const std::vector<double> &v) {
        double t = 0;
        for (double x : v)
            t += x;
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f", t);
        return std::string(buf);
    };
    if (!c.search.ran)
        return "plan search did not run";
    for (const Expected &e : kImproved) {
        if (id != e.id)
            continue;
        if (!c.search.improved)
            return "search no longer improves on the heuristic";
        std::string h = total(c.search.heuristicTimesUs);
        std::string w = total(c.search.winnerTimesUs);
        if (h != e.heuristic || w != e.winner)
            return "search result " + h + " -> " + w + " us, expected " +
                   e.heuristic + " -> " + e.winner + " us";
        return "";
    }
    return c.search.improved ? "search replaced the heuristic plan" : "";
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric
{
    std::string name, unit;
    double value = 0.0;
};

/** What one workload run produces. */
struct RunResult
{
    uint64_t attempted = 0, failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; //!< human-readable lines
};

void
add(RunResult &r, const std::string &name, const std::string &unit, double v)
{
    r.metrics.push_back({name, unit, v});
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Timed whole passes over the workload's n inputs. */
/**
 * Host-speed reference: a fixed allocation-heavy kernel that uses no
 * library code. On a shared host the speed of such code drifts by up to
 * 1.7x for a minute at a time, and single-threaded library work drifts
 * with it (per-pass correlation 0.62-0.84). Single-threaded timings are
 * therefore reported at nominal host speed: scaled by kReferenceMs over
 * this kernel's time measured around them. kReferenceMs is the kernel's
 * time on an undisturbed 4-vCPU host of the kind the benchmark was
 * calibrated on. Work spread over the host thread pool does not track
 * a single-threaded kernel, and is reported unscaled.
 */
constexpr double kReferenceMs = 2.2;

volatile size_t gReferenceSink = 0;

double
referenceMs()
{
    int64_t t0 = nowNs();
    size_t sink = 0;
    for (int k = 0; k < 20; ++k) {
        std::map<int, std::string> m;
        for (int i = 0; i < 1000; ++i)
            m[i * 7919 % 1009] = std::to_string(i * 31);
        std::vector<std::vector<int>> vv;
        for (int i = 0; i < 200; ++i)
            vv.emplace_back(i % 17 + 1, i);
        sink += m.size() + vv.size();
    }
    gReferenceSink = sink;
    return double(nowNs() - t0) / 1e6;
}

/** Timed whole passes over the workload's n inputs. */
struct Timed
{
    size_t n = 0;
    std::vector<double> latUs; //!< pass-major: latUs[pass * n + input]
    std::vector<double> scale; //!< per pass: kReferenceMs / reference
    bool scaled = false;
    uint64_t failed = 0;
};

/** Run ops 0..n-1 in whole passes until `secs` elapse (at least one
 * pass). With `scaled` (single-threaded ops), the reference kernel is
 * timed between passes. `op` returns false for a failed operation. */
Timed
timedPasses(size_t n, double secs, bool scaled,
            const std::function<bool(size_t)> &op)
{
    Timed t;
    t.n = n;
    t.scaled = scaled;
    double before = scaled ? referenceMs() : kReferenceMs;
    int64_t t0 = nowNs();
    do {
        for (size_t i = 0; i < n; ++i) {
            int64_t s = nowNs();
            bool ok = op(i);
            t.latUs.push_back(double(nowNs() - s) / 1e3);
            t.failed += ok ? 0 : 1;
        }
        double after = scaled ? referenceMs() : kReferenceMs;
        t.scale.push_back(kReferenceMs / (0.5 * (before + after)));
        before = after;
    } while (seconds(nowNs() - t0) < secs);
    return t;
}

/**
 * The timed end-to-end metrics, at nominal host speed when the ops were
 * scaled (see kReferenceMs). Each input's latency is its median over
 * the passes.
 * ops_per_s is the closed-loop throughput those latencies give (inputs
 * per second of their sum), latency_p50_us their median, and
 * latency_tail_us their highest percentile with at least ten inputs
 * beyond it (p99 from 1000 inputs, p90 from 100, else the maximum).
 */
void
addTimedMetrics(RunResult &r, const Timed &t)
{
    const size_t passes = t.scale.size();
    std::vector<double> perInput(t.n), rawInput(t.n), reps(passes);
    double sumUs = 0.0;
    for (size_t i = 0; i < t.n; ++i) {
        for (size_t p = 0; p < passes; ++p)
            reps[p] = t.latUs[p * t.n + i];
        rawInput[i] = median(reps);
        for (size_t p = 0; p < passes; ++p)
            reps[p] = t.latUs[p * t.n + i] * t.scale[p];
        perInput[i] = median(reps);
        sumUs += perInput[i];
    }
    std::sort(perInput.begin(), perInput.end());
    double q = t.n >= 1000 ? 0.99 : t.n >= 100 ? 0.90 : 1.0;
    add(r, "ops_per_s", "ops/s", double(t.n) / (sumUs / 1e6));
    add(r, "latency_p50_us", "us", percentile(perInput, 0.5));
    add(r, "latency_tail_us", "us", percentile(perInput, q));
    std::sort(rawInput.begin(), rawInput.end());
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "timed %zu passes of %zu operations; latency_tail_us is "
                  "p%g over the inputs",
                  passes, t.n, q * 100.0);
    r.notes.push_back(buf);
    if (t.scaled) {
        std::snprintf(buf, sizeof buf,
                      "scaled to nominal host speed: factor median %.3f, "
                      "unscaled latency_p50_us %.3f",
                      median(t.scale), percentile(rawInput, 0.5));
        r.notes.push_back(buf);
    }
}

/** Median time of a set-up step repeated at least three times and for at
 * least a quarter of a second (so a sub-millisecond set-up is timed
 * hundreds of times), at nominal host speed. */
double
timedSetup(const std::function<void()> &setup)
{
    double before = referenceMs();
    std::vector<double> s;
    double total = 0.0;
    while (s.size() < 3 || (total < 0.25 && s.size() < 1000)) {
        int64_t t0 = nowNs();
        setup();
        s.push_back(seconds(nowNs() - t0));
        total += s.back();
    }
    return median(s) * kReferenceMs / (0.5 * (before + referenceMs()));
}

double
geomean(const std::vector<double> &v)
{
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return v.empty() ? 0.0 : std::exp(logSum / double(v.size()));
}

// ---------------------------------------------------------------------
// Per-layer accounting for the traced run
// ---------------------------------------------------------------------

/** Deterministic counts, recorded over the first traced pass. */
struct LayerCounts
{
    uint64_t compiles = 0, tierFull = 0, tierUnimodular = 0,
             tierIdentity = 0, validated = 0, depColumns = 0,
             enumerated = 0, scored = 0, pruned = 0, simRuns = 0,
             emitBytes = 0, lookups = 0, hits = 0, journalEvents = 0,
             cacheBytes = 0, numaClasses = 0;

    void
    addCompile(const core::Compilation &c)
    {
        ++compiles;
        tierFull += c.tier == core::CompileTier::Full;
        tierUnimodular += c.tier == core::CompileTier::Unimodular;
        tierIdentity += c.tier == core::CompileTier::Identity;
        validated += c.validated;
        depColumns += c.normalization.depMatrix.cols();
        enumerated += c.search.enumerated;
        scored += c.search.scored;
        pruned += c.search.pruned;
        simRuns += c.search.scored * c.search.processorSweep.size();
        emitBytes += c.nodeProgram.size();
    }
};

/** Which layer a compiler phase (Compilation::phaseTimes) belongs to;
 * null keeps it in core.compile's self time. */
const char *
phaseLayer(const std::string &phase)
{
    static const std::map<std::string, const char *> kMap = {
        {"access-matrix", "xform.normalize"},
        {"basis-matrix", "xform.normalize"},
        {"legal-basis", "xform.normalize"},
        {"legal-invertible", "xform.normalize"},
        {"padding", "xform.normalize"},
        {"apply-transform", "xform.apply_transform"},
        {"dependence", "deps.analyze"},
        {"plan", "codegen.plan"},
        {"plan-search", "search.score"},
        {"strength-reduce", "codegen.strength"},
        {"emit", "codegen.emit"},
        {"differential-check", "core.differential_check"},
        {"translation-validate", "verify.validate"},
    };
    auto it = kMap.find(phase);
    return it == kMap.end() ? nullptr : it->second;
}

/**
 * Children of a core.compile span from the compiler's own phase record.
 * Phases do not overlap; they are laid out back to back from the
 * compile's start (durations are exact, offsets approximate), and
 * consecutive phases of one layer form one span. Returns the
 * plan-search span, or -1.
 */
int
addPhaseSpans(SpanRecorder &rec, int compileSpan, const core::Compilation &c)
{
    int searchSpan = -1, last = -1;
    int64_t t = rec.at(compileSpan).startNs;
    for (const obs::PhaseTime &p : c.phaseTimes) {
        int64_t d = int64_t(p.us * 1e3);
        const char *layer = phaseLayer(p.name);
        if (!layer) {
            last = -1;
        } else if (last >= 0 && rec.at(last).layer == layer) {
            rec.at(last).durNs += d; // consecutive phases of one layer
        } else {
            last = rec.addChild(compileSpan, layer, t, d);
            if (p.name == "plan-search")
                searchSpan = last;
        }
        t += d;
    }
    return searchSpan;
}

/** Simulator wall-time and work accounting for numa.* metrics. */
struct NumaTotals
{
    uint64_t directRuns = 0, aggregatedRuns = 0;
    int64_t directNs = 0, aggregatedNs = 0;
    double accesses = 0.0;
};

/** One simulator run inside a span named after the path it took. */
numa::SimStats
tracedSimulate(SpanRecorder &rec, uint64_t op, const core::Compilation &c,
               const numa::SimOptions &opts, const ir::Bindings &binds,
               NumaTotals *totals)
{
    SpanScope s(rec, "numa.sim_run_direct", op);
    int64_t t0 = nowNs();
    numa::Simulator sim(c.program, c.nest(), c.plan, opts);
    numa::SimStats st = sim.run(binds);
    int64_t d = nowNs() - t0;
    if (st.aggregated)
        s.rename("numa.sim_run_aggregated");
    if (totals) {
        (st.aggregated ? totals->aggregatedRuns : totals->directRuns) += 1;
        (st.aggregated ? totals->aggregatedNs : totals->directNs) += d;
        totals->accesses +=
            double(st.totalOf(&numa::ProcStats::localAccesses)) +
            double(st.totalOf(&numa::ProcStats::remoteAccesses)) +
            double(st.totalOf(&numa::ProcStats::blockElements));
    }
    return st;
}

/**
 * The traced part of a run: alternating traced and untraced passes
 * after a first traced pass, then the per-layer metrics.
 */
struct TracedRun
{
    SpanRecorder rec;
    LayerCounts counts;      //!< first traced pass only
    uint64_t tracedSimRuns = 0; //!< search sim runs in every traced pass
    uint64_t parsedBytes = 0;   //!< every traced pass
    NumaTotals numa;
    uint64_t ops[2] = {0, 0}; //!< [untraced, traced] after pass 0
    int64_t opNs[2] = {0, 0};
    uint64_t attempted = 0, failed = 0;

    /**
     * Run passes of `n` ops for `secs` seconds. `op(i, op_id, pass0)`
     * returns the request's wall ns (excluding any probe it ran after
     * the request) or -1 on failure.
     */
    void
    passes(size_t n, double secs,
           const std::function<int64_t(size_t, uint64_t, bool)> &op)
    {
        int64_t t0 = nowNs();
        uint64_t opId = 0;
        for (uint64_t pass = 0;; ++pass) {
            bool traced = pass % 2 == 0;
            rec.setEnabled(traced);
            for (size_t i = 0; i < n; ++i) {
                int64_t ns = op(i, opId++, pass == 0);
                ++attempted;
                if (ns < 0) {
                    ++failed;
                    continue;
                }
                if (pass > 0) {
                    ++ops[traced];
                    opNs[traced] += ns;
                }
            }
            if (pass >= 2 && seconds(nowNs() - t0) >= secs)
                break;
        }
        rec.setEnabled(false);
    }

    double
    overheadRatio() const
    {
        if (!ops[0] || !ops[1] || !opNs[0] || !opNs[1])
            return 0.0;
        double untraced = double(ops[0]) / double(opNs[0]);
        double traced = double(ops[1]) / double(opNs[1]);
        return traced / untraced;
    }

    void
    report(RunResult &r, const std::string &workload)
    {
        auto req = rec.totals("request");
        auto chk = rec.totals("check");
        int64_t requestNs = 0;
        uint64_t requests = 0;
        if (req.count("request")) {
            requestNs = req["request"].totalNs;
            requests = req["request"].calls;
        }
        auto mean = [&](const std::string &layer) {
            auto it = req.find(layer);
            if (it == req.end() || !it->second.calls)
                return 0.0;
            return double(it->second.selfNs) / 1e3 /
                   double(it->second.calls);
        };
        auto selfNs = [&](const std::string &layer) {
            auto it = req.find(layer);
            return it == req.end() ? int64_t(0) : it->second.selfNs;
        };
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

        // Per-layer table: self time, share of request time, calls.
        r.notes.push_back("per-layer self time over " +
                          std::to_string(requests) + " traced operations (" +
                          workload + "):");
        char line[160];
        std::snprintf(line, sizeof line, "  %-26s %10s %12s %8s", "layer",
                      "calls", "self us/call", "share");
        r.notes.push_back(line);
        int64_t sumSelf = 0;
        for (const auto &[layer, t] : req) {
            sumSelf += t.selfNs;
            std::snprintf(line, sizeof line, "  %-26s %10llu %12.3f %7.2f%%",
                          layer == "request" ? "request (self)"
                                             : layer.c_str(),
                          static_cast<unsigned long long>(t.calls),
                          double(t.selfNs) / 1e3 / double(t.calls),
                          100.0 * ratio(double(t.selfNs), double(requestNs)));
            r.notes.push_back(line);
        }
        std::snprintf(line, sizeof line,
                      "  self times sum to %.6f of the traced request time",
                      ratio(double(sumSelf), double(requestNs)));
        r.notes.push_back(line);
        for (const auto &[layer, t] : chk)
            if (layer != "check") {
                std::snprintf(line, sizeof line,
                              "  outside requests (output checks): %s "
                              "%llu calls, %.3f us/call",
                              layer.c_str(),
                              static_cast<unsigned long long>(t.calls),
                              double(t.selfNs) / 1e3 / double(t.calls));
                r.notes.push_back(line);
            }

        const LayerCounts &c = counts;
        double parseUs = double(selfNs("dsl.parse")) / 1e3;
        add(r, "dsl.parse_us", "us", mean("dsl.parse"));
        add(r, "dsl.bytes_per_us", "B/us", ratio(double(parsedBytes), parseUs));
        add(r, "svc.canonicalize_us", "us", mean("svc.canonicalize"));
        add(r, "svc.plan_key_us", "us", mean("svc.plan_key"));
        add(r, "svc.cache_lookup_us", "us", mean("svc.cache_lookup"));
        add(r, "svc.cache_insert_us", "us", mean("svc.cache_insert"));
        add(r, "svc.cache_hit_ratio", "fraction",
            ratio(double(c.hits), double(c.lookups)));
        add(r, "svc.journal_events", "count", double(c.journalEvents));
        add(r, "svc.cache_bytes", "bytes", double(c.cacheBytes));
        add(r, "svc.service_self_us", "us", mean("request"));
        add(r, "obs.traced_request_us", "us",
            ratio(double(requestNs) / 1e3, double(requests)));
        add(r, "core.compile_us", "us", mean("core.compile"));
        add(r, "core.differential_check_us", "us",
            mean("core.differential_check"));
        add(r, "core.tier_full", "count", double(c.tierFull));
        add(r, "core.tier_unimodular", "count", double(c.tierUnimodular));
        add(r, "core.tier_identity", "count", double(c.tierIdentity));
        add(r, "deps.analyze_us", "us", mean("deps.analyze"));
        add(r, "deps.dependence_columns", "count", double(c.depColumns));
        add(r, "xform.normalize_us", "us", mean("xform.normalize"));
        add(r, "xform.apply_transform_us", "us",
            mean("xform.apply_transform"));
        add(r, "search.enumerate_us", "us", mean("search.enumerate"));
        add(r, "search.score_us", "us", mean("search.score"));
        add(r, "search.enumerated", "count", double(c.enumerated));
        add(r, "search.scored", "count", double(c.scored));
        add(r, "search.pruned", "count", double(c.pruned));
        add(r, "search.scored_ratio", "fraction",
            ratio(double(c.scored), double(c.enumerated)));
        add(r, "search.sim_runs", "count", double(c.simRuns));
        add(r, "search.us_per_sim_run", "us",
            ratio(double(selfNs("search.score")) / 1e3,
                  double(tracedSimRuns)));
        add(r, "codegen.plan_us", "us", mean("codegen.plan"));
        add(r, "codegen.strength_us", "us", mean("codegen.strength"));
        add(r, "codegen.emit_us", "us", mean("codegen.emit"));
        add(r, "codegen.emit_bytes", "bytes", double(c.emitBytes));
        add(r, "verify.validate_us", "us", mean("verify.validate"));
        add(r, "verify.share", "fraction",
            ratio(double(selfNs("verify.validate")), double(requestNs)));
        add(r, "verify.passed_ratio", "fraction",
            ratio(double(c.validated), double(c.compiles)));
        add(r, "numa.sim_run_us_direct", "us",
            ratio(double(numa.directNs) / 1e3, double(numa.directRuns)));
        add(r, "numa.sim_run_us_aggregated", "us",
            ratio(double(numa.aggregatedNs) / 1e3,
                  double(numa.aggregatedRuns)));
        add(r, "numa.accesses_per_us", "1/us",
            ratio(numa.accesses,
                  double(numa.directNs + numa.aggregatedNs) / 1e3));
        add(r, "numa.classes", "count", double(c.numaClasses));
        add(r, "obs.trace_overhead_ratio", "ratio", overheadRatio());

        // The acceptance shares this workload was chosen for.
        auto share = [&](std::initializer_list<const char *> prefixes) {
            int64_t ns = 0;
            for (const auto &[layer, t] : req)
                for (const char *p : prefixes)
                    if (layer.rfind(p, 0) == 0)
                        ns += t.selfNs;
            return ratio(double(ns), double(requestNs));
        };
        int64_t compileNs =
            req.count("core.compile") ? req["core.compile"].totalNs : 0;
        std::snprintf(
            line, sizeof line,
            "shares of request time: dsl+svc %.3f  search.score %.3f  "
            "numa %.3f  verify %.3f (%.3f of compile time)",
            share({"dsl.", "svc.", "request"}), share({"search.score"}),
            share({"numa."}), share({"verify."}),
            ratio(double(selfNs("verify.validate")), double(compileNs)));
        r.notes.push_back(line);
    }
};

// ---------------------------------------------------------------------
// Service workloads: serve_hot, compile_cold, compile_search
// ---------------------------------------------------------------------

struct ServiceWorkload
{
    svc::ServiceOptions opts;
    std::vector<Input> inputs;
    std::string describe;
};

ServiceWorkload
makeServiceWorkload(const Args &a)
{
    ServiceWorkload w;
    w.opts.compile.base.search.hostThreads = kSearchHostThreads;
    if (a.workload == "serve_hot") {
        size_t clusters = a.tiny ? 4 : 512;
        size_t requests = a.tiny ? 200 : 10000;
        w.inputs = randomInputs(a.seed, clusters, requests, 3, false);
        w.describe = std::to_string(requests) + " requests over " +
                     std::to_string(clusters) +
                     " direction-insensitive clusters of disguised random "
                     "nests; cache 4 MiB, "
                     "validation on, search off";
    } else {
        w.opts.cacheBytes = 0;
        w.inputs = galleryInputs(a.tiny);
        for (Input &in : fileInputs(a.root, a.tiny))
            w.inputs.push_back(std::move(in));
        if (a.workload == "compile_cold") {
            size_t requests = a.tiny ? 8 : 1024;
            for (Input &in : randomInputs(a.seed, 0, requests, 3, true))
                w.inputs.push_back(std::move(in));
            w.describe = std::to_string(w.inputs.size()) +
                         " requests: gallery, samples and " +
                         std::to_string(requests) +
                         " random nests (3/8 2-deep, 5/8 3-deep); no "
                         "cache, validation on, search off";
        } else {
            w.opts.compile.base.search.enabled = true;
            w.describe = std::to_string(w.inputs.size()) +
                         " requests: gallery and samples; no cache, "
                         "validation on, search on (budget 24, sweep "
                         "{4, 32, 4096})";
        }
        seededShuffle(w.inputs, a.seed);
    }
    return w;
}

bool
servedOk(const svc::Response &r)
{
    return r.verdict == svc::Verdict::Compiled ||
           r.verdict == svc::Verdict::Cached ||
           r.verdict == svc::Verdict::Degraded;
}

/** The service's own request path, replayed through its public calls so
 * each call can carry a span. Mirrors Service::serveSource/serveGuarded
 * for fault-free traffic (no admission limits, no retries). */
class TracedService
{
  public:
    explicit TracedService(svc::ServiceOptions opts)
        : opts_(std::move(opts)), cache_(opts_.cacheBytes)
    {
        // As svc::Service does: the search scores on the served machine.
        opts_.compile.base.search.machine = opts_.machine;
    }

    struct Outcome
    {
        bool ok = false;
        std::string tier;
        bool degraded = false;
        std::string key;
        int64_t ns = 0; //!< request wall time
    };

    Outcome
    serve(const Input &in, uint64_t op, TracedRun &t, bool pass0)
    {
        SpanRecorder &rec = t.rec;
        Outcome out;
        int searchSpan = -1;
        ir::Program searched;
        int64_t t0 = nowNs();
        {
            SpanScope request(rec, "request", op);
            dsl::ParseResult parsed;
            {
                SpanScope s(rec, "dsl.parse", op);
                parsed = dsl::parseProgramRecovering(in.source);
            }
            if (rec.enabled())
                t.parsedBytes += in.source.size();
            if (!parsed.program)
                return out;
            try {
                core::CancelToken token(opts_.deadlineSteps);
                token.spend();
                svc::CanonicalForm canon;
                {
                    SpanScope s(rec, "svc.canonicalize", op);
                    canon = svc::canonicalize(*parsed.program);
                }
                svc::PlanKey key;
                {
                    SpanScope s(rec, "svc.plan_key", op);
                    key = svc::planKey(canon, opts_.machine,
                                       opts_.compile.base);
                }
                out.key = key.hex();
                token.spend();
                const svc::CachedPlan *hit = nullptr;
                {
                    SpanScope s(rec, "svc.cache_lookup", op);
                    hit = cache_.lookup(key);
                }
                if (pass0) {
                    ++t.counts.lookups;
                    t.counts.hits += hit != nullptr;
                }
                if (hit) {
                    out.tier = core::tierName(hit->compilation.tier);
                    out.degraded = hit->compilation.degraded();
                    out.ok = true;
                } else {
                    core::ResilientOptions ropts = opts_.compile;
                    ropts.base.cancel = &token;
                    core::Compilation c;
                    {
                        SpanScope s(rec, "core.compile", op);
                        c = core::compileResilient(canon.program, ropts);
                        if (rec.enabled())
                            searchSpan = addPhaseSpans(rec, s.index(), c);
                    }
                    if (pass0)
                        t.counts.addCompile(c);
                    if (rec.enabled())
                        t.tracedSimRuns += c.search.scored *
                                           c.search.processorSweep.size();
                    if (searchSpan >= 0)
                        searched = c.program;
                    out.tier = core::tierName(c.tier);
                    out.degraded = c.degraded();
                    out.ok = true;
                    SpanScope s(rec, "svc.cache_insert", op);
                    svc::CachedPlan entry;
                    entry.canonicalText = canon.text;
                    entry.compilation = std::move(c);
                    cache_.insert(key, std::move(entry));
                }
            } catch (const std::exception &) {
                out.ok = false;
            }
        }
        out.ns = nowNs() - t0;
        if (pass0) {
            t.counts.journalEvents = cache_.journal().size();
            t.counts.cacheBytes = cache_.bytes();
        }
        if (searchSpan >= 0)
            probeEnumeration(rec, searchSpan, searched);
        return out;
    }

  private:
    /** The search's enumeration share: re-run the (deterministic)
     * enumeration on the heuristic normalization after the request and
     * record it as a child of the plan-search span. */
    void
    probeEnumeration(SpanRecorder &rec, int searchSpan,
                     const ir::Program &prog)
    {
        xform::NormalizeResult heuristic =
            xform::accessNormalize(prog, opts_.compile.base.normalize);
        int64_t t0 = nowNs();
        std::vector<xform::SearchCandidate> cands =
            xform::enumerateSearchCandidates(prog, heuristic,
                                             opts_.compile.base.search);
        int64_t d = std::min(nowNs() - t0, rec.at(searchSpan).durNs);
        rec.addChild(searchSpan, "search.enumerate",
                     rec.at(searchSpan).startNs, d);
    }

    svc::ServiceOptions opts_;
    svc::PlanCache cache_;
};

/** Distinct served plans of the first pass, re-derived for the oracle. */
struct ServedPlans
{
    std::vector<std::string> keys;               //!< first-seen order
    std::map<std::string, std::vector<size_t>> inputsOf;
    std::map<std::string, core::Compilation> plan;
};

RunResult
runServiceWorkload(const Args &a)
{
    RunResult r;
    ServiceWorkload w;
    double setupS = timedSetup([&] {
        w = makeServiceWorkload(a);
        svc::Service probe(w.opts); // construction is part of set-up
    });
    r.notes.push_back("inputs: " + w.describe);
    const size_t n = w.inputs.size();

    // First pass, untimed: the responses every deterministic column and
    // every output check is computed from.
    svc::Service service(w.opts);
    std::vector<svc::Response> first;
    for (const Input &in : w.inputs)
        first.push_back(service.serveSource(in.id, in.source));
    // Peak memory over set-up and one pass: a fixed amount of work, which
    // the timed section's length (and so the speed) does not change.
    const double rssMiB = peakRssMiB();

    // Timed section (or the traced replay).
    Timed timed;
    TracedRun traced;
    std::vector<uint64_t> opsOf(n, 0);
    if (!a.trace) {
        timed = timedPasses(n, a.seconds, true, [&](size_t i) {
            svc::Response resp =
                service.serveSource(w.inputs[i].id, w.inputs[i].source);
            ++opsOf[i];
            return servedOk(resp) && resp.tier == first[i].tier;
        });
    } else {
        TracedService replica(w.opts);
        traced.passes(n, a.seconds, [&](size_t i, uint64_t op, bool pass0) {
            TracedService::Outcome o =
                replica.serve(w.inputs[i], op, traced, pass0);
            ++opsOf[i];
            // The replay must serve exactly what the service served.
            bool same = o.ok && o.tier == first[i].tier &&
                        o.degraded == first[i].degradedPlan &&
                        o.key == first[i].key.hex();
            return same ? o.ns : int64_t(-1);
        });
    }

    // Output checks, once per distinct served plan, outside timing.
    ServedPlans plans;
    std::vector<std::string> inputError(n);
    for (size_t i = 0; i < n; ++i) {
        if (!servedOk(first[i])) {
            inputError[i] = std::string("verdict ") +
                            svc::verdictName(first[i].verdict);
            continue;
        }
        std::string k = first[i].key.hex();
        if (!plans.inputsOf.count(k))
            plans.keys.push_back(k);
        plans.inputsOf[k].push_back(i);
    }
    core::ResilientOptions ropts = w.opts.compile;
    ropts.base.search.machine = w.opts.machine;
    for (const std::string &k : plans.keys) {
        size_t i = plans.inputsOf[k].front();
        svc::CanonicalForm canon =
            svc::canonicalize(dsl::parseProgram(w.inputs[i].source));
        plans.plan.emplace(k, core::compileResilient(canon.program, ropts));
    }
    std::vector<double> planSimUs;
    uint64_t served = 0, fullTier = 0;
    numa::SimOptions simOpts;
    simOpts.machine = w.opts.machine;
    simOpts.processors = 32;
    simOpts.hostThreads = hostThreads();
    std::map<std::string, double> simOf;
    traced.rec.setEnabled(a.trace);
    for (size_t ki = 0; ki < plans.keys.size(); ++ki) {
        const std::string &k = plans.keys[ki];
        const core::Compilation &c = plans.plan.at(k);
        // --tamper: check each key against another key's plan.
        const core::Compilation &checked =
            a.tamper ? plans.plan.at(plans.keys[(ki + 1) % plans.keys.size()])
                     : c;
        std::string planError;
        std::set<std::string> seen;
        for (size_t i : plans.inputsOf[k]) {
            const svc::Response &resp = first[i];
            if (resp.tier != core::tierName(c.tier) ||
                resp.degradedPlan != c.degraded())
                inputError[i] = "re-derived plan differs from the served one";
            else if (a.workload == "compile_search")
                inputError[i] = checkSearchResult(w.inputs[i].id, c);
            // Execute against up to four distinct request sources.
            if (seen.size() < 4 && seen.insert(w.inputs[i].source).second) {
                std::string e = checkAgainstSource(checked, w.inputs[i].source);
                if (!e.empty())
                    planError = e;
            }
        }
        for (size_t i : plans.inputsOf[k])
            if (inputError[i].empty() && !planError.empty())
                inputError[i] = planError;

        double simUs = 0.0;
        if (a.workload == "compile_search" && c.search.ran) {
            for (double v : c.search.winnerTimesUs)
                simUs += v;
        } else {
            SpanScope check(traced.rec, "check", ki);
            IntVec params(c.program.params.size(), 32);
            numa::SimStats st = tracedSimulate(
                traced.rec, ki, c, simOpts,
                {params, std::vector<double>(c.program.scalars.size(), 1.0)},
                a.trace ? &traced.numa : nullptr);
            traced.counts.numaClasses += st.classes.size();
            simUs = st.parallelTime();
        }
        simOf[k] = simUs;
    }
    traced.rec.setEnabled(false);
    for (size_t i = 0; i < n; ++i) {
        if (!servedOk(first[i]))
            continue;
        ++served;
        fullTier += first[i].tier == "full" && !first[i].degradedPlan;
        planSimUs.push_back(simOf[first[i].key.hex()]);
    }

    uint64_t failedInputs = 0;
    for (size_t i = 0; i < n; ++i)
        if (!inputError[i].empty()) {
            ++failedInputs;
            if (failedInputs <= 5)
                r.notes.push_back("FAILED " + w.inputs[i].id + ": " +
                                  inputError[i]);
        }
    r.notes.push_back(std::to_string(plans.keys.size()) +
                      " distinct plans checked; " +
                      std::to_string(failedInputs) + " of " +
                      std::to_string(n) + " inputs failed");

    uint64_t checkFailedOps = 0;
    for (size_t i = 0; i < n; ++i)
        if (!inputError[i].empty())
            checkFailedOps += opsOf[i];

    if (!a.trace) {
        r.attempted = timed.latUs.size();
        r.failed = std::min<uint64_t>(r.attempted,
                                      timed.failed + checkFailedOps);
        add(r, "setup_s", "s", setupS);
        addTimedMetrics(r, timed);
        add(r, "success_ratio", "fraction",
            1.0 - double(r.failed) / double(r.attempted));
        add(r, "full_tier_ratio", "fraction",
            served ? double(fullTier) / double(served) : 0.0);
        add(r, "plan_sim_us_geomean", "sim_us", geomean(planSimUs));
        add(r, "peak_rss_mb", "MiB", rssMiB);
    } else {
        r.attempted = traced.attempted;
        r.failed = std::min<uint64_t>(r.attempted,
                                      traced.failed + checkFailedOps);
        traced.report(r, a.workload);
        if (!a.traceOut.empty())
            traced.rec.writeChromeTrace(a.traceOut);
    }
    return r;
}

// ---------------------------------------------------------------------
// simulate_paper
// ---------------------------------------------------------------------

struct PaperPlans
{
    core::Compilation gemmPlain, gemmNorm, syr2kPlain, syr2kNorm;
};

struct PaperRun
{
    std::string key; //!< "gemm normB 28"
    const core::Compilation *plan = nullptr;
    bool normalized = false;
    numa::SimOptions opts;
    ir::Bindings binds;
};

/** The Fig. 4/5 sweep at paper scale: GEMM N=400 and banded SYR2K
 * N=400, b=100; untransformed (element-wise), normalized element-wise
 * and normalized with block transfers; P over the paper's counts
 * (direct path) plus 256, 4096 and 65536 (symmetry-aggregated). */
std::vector<PaperRun>
paperRuns(const PaperPlans &p)
{
    static const Int kProcs[] = {1,  2,  4,  8,   12,   16,
                                 20, 24, 28, 256, 4096, 65536};
    struct Kernel
    {
        const char *name;
        const core::Compilation *plain, *norm;
        ir::Bindings binds;
    };
    std::vector<Kernel> kernels = {
        {"gemm", &p.gemmPlain, &p.gemmNorm, {{400}, {}}},
        {"syr2k", &p.syr2kPlain, &p.syr2kNorm, {{400, 100}, {1.0, 1.0}}},
    };
    std::vector<PaperRun> runs;
    for (const Kernel &k : kernels)
        for (int variant = 0; variant < 3; ++variant)
            for (Int procs : kProcs) {
                static const char *const kVariant[] = {"plain", "normT",
                                                       "normB"};
                PaperRun run;
                run.key = std::string(k.name) + " " + kVariant[variant] +
                          " " + std::to_string(procs);
                run.plan = variant == 0 ? k.plain : k.norm;
                run.normalized = variant != 0;
                run.opts.processors = procs;
                run.opts.blockTransfers = variant == 2;
                // Mild switch contention, as bench_fig4_gemm/fig5_syr2k.
                run.opts.machine.contentionFactor = 0.01;
                run.opts.hostThreads = hostThreads();
                run.binds = k.binds;
                runs.push_back(std::move(run));
            }
    return runs;
}

PaperPlans
compilePaperPlans()
{
    core::CompileOptions identity;
    identity.identityTransform = true;
    return {core::compile(ir::gallery::gemm(), identity),
            core::compile(ir::gallery::gemm()),
            core::compile(ir::gallery::syr2kBanded(), identity),
            core::compile(ir::gallery::syr2kBanded())};
}

std::map<std::string, std::string>
readSimTable(const std::string &path)
{
    std::map<std::string, std::string> table;
    std::istringstream in(readFile(path));
    std::string kernel, variant, procs, value;
    while (in >> kernel >> variant >> procs >> value)
        table[kernel + " " + variant + " " + procs] = value;
    return table;
}

RunResult
runSimulatePaper(const Args &a)
{
    RunResult r;
    PaperPlans plans;
    std::vector<PaperRun> runs;
    double setupS = timedSetup([&] {
        plans = compilePaperPlans();
        runs = paperRuns(plans);
        seededShuffle(runs, a.seed);
    });
    if (a.printSimTable) {
        std::sort(runs.begin(), runs.end(),
                  [](const PaperRun &x, const PaperRun &y) {
                      return x.key < y.key;
                  });
        for (const PaperRun &run : runs)
            std::printf("%s %s\n", run.key.c_str(),
                        fmt(core::simulate(*run.plan, run.opts, run.binds)
                                .parallelTime())
                            .c_str());
        std::exit(0);
    }
    std::map<std::string, std::string> expected =
        readSimTable(a.root + "/perfbench/expected_simulate_paper.txt");
    r.notes.push_back("inputs: " + std::to_string(runs.size()) +
                      " simulator runs per pass (GEMM N=400, banded SYR2K "
                      "N=400 b=100; plain/normT/normB; P 1..28 direct, "
                      "256/4096/65536 aggregated); host threads " +
                      std::to_string(hostThreads()));

    // Every run's simulated time must match the committed table
    // (--tamper compares against the next entry's value instead).
    auto expectedFor = [&](const std::string &key) -> std::string {
        auto it = expected.find(key);
        if (it == expected.end())
            return "missing";
        if (!a.tamper)
            return it->second;
        ++it;
        return it == expected.end() ? expected.begin()->second : it->second;
    };
    std::vector<double> simUs(runs.size(), 0.0);
    std::vector<std::string> error(runs.size());
    auto check = [&](size_t i, const numa::SimStats &st) {
        simUs[i] = st.parallelTime();
        std::string got = fmt(simUs[i]);
        std::string want = expectedFor(runs[i].key);
        if (got != want)
            error[i] = runs[i].key + ": simulated " + got + " us, expected " +
                       want;
        return error[i].empty();
    };

    // First pass, untimed: warms the thread pool and fixes the work that
    // peak_rss_mb covers.
    for (size_t i = 0; i < runs.size(); ++i)
        check(i, core::simulate(*runs[i].plan, runs[i].opts, runs[i].binds));
    const double rssMiB = peakRssMiB();

    Timed timed;
    TracedRun traced;
    if (!a.trace) {
        timed = timedPasses(runs.size(), a.seconds, hostThreads() == 1,
                            [&](size_t i) {
            const PaperRun &run = runs[i];
            return check(i, core::simulate(*run.plan, run.opts, run.binds));
        });
    } else {
        traced.passes(
            runs.size(), a.seconds, [&](size_t i, uint64_t op, bool pass0) {
                const PaperRun &run = runs[i];
                int64_t t0 = nowNs();
                numa::SimStats st;
                {
                    SpanScope request(traced.rec, "request", op);
                    st = tracedSimulate(
                        traced.rec, op, *run.plan, run.opts, run.binds,
                        traced.rec.enabled() ? &traced.numa : nullptr);
                }
                int64_t ns = nowNs() - t0;
                if (pass0)
                    traced.counts.numaClasses += st.classes.size();
                return check(i, st) ? ns : int64_t(-1);
            });
    }

    uint64_t bad = 0, normalized = 0, fullTier = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        if (!error[i].empty() && ++bad <= 5)
            r.notes.push_back("FAILED " + error[i]);
        if (runs[i].normalized) {
            ++normalized;
            fullTier += runs[i].plan->tier == core::CompileTier::Full &&
                        !runs[i].plan->degraded();
        }
    }
    r.notes.push_back(std::to_string(bad) + " of " +
                      std::to_string(runs.size()) +
                      " runs differ from the expected table");

    if (!a.trace) {
        r.attempted = timed.latUs.size();
        r.failed = timed.failed;
        add(r, "setup_s", "s", setupS);
        addTimedMetrics(r, timed);
        add(r, "success_ratio", "fraction",
            1.0 - double(r.failed) / double(r.attempted));
        add(r, "full_tier_ratio", "fraction",
            double(fullTier) / double(normalized));
        add(r, "plan_sim_us_geomean", "sim_us", geomean(simUs));
        add(r, "peak_rss_mb", "MiB", rssMiB);
    } else {
        r.attempted = traced.attempted;
        r.failed = traced.failed;
        traced.report(r, a.workload);
        if (!a.traceOut.empty())
            traced.rec.writeChromeTrace(a.traceOut);
    }
    return r;
}

// ---------------------------------------------------------------------

void
printResult(const RunResult &r)
{
    for (const std::string &n : r.notes)
        std::printf("  %s\n", n.c_str());
    for (const Metric &m : r.metrics)
        std::printf("  %-28s %24s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + fmt(v) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int
run(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
#ifndef __OPTIMIZE__
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from an "
                 "unoptimized build (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    static const std::set<std::string> kWorkloads = {
        "serve_hot", "compile_cold", "compile_search", "simulate_paper"};
    if (!kWorkloads.count(a.workload))
        usage("unknown workload " + a.workload);
    if (!a.printSimTable)
        std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "scale=%s build=%s nproc=%u host_threads=%lld "
                "search_host_threads=%lld clients=1 (closed loop)\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, int(a.trace), a.tiny ? "tiny" : "full",
                PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                static_cast<long long>(hostThreads()),
                static_cast<long long>(kSearchHostThreads));
    RunResult r = a.workload == "simulate_paper" ? runSimulatePaper(a)
                                                 : runServiceWorkload(a);
    printResult(r);
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
