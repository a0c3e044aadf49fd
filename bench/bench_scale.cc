/**
 * @file
 * Planetary-scale sweep: GEMM and SYR2K simulated at P = 2^5 .. 2^20
 * under symmetry-class aggregation (see numa/symmetry.h).
 *
 * The point of the figure: simulated wall time is a function of the
 * *class count* (which scales with the outer trip count N), not of P,
 * so a million-processor machine costs the same wall time as a
 * 32-processor one. Three things are asserted, not just printed:
 *
 *   - exactness at small P: the aggregated run must match direct
 *     simulation counter for counter before the sweep is trusted;
 *   - aggregation engaged: every sweep point must actually produce a
 *     class table (no silent fallback to the O(P) path);
 *   - flat wall time: the P = 2^20 point must finish within
 *     kBudgetFactor x the P = 2^5 point (plus an absolute slack for
 *     timer noise), which would be off by orders of magnitude if any
 *     O(P) loop crept back into the aggregated path.
 *
 * Output: BENCH_scale.json with per-point wall time, class count,
 * processors charged by evaluation across processors rather than walked
 * (Simulator::runTally), and speedup versus the extrapolated O(P)
 * direct-simulation cost (direct wall at the smallest P, scaled
 * linearly in P).
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/compiler.h"
#include "ir/gallery.h"

namespace {

using namespace anc;

constexpr double kBudgetFactor = 4.0;  //!< issue: within 4x of P = 2^5
constexpr double kBudgetSlackS = 0.25; //!< absolute timer-noise slack

Int
benchN()
{
    return bench::fullScale() ? 400 : bench::envInt("ANC_BENCH_N", 140);
}

std::vector<Int>
sweepProcessorCounts()
{
    return {Int(1) << 5, Int(1) << 8, Int(1) << 12, Int(1) << 16,
            Int(1) << 20};
}

struct Kernel
{
    const char *name;
    core::Compilation comp;
    ir::Bindings binds;
};

std::vector<Kernel> &
kernels()
{
    static std::vector<Kernel> k = [] {
        Int n = benchN();
        std::vector<Kernel> v;
        v.push_back({"gemm", core::compile(ir::gallery::gemm()),
                     {{n}, {}}});
        v.push_back({"syr2k", core::compile(ir::gallery::syr2kBanded()),
                     {{n, bench::envInt("ANC_BENCH_B", 8)}, {1.5, 0.5}}});
        return v;
    }();
    return k;
}

numa::SimOptions
scaleOpts(Int p, numa::SymmetryMode mode)
{
    numa::SimOptions opts;
    opts.processors = p;
    opts.symmetry = mode;
    opts.machine.contentionFactor = 0.01;
    return opts;
}

struct Point
{
    double wallS = 0.0; //!< best of 3 (least interference)
    size_t classes = 0;
    double simTimeUs = 0.0;
    uint64_t iterations = 0;
    uint64_t evaluated = 0; //!< processors charged by evaluation
};

Point
measure(const Kernel &k, Int p, numa::SymmetryMode mode)
{
    Point pt;
    pt.wallS = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        bench::WallTimer timer;
        numa::SimStats s = core::simulate(k.comp, scaleOpts(p, mode),
                                          k.binds);
        pt.wallS = std::min(pt.wallS, timer.seconds());
        pt.classes = s.aggregated ? s.classes.size() : size_t(p);
        pt.simTimeUs = s.parallelTime();
        pt.iterations = s.totalIterations();
    }
    pt.evaluated = numa::Simulator(k.comp.program, k.comp.nest(),
                                   k.comp.plan, scaleOpts(p, mode))
                       .runTally(k.binds)
                       .evaluated;
    return pt;
}

/** Aggregation is only worth benchmarking if it is exact; compare the
 * whole-machine signature against direct simulation at small P. */
void
assertExactAtSmallP(const Kernel &k)
{
    for (Int p : {Int(1), Int(7), Int(32)}) {
        numa::SimStats direct = core::simulate(
            k.comp, scaleOpts(p, numa::SymmetryMode::Off), k.binds);
        numa::SimStats agg = core::simulate(
            k.comp, scaleOpts(p, numa::SymmetryMode::Force), k.binds);
        agg.materializePerProc();
        if (agg.perProc.size() != direct.perProc.size())
            throw InternalError("bench_scale: class expansion lost "
                                "processors");
        for (size_t i = 0; i < direct.perProc.size(); ++i) {
            const numa::ProcStats &x = agg.perProc[i];
            const numa::ProcStats &y = direct.perProc[i];
            if (x.iterations != y.iterations ||
                x.localAccesses != y.localAccesses ||
                x.remoteAccesses != y.remoteAccesses ||
                x.blockTransfers != y.blockTransfers ||
                x.blockElements != y.blockElements ||
                x.syncs != y.syncs || x.time != y.time)
                throw InternalError(
                    "bench_scale: aggregated stats diverge from direct "
                    "simulation for " + std::string(k.name) + " at P = " +
                    std::to_string(p) + ", proc " + std::to_string(i));
        }
    }
}

void
printScaleSweep()
{
    Int n = benchN();
    bench::JsonReport report("scale");
    report.flag("N", n);
    report.flag("b", bench::envInt("ANC_BENCH_B", 8));
    report.flag("budget_factor", kBudgetFactor);
    report.flag("symmetry", "force");

    for (const Kernel &k : kernels())
        assertExactAtSmallP(k);

    std::printf("\nsymmetry-class scaling sweep (N = %lld)\n",
                static_cast<long long>(n));
    std::printf("%8s %10s %10s %10s %14s %16s %12s\n", "kernel", "P",
                "classes", "evaluated", "wall (ms)", "sim time (us)",
                "vs direct");

    for (const Kernel &k : kernels()) {
        // Extrapolation base: the direct O(P) cost measured at the
        // smallest sweep point, scaled linearly in P.
        Int p0 = sweepProcessorCounts().front();
        Point direct0 = measure(k, p0, numa::SymmetryMode::Off);
        double firstWall = 0.0, lastWall = 0.0;
        for (Int p : sweepProcessorCounts()) {
            Point pt = measure(k, p, numa::SymmetryMode::Force);
            if (pt.classes == size_t(p) && p > Int(1) << 8)
                throw InternalError("bench_scale: aggregation did not "
                                    "engage at P = " + std::to_string(p));
            double extrapolated =
                direct0.wallS * (double(p) / double(p0));
            double vs_direct =
                pt.wallS > 0.0 ? extrapolated / pt.wallS : 0.0;
            if (p == sweepProcessorCounts().front())
                firstWall = pt.wallS;
            if (p == sweepProcessorCounts().back())
                lastWall = pt.wallS;
            std::printf("%8s %10lld %10zu %10llu %14.3f %16.0f %11.0fx\n",
                        k.name, static_cast<long long>(p), pt.classes,
                        static_cast<unsigned long long>(pt.evaluated),
                        pt.wallS * 1e3, pt.simTimeUs, vs_direct);
            report.run(k.name, p, pt.wallS, pt.simTimeUs, 0.0,
                       {{"classes", std::to_string(pt.classes)},
                        {"evaluated", std::to_string(pt.evaluated)},
                        {"speedup_vs_direct",
                         std::to_string(vs_direct)}});
        }
        // The headline property: P = 2^20 in flat wall time.
        if (lastWall > kBudgetFactor * firstWall + kBudgetSlackS)
            throw InternalError(
                "bench_scale: wall time is not flat in P for " +
                std::string(k.name) + ": P = 2^20 took " +
                std::to_string(lastWall) + " s vs " +
                std::to_string(firstWall) + " s at P = 2^5 (budget " +
                std::to_string(kBudgetFactor) + "x + " +
                std::to_string(kBudgetSlackS) + " s)");
    }
    report.write();
}

void
BM_Scale_SimulateGemmAggregated(benchmark::State &state)
{
    const Kernel &k = kernels()[0];
    Int p = Int(1) << state.range(0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::simulate(k.comp, scaleOpts(p, numa::SymmetryMode::Force),
                           k.binds));
    }
}
BENCHMARK(BM_Scale_SimulateGemmAggregated)
    ->Arg(5)->Arg(12)->Arg(20)->Unit(benchmark::kMillisecond);

void
BM_Scale_SimulateSyr2kAggregated(benchmark::State &state)
{
    const Kernel &k = kernels()[1];
    Int p = Int(1) << state.range(0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::simulate(k.comp, scaleOpts(p, numa::SymmetryMode::Force),
                           k.binds));
    }
}
BENCHMARK(BM_Scale_SimulateSyr2kAggregated)
    ->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printScaleSweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
