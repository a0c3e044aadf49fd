/**
 * @file
 * Figure 5 reproduction: speedup of banded SYR2K on the modeled
 * Butterfly GP1000 for P = 1..28, three curves:
 *
 *   syr2k  -- original nest, outer loop round-robin
 *   syr2kT -- access-normalized, element-wise remote accesses
 *   syr2kB -- access-normalized with block transfers
 *
 * The transformed outer loop is u = j - i with 2b-1 iterations, so the
 * band width must exceed the processor count for full parallelism
 * (b = 64 gives 127 outer iterations, comfortably above the paper's
 * 28 processors). Block transfers matter much more than in GEMM because
 * four of six references stay remote after normalization -- the
 * paper's Section 8.2 observation, which the printed table shows as a
 * visibly larger T-to-B gap.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/compiler.h"
#include "deps/dependence.h"
#include "ir/gallery.h"

namespace {

using namespace anc;

Int
benchN()
{
    return bench::fullScale() ? 400 : bench::envInt("ANC_BENCH_N", 128);
}

Int
benchB()
{
    return bench::fullScale() ? 100 : bench::envInt("ANC_BENCH_B", 64);
}

struct Fig5Data
{
    core::Compilation plain;
    core::Compilation normalized;
    double seqTime;
    Int n, b;
};

Fig5Data &
data()
{
    static Fig5Data d = [] {
        core::CompileOptions identity;
        identity.identityTransform = true;
        Fig5Data x{core::compile(ir::gallery::syr2kBanded(), identity),
                   core::compile(ir::gallery::syr2kBanded()), 0.0,
                   benchN(), benchB()};
        // Section 8.2's worked results: 5-row access matrix headed by
        // j - i, dependence (0,0,1), and a legal transformation whose
        // outer row normalizes Cb's distribution subscript.
        const auto &nr = x.normalized.normalization;
        if (nr.access.matrix.rows() != 5)
            throw InternalError("fig5: unexpected access matrix");
        if (nr.depMatrix.column(0) != IntVec{0, 0, 1})
            throw InternalError("fig5: unexpected dependence matrix");
        if (!deps::isLegalTransformation(nr.transform, nr.depMatrix))
            throw InternalError("fig5: illegal transformation");
        x.seqTime = core::sequentialTime(
            x.normalized, numa::MachineParams::butterflyGP1000(),
            {x.n, x.b});
        return x;
    }();
    return d;
}

struct Measured
{
    double speedup;
    double simTimeUs;
    double wallSeconds;
};

Measured
measure(const core::Compilation &c, Int p, bool blocks)
{
    numa::SimOptions opts;
    opts.processors = p;
    opts.blockTransfers = blocks;
    // Mild switch-contention term (Agarwal [1]): remote latency grows
    // with the number of processors sharing the network. Ablated in
    // bench_msgsize.
    opts.machine.contentionFactor = 0.01;
    bench::WallTimer timer;
    numa::SimStats s =
        core::simulate(c, opts, {{data().n, data().b}, {1.0, 1.0}});
    double wall = timer.seconds();
    return {s.speedup(data().seqTime), s.parallelTime(), wall};
}

/** Positions the processors' own slices walk, through
 * Simulator::sliceTally: the rest are charged by stretches, and
 * the gate keeps a fall-back to the per-position walk from passing. */
std::string
walkedPositions(const core::Compilation &c, Int p, bool blocks)
{
    numa::SimOptions opts;
    opts.processors = p;
    opts.blockTransfers = blocks;
    opts.machine.contentionFactor = 0.01;
    numa::Simulator sim(c.program, c.nest(), c.plan, opts);
    uint64_t walked = 0;
    for (Int q = 0; q < p; ++q)
        walked +=
            sim.sliceTally({{data().n, data().b}, {1.0, 1.0}}, q).walked;
    return std::to_string(walked);
}

double
speedupOf(const core::Compilation &c, Int p, bool blocks)
{
    return measure(c, p, blocks).speedup;
}

void
printFigure5()
{
    Fig5Data &d = data();
    std::printf("=== Figure 5: Speedup of banded SYR2K (N = %lld, "
                "b = %lld) ===\n",
                static_cast<long long>(d.n),
                static_cast<long long>(d.b));
    bench::printSpeedupHeader("speedup vs. processors",
                              {"syr2k", "syr2kT", "syr2kB"});
    bench::JsonReport report("fig5_syr2k");
    report.flag("N", d.n);
    report.flag("b", d.b);
    report.flag("full", bench::fullScale());
    report.flag("contentionFactor", 0.01);
    report.flag("sampled", false);
    for (Int p : bench::paperProcessorCounts()) {
        Measured plain = measure(d.plain, p, false);
        Measured norm_t = measure(d.normalized, p, false);
        Measured norm_b = measure(d.normalized, p, true);
        report.run("syr2k", p, plain.wallSeconds, plain.simTimeUs,
                   plain.speedup,
                   {{"walked_positions", walkedPositions(d.plain, p, false)}});
        report.run("syr2kT", p, norm_t.wallSeconds, norm_t.simTimeUs,
                   norm_t.speedup,
                   {{"walked_positions",
                     walkedPositions(d.normalized, p, false)}});
        report.run("syr2kB", p, norm_b.wallSeconds, norm_b.simTimeUs,
                   norm_b.speedup,
                   {{"walked_positions",
                     walkedPositions(d.normalized, p, true)}});
        bench::printSpeedupRow(
            p, {plain.speedup, norm_t.speedup, norm_b.speedup});
    }
    std::printf("\npaper shape: syr2k saturates lowest; block transfers "
                "matter more than in GEMM\n(many non-local accesses "
                "remain), so syr2kB rises clearly above syr2kT.\n\n");
    report.write();
}

void
BM_Fig5_SimulateSyr2kB(benchmark::State &state)
{
    Int p = state.range(0);
    for (auto _ : state)
        benchmark::DoNotOptimize(speedupOf(data().normalized, p, true));
}
BENCHMARK(BM_Fig5_SimulateSyr2kB)->Arg(4)->Arg(28)
    ->Unit(benchmark::kMillisecond);

void
BM_Fig5_CompileSyr2k(benchmark::State &state)
{
    ir::Program p = ir::gallery::syr2kBanded();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(p));
}
BENCHMARK(BM_Fig5_CompileSyr2k)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    printFigure5();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
