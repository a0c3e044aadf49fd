/**
 * @file
 * Oracle for the simulator's middle-loop fold (part of
 * SimOptions::fastInner): a folded run must equal, bit for bit, the
 * naive walk over a grid of gallery kernels, sizes, processor counts
 * and both transfer models; runs the fold must decline, which take the
 * per-position fast walk, must still match; and the fold must really
 * engage where ownership is periodic.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "numa/simulator.h"
#include "sim_oracle.h"

namespace anc::numa {
namespace {

struct Kernel
{
    std::string name;
    ir::Program prog;
};

std::vector<Kernel>
galleryKernels()
{
    using namespace ir::gallery;
    return {{"figure1", figure1()},
            {"section3", section3Example()},
            {"scaling", scalingExample()},
            {"section5", section5Example()},
            {"gemm", gemm()},
            {"gemv", gemv()},
            {"ger", ger()},
            {"jacobi2d", jacobi2d()},
            {"gaussSeidel", gaussSeidel()},
            {"skewedScatter", skewedScatter()},
            {"syr2k", syr2kBanded()}};
}

ir::Bindings
bindingFor(const ir::Program &prog, Int n)
{
    return {IntVec(prog.params.size(), n),
            std::vector<double>(prog.scalars.size(), 1.0)};
}

/** Run c under opts with the fast walk (folded where it can) and the
 * naive walk, and expect both identical. Returns the fast run. */
SimStats
expectFoldMatches(const core::Compilation &c, SimOptions opts,
                  const ir::Bindings &binds, const std::string &what)
{
    opts.fastInner = true;
    SimStats fast = core::simulate(c, opts, binds);
    opts.fastInner = false;
    SimStats naive = core::simulate(c, opts, binds);
    EXPECT_EQ(testutil::statsDiff(fast, naive), "") << what;
    return fast;
}

uint64_t
foldPeriodOf(const core::Compilation &c, const SimOptions &opts,
             const ir::Bindings &binds, Int p = 0)
{
    return Simulator(c.program, c.nest(), c.plan, opts).foldPeriod(binds, p);
}

TEST(FoldOracle, GalleryGridMatchesNaiveWalk)
{
    // 11 kernels x {identity, normalized} x 3 sizes x 10 processor
    // counts x {block transfers, element-wise} = 1320 configurations.
    const Int sizes[] = {7, 24, 61};
    const Int procs[] = {1, 2, 3, 4, 5, 6, 8, 12, 13, 32};
    size_t configs = 0, folding = 0;
    for (const Kernel &k : galleryKernels()) {
        for (bool identity : {true, false}) {
            core::CompileOptions co;
            co.identityTransform = identity;
            core::Compilation c = core::compile(k.prog, co);
            for (Int n : sizes) {
                ir::Bindings binds = bindingFor(k.prog, n);
                for (Int p : procs) {
                    for (bool blocks : {true, false}) {
                        SimOptions opts;
                        opts.processors = p;
                        opts.blockTransfers = blocks;
                        opts.hostThreads = 1;
                        std::string what =
                            k.name + (identity ? " identity" : " normalized") +
                            " N=" + std::to_string(n) +
                            " P=" + std::to_string(p) +
                            (blocks ? " B" : " T");
                        expectFoldMatches(c, opts, binds, what);
                        folding += foldPeriodOf(c, opts, binds) > 0;
                        ++configs;
                    }
                }
            }
        }
    }
    EXPECT_EQ(configs, 1320u);
    EXPECT_GT(folding, configs / 4);
}

TEST(FoldOracle, FoldEngagesForGemmGerGemvAtSmallP)
{
    // Ownership under the wrapped distributions is periodic in the
    // middle variable with period P / gcd(step, P) <= P, so at N = 24
    // and P <= 4 every middle loop has at least three whole periods.
    for (const Kernel &k : galleryKernels()) {
        if (k.name != "gemm" && k.name != "ger" && k.name != "gemv")
            continue;
        for (bool identity : {true, false}) {
            core::CompileOptions co;
            co.identityTransform = identity;
            core::Compilation c = core::compile(k.prog, co);
            ir::Bindings binds = bindingFor(k.prog, 24);
            for (Int p : {1, 2, 3, 4}) {
                SimOptions opts;
                opts.processors = p;
                uint64_t period = foldPeriodOf(c, opts, binds);
                std::string what = k.name +
                                   (identity ? " identity" : " normalized") +
                                   " P=" + std::to_string(p);
                EXPECT_GT(period, 0u) << what;
                EXPECT_LE(period, uint64_t(p)) << what;
                EXPECT_LE(3 * period, 24u) << what;
            }
        }
    }
}

TEST(FoldOracle, BlockedArraySteppingAlongTheMiddleDoesNotFold)
{
    ir::Program prog = ir::gallery::gemm();
    prog.arrays[1].dist = ir::DistributionSpec::blocked(1); // A[i, k]
    core::Compilation c = core::compile(prog);
    ir::Bindings binds = bindingFor(prog, 24);
    for (Int p : {2, 3, 4}) {
        SimOptions opts;
        opts.processors = p;
        EXPECT_EQ(foldPeriodOf(c, opts, binds), 0u) << "P=" << p;
        expectFoldMatches(c, opts, binds, "blocked P=" + std::to_string(p));
    }
}

TEST(FoldOracle, BandedSyr2kDoesNotFold)
{
    // Its inner bounds move with the middle variable.
    core::Compilation c = core::compile(ir::gallery::syr2kBanded());
    ir::Bindings binds{{40, 9}, {1.5, 0.5}};
    for (Int p : {1, 3, 4}) {
        SimOptions opts;
        opts.processors = p;
        EXPECT_EQ(foldPeriodOf(c, opts, binds), 0u) << "P=" << p;
        expectFoldMatches(c, opts, binds, "syr2k P=" + std::to_string(p));
    }
}

TEST(FoldOracle, ObservedAndFaultyRunsDoNotFoldAndStillMatch)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    ir::Bindings binds = bindingFor(c.program, 24);
    SimOptions base;
    base.processors = 4;
    ASSERT_GT(foldPeriodOf(c, base, binds), 0u);

    SimOptions faulty = base;
    faulty.faults.dropTransferEvery = 3;
    faulty.faults.remoteFailEvery = 5;
    faulty.faults.corruptTransferAt = 2;
    SimOptions per_ref = base;
    per_ref.perReference = true;
    SimOptions comm = base;
    comm.commMatrix = true;
    for (const auto &[name, opts] :
         {std::pair<const char *, SimOptions>{"faults", faulty},
          {"perReference", per_ref},
          {"commMatrix", comm}}) {
        EXPECT_EQ(foldPeriodOf(c, opts, binds), 0u) << name;
        for (bool blocks : {true, false}) {
            SimOptions o = opts;
            o.blockTransfers = blocks;
            expectFoldMatches(c, o, binds, name);
        }
    }
}

TEST(FoldOracle, FailStopKillWithSliceAdoptionFolds)
{
    for (const char *kernel : {"gemm", "ger"}) {
        ir::Program prog = std::string(kernel) == "gemm"
                               ? ir::gallery::gemm()
                               : ir::gallery::ger();
        core::Compilation c = core::compile(prog);
        ir::Bindings binds = bindingFor(prog, 30);
        SimOptions opts;
        opts.processors = 3;
        opts.faults.killProc = 1;
        opts.faults.killAfterSlices = 2;
        ASSERT_GT(foldPeriodOf(c, opts, binds), 0u) << kernel;
        SimStats s = expectFoldMatches(c, opts, binds, kernel);
        uint64_t adopted = 0;
        for (const ProcStats &ps : s.perProc)
            adopted += ps.reassignedSlices;
        EXPECT_GT(adopted, 0u) << kernel;
    }
}

TEST(FoldOracle, TraceIsByteIdenticalWithFastInnerOnAndOff)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    ir::Bindings binds = bindingFor(c.program, 24);
    auto traced = [&](bool fast) {
        obs::Trace trace;
        SimOptions opts;
        opts.processors = 4;
        opts.fastInner = fast;
        opts.trace = &trace;
        opts.tracePid = trace.process("gemm");
        core::simulate(c, opts, binds);
        return trace.renderEvents(opts.tracePid);
    };
    SimOptions plain;
    plain.processors = 4;
    obs::Trace probe;
    plain.trace = &probe;
    ASSERT_GT(foldPeriodOf(c, plain, binds), 0u);
    std::string folded = traced(true);
    EXPECT_FALSE(folded.empty());
    EXPECT_EQ(folded, traced(false));
}

TEST(FoldOracle, AggregatedRunsMatch)
{
    // Symmetry aggregation simulates class representatives through the
    // same walk; force it at small P so the naive oracle stays cheap.
    core::Compilation c = core::compile(ir::gallery::gemm());
    ir::Bindings binds = bindingFor(c.program, 30);
    for (Int p : {3, 4, 8}) {
        SimOptions opts;
        opts.processors = p;
        opts.symmetry = SymmetryMode::Force;
        SimStats s = expectFoldMatches(c, opts, binds,
                                       "aggregated P=" + std::to_string(p));
        EXPECT_TRUE(s.aggregated);
    }
}

/** i = 0..0, j = -N..N, A[i] = j + j*i: a two-flop body whose single
 * inner run has 2N + 1 iterations. */
core::Compilation
wideInnerRun()
{
    ir::ProgramBuilder b(2);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    size_t arr = b.array("A", {b.cst(1)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(0), b.cst(0));
    b.loop("j", b.cst(0) - N, N);
    auto vi = b.var(0), vj = b.var(1);
    b.assign(b.ref(arr, {vi}),
             ir::Expr::binary('+', ir::Expr::indexValue(vj),
                              ir::Expr::binary('*', ir::Expr::indexValue(vj),
                                               ir::Expr::indexValue(vi))));
    core::CompileOptions co;
    co.identityTransform = true;
    return core::compile(b.build(), co);
}

TEST(FoldOracle, CountersThatLeaveUint64Throw)
{
    core::Compilation c = wideInnerRun();
    SimOptions opts;
    opts.processors = 1;
    // N = 2^61: 2^62 + 1 iterations and 2^63 + 2 flops still fit.
    Int n = Int(1) << 61;
    SimStats s = core::simulate(c, opts, {{n}, {}});
    ASSERT_EQ(s.perProc.size(), 1u);
    EXPECT_EQ(s.perProc[0].iterations, (uint64_t(1) << 62) + 1);
    EXPECT_EQ(s.perProc[0].flops, (uint64_t(1) << 63) + 2);
    // N = 2^62: hi - start = 2^63 leaves Int, and the 2^64 + 2 flops
    // leave uint64_t. The run must fail, not report wrapped counters.
    EXPECT_THROW(core::simulate(c, opts, {{Int(1) << 62}, {}}),
                 OverflowError);
}

} // namespace
} // namespace anc::numa
