/**
 * @file
 * Determinism tests for the simulator's fast paths: host-parallel
 * execution (SimOptions::hostThreads) and the strength-reduced /
 * closed-form innermost loop (SimOptions::fastInner) must both be
 * bit-identical to the serial naive walk -- every counter equal, every
 * simulated clock equal to the last bit.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "numa/simulator.h"

namespace anc::numa {
namespace {

using core::Compilation;
using core::CompileOptions;

void
expectIdentical(const SimStats &a, const SimStats &b, const char *what)
{
    ASSERT_EQ(a.perProc.size(), b.perProc.size()) << what;
    EXPECT_EQ(a.processors, b.processors) << what;
    for (size_t i = 0; i < a.perProc.size(); ++i) {
        const ProcStats &x = a.perProc[i];
        const ProcStats &y = b.perProc[i];
        SCOPED_TRACE(std::string(what) + " proc " + std::to_string(x.proc));
        EXPECT_EQ(x.proc, y.proc);
        EXPECT_EQ(x.iterations, y.iterations);
        EXPECT_EQ(x.flops, y.flops);
        EXPECT_EQ(x.localAccesses, y.localAccesses);
        EXPECT_EQ(x.remoteAccesses, y.remoteAccesses);
        EXPECT_EQ(x.blockTransfers, y.blockTransfers);
        EXPECT_EQ(x.blockElements, y.blockElements);
        EXPECT_EQ(x.guardChecks, y.guardChecks);
        EXPECT_EQ(x.syncs, y.syncs);
        EXPECT_EQ(x.remoteByArray, y.remoteByArray);
        // Bit-identical, not approximately equal: the simulated clock
        // is a pure function of the counters.
        EXPECT_EQ(x.time, y.time);
    }
}

struct Workload
{
    const char *name;
    Compilation comp;
    ir::Bindings binds;
};

std::vector<Workload>
gallery()
{
    CompileOptions identity;
    identity.identityTransform = true;
    std::vector<Workload> w;
    w.push_back({"gemm", core::compile(ir::gallery::gemm()), {{13}, {}}});
    w.push_back({"gemm_plain",
                 core::compile(ir::gallery::gemm(), identity), {{13}, {}}});
    w.push_back({"syr2k", core::compile(ir::gallery::syr2kBanded()),
                 {{17, 5}, {1.5, 0.5}}});
    w.push_back({"syr2k_plain",
                 core::compile(ir::gallery::syr2kBanded(), identity),
                 {{17, 5}, {1.5, 0.5}}});
    w.push_back({"figure1", core::compile(ir::gallery::figure1()),
                 {{9, 7, 4}, {}}});
    return w;
}

SimStats
runWith(const Workload &w, Int p, Int host_threads, bool fast_inner,
        bool blocks)
{
    SimOptions opts;
    opts.processors = p;
    opts.blockTransfers = blocks;
    opts.hostThreads = host_threads;
    opts.fastInner = fast_inner;
    return core::simulate(w.comp, opts, w.binds);
}

TEST(SimParallel, ThreadCountsProduceIdenticalStats)
{
    for (const Workload &w : gallery()) {
        for (Int p : {4, 7, 32}) {
            SimStats serial = runWith(w, p, 1, true, true);
            for (Int threads : {2, 4, 8}) {
                SimStats parallel = runWith(w, p, threads, true, true);
                expectIdentical(serial, parallel, w.name);
            }
            // hostThreads = 0 ("all hardware") must agree too.
            SimStats all = runWith(w, p, 0, true, true);
            expectIdentical(serial, all, w.name);
        }
    }
}

TEST(SimParallel, FastInnerMatchesNaiveWalk)
{
    for (const Workload &w : gallery()) {
        for (Int p : {1, 3, 8, 32}) {
            for (bool blocks : {false, true}) {
                SimStats naive = runWith(w, p, 1, false, blocks);
                SimStats fast = runWith(w, p, 1, true, blocks);
                expectIdentical(naive, fast, w.name);
            }
        }
    }
}

TEST(SimParallel, FastInnerMatchesOnBlockedDistributions)
{
    // Blocked distribution with the distribution subscript varying in
    // the innermost loop: exercises the incremental (Stepped) path,
    // where ownership crosses block boundaries mid-run.
    ir::Program p = ir::gallery::gemm();
    for (ir::ArrayDecl &a : p.arrays)
        a.dist = ir::DistributionSpec::blocked(1);
    for (bool identity : {false, true}) {
        CompileOptions opts;
        opts.identityTransform = identity;
        Compilation c = core::compile(p, opts);
        Workload w{"gemm_blocked", std::move(c), {{19}, {}}};
        for (Int procs : {3, 8}) {
            SimStats naive = runWith(w, procs, 1, false, true);
            SimStats fast = runWith(w, procs, 1, true, true);
            expectIdentical(naive, fast, w.name);
        }
    }
}

TEST(SimParallel, FastInnerMatchesOnBlock2D)
{
    // 2-D block distribution: both distribution coordinates advance
    // incrementally and the owner is a grid cell.
    ir::ProgramBuilder b(2);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    b.array("A", {N, N}, ir::DistributionSpec::block2d(0, 1));
    b.array("B", {N, N}, ir::DistributionSpec::block2d(0, 1));
    b.loop("i", b.cst(0), N - b.cst(1));
    b.loop("j", b.cst(0), N - b.cst(1));
    b.assign(b.ref(0, {b.var(0), b.var(1)}),
             ir::Expr::arrayRead(b.ref(1, {b.var(1), b.var(0)})));
    Compilation c = core::compile(b.build());
    Workload w{"block2d", std::move(c), {{21}, {}}};
    for (Int procs : {4, 6, 9}) {
        SimStats naive = runWith(w, procs, 1, false, true);
        SimStats fast = runWith(w, procs, 1, true, true);
        expectIdentical(naive, fast, w.name);
    }
}

TEST(SimParallel, FastInnerMatchesOnStridedWrappedSubscripts)
{
    // Wrapped ownership with a non-unit per-iteration delta (2j) and a
    // negative delta (N - 1 - j): stresses the congruence-counting
    // closed form at gcd(delta, P) != 1.
    ir::ProgramBuilder b(2);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    b.array("A", {N.scaled(Rational(2))},
            ir::DistributionSpec::wrapped(0));
    b.array("B", {N}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(0), N - b.cst(1));
    b.loop("j", b.cst(0), N - b.cst(1));
    b.assign(b.ref(1, {b.var(0)}),
             ir::Expr::binary(
                 '+',
                 ir::Expr::arrayRead(
                     b.ref(0, {b.var(1).scaled(Rational(2))})),
                 ir::Expr::arrayRead(
                     b.ref(1, {N - b.cst(1) - b.var(1)}))));
    for (bool identity : {false, true}) {
        CompileOptions opts;
        opts.identityTransform = identity;
        Compilation c = core::compile(b.build(), opts);
        Workload w{"strided", std::move(c), {{24}, {}}};
        for (Int procs : {2, 4, 6, 7, 32}) {
            for (bool blocks : {false, true}) {
                SimStats naive = runWith(w, procs, 1, false, blocks);
                SimStats fast = runWith(w, procs, 1, true, blocks);
                expectIdentical(naive, fast, w.name);
            }
        }
    }
}

TEST(SimParallel, ValueExecutionStaysSerialAndCorrect)
{
    // executeValues forces the serial path regardless of hostThreads;
    // results must still match a sequential interpreter run.
    Compilation c = core::compile(ir::gallery::gemm());
    Int n = 6;
    ir::Bindings binds{{n}, {}};
    ir::ArrayStorage seq(c.program, {n});
    seq.fillDeterministic(7);
    ir::run(c.program, binds, seq);

    SimOptions opts;
    opts.processors = 4;
    opts.executeValues = true;
    opts.hostThreads = 8;
    ir::ArrayStorage par(c.program, {n});
    par.fillDeterministic(7);
    Simulator sim(c.program, c.nest(), c.plan, opts);
    sim.run(binds, &par);
    EXPECT_EQ(seq.data(0), par.data(0));
}

TEST(SimParallel, NonParallelOuterLoopIdenticalAcrossThreads)
{
    // An outer-carried dependence forces the serial path; hostThreads
    // must not change anything, including the sync counters.
    ir::ProgramBuilder b(2);
    b.array("A", {b.cst(24), b.cst(24)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(1), b.cst(23));
    b.loop("j", b.cst(0), b.cst(23));
    b.assign(b.ref(0, {b.var(0), b.var(1)}),
             ir::Expr::binary(
                 '+',
                 ir::Expr::arrayRead(
                     b.ref(0, {b.var(0) - b.cst(1), b.var(1)})),
                 ir::Expr::number_(1.0)));
    Compilation c = core::compile(b.build());
    ASSERT_FALSE(c.plan.outerParallel);
    Workload w{"carried", std::move(c), {{}, {}}};
    SimStats serial = runWith(w, 6, 1, false, true);
    SimStats threaded = runWith(w, 6, 8, true, true);
    expectIdentical(serial, threaded, w.name);
    uint64_t syncs = 0;
    for (const ProcStats &ps : serial.perProc)
        syncs += ps.syncs;
    EXPECT_GT(syncs, 0u);
}

TEST(SimParallel, OwnershipBaselineDeterministic)
{
    // simulateOwnership shares the compiled-subscript helper; its
    // results must be stable run to run.
    ir::Program p = ir::gallery::gemm();
    SimOptions opts;
    opts.processors = 5;
    SimStats a = simulateOwnership(p, opts, {{9}, {}});
    SimStats b = simulateOwnership(p, opts, {{9}, {}});
    expectIdentical(a, b, "ownership");
}

} // namespace
} // namespace anc::numa
