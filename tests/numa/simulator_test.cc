/**
 * @file
 * Unit and property tests for the NUMA SPMD simulator.
 */

#include <limits>

#include <gtest/gtest.h>

#include "codegen/planner.h"
#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "numa/simulator.h"

namespace anc::numa {
namespace {

using core::Compilation;
using core::CompileOptions;

Compilation
compileGemm(bool identity = false)
{
    CompileOptions opts;
    opts.identityTransform = identity;
    return core::compile(ir::gallery::gemm(), opts);
}

TEST(SimBasics, SingleProcessorAllLocal)
{
    Compilation c = compileGemm();
    SimOptions opts;
    opts.processors = 1;
    SimStats s = core::simulate(c, opts, {{6}, {}});
    ASSERT_EQ(s.perProc.size(), 1u);
    EXPECT_EQ(s.totalRemoteAccesses(), 0u);
    EXPECT_EQ(s.totalBlockTransfers(), 0u);
    EXPECT_EQ(s.totalIterations(), 216u);
    // 4 accesses per iteration, all local.
    EXPECT_EQ(s.totalLocalAccesses(), 4u * 216u);
    EXPECT_GT(s.parallelTime(), 0.0);
}

TEST(SimBasics, SpeedupOfOneAtP1)
{
    Compilation c = compileGemm();
    double seq = core::sequentialTime(
        c, MachineParams::butterflyGP1000(), {6});
    SimOptions opts;
    opts.processors = 1;
    opts.blockTransfers = false;
    SimStats s = core::simulate(c, opts, {{6}, {}});
    EXPECT_NEAR(s.speedup(seq), 1.0, 1e-9);
}

TEST(SimPartition, DisjointCoverAllSchemes)
{
    // Across every scheme, the processors' iteration counts must sum to
    // the full space with no overlap.
    for (bool identity : {false, true}) {
        Compilation c = compileGemm(identity);
        for (Int p_count : {2, 3, 5, 8}) {
            SimOptions opts;
            opts.processors = p_count;
            SimStats s = core::simulate(c, opts, {{7}, {}});
            EXPECT_EQ(s.totalIterations(), 343u)
                << "P=" << p_count << " identity=" << identity;
        }
    }
}

TEST(SimPartition, OwnerAlignedMakesAlignedArrayLocal)
{
    // After normalization the outer loop is C's distribution subscript:
    // all C and B accesses are local for every processor count.
    Compilation c = compileGemm();
    ASSERT_EQ(c.plan.scheme, PartitionScheme::OwnerWrapped);
    SimOptions opts;
    opts.processors = 4;
    opts.blockTransfers = false;
    SimStats s = core::simulate(c, opts, {{8}, {}});
    // Remote accesses can only come from A[w, v]: owner(v) != p for
    // (1 - 1/P) of the (u, v) pairs; N^3 reads of A in total.
    uint64_t n3 = 8 * 8 * 8;
    EXPECT_EQ(s.totalRemoteAccesses(), n3 * 3 / 4);
    EXPECT_EQ(s.totalLocalAccesses(), 4 * n3 - n3 * 3 / 4);
}

TEST(SimPartition, UntransformedGemmIsMostlyRemote)
{
    Compilation c = compileGemm(/*identity=*/true);
    EXPECT_EQ(c.plan.scheme, PartitionScheme::RoundRobin);
    SimOptions opts;
    opts.processors = 4;
    opts.blockTransfers = false;
    SimStats s = core::simulate(c, opts, {{8}, {}});
    // C (x2) and B accesses are remote at rate (1 - 1/P); A[i, k] has
    // owner k mod P, also remote at (1 - 1/P).
    uint64_t n3 = 8 * 8 * 8;
    EXPECT_EQ(s.totalRemoteAccesses(), 4 * n3 * 3 / 4);
}

TEST(SimBlockTransfers, GemmBCountsMatchStructure)
{
    // One block transfer per (u, v) pair with remote column of A; each
    // moves N elements.
    Compilation c = compileGemm();
    SimOptions opts;
    opts.processors = 4;
    opts.blockTransfers = true;
    Int n = 8;
    SimStats s = core::simulate(c, opts, {{n}, {}});
    uint64_t remote_pairs = uint64_t(n) * uint64_t(n) * 3 / 4;
    EXPECT_EQ(s.totalBlockTransfers(), remote_pairs);
    EXPECT_EQ(uint64_t(s.totalBlockTransfers() * n),
              uint64_t(remote_pairs * n));
    EXPECT_EQ(s.totalRemoteAccesses(), 0u);
    // Block transfers must beat element-wise remote access here.
    opts.blockTransfers = false;
    SimStats t = core::simulate(c, opts, {{n}, {}});
    EXPECT_LT(s.parallelTime(), t.parallelTime());
}

TEST(SimValues, ParallelExecutionMatchesSequential)
{
    Compilation c = compileGemm();
    Int n = 6;
    ir::Bindings binds{{n}, {}};

    ir::ArrayStorage seq(c.program, {n});
    seq.fillDeterministic(13);
    ir::run(c.program, binds, seq);

    for (Int procs : {1, 2, 4, 7}) {
        SimOptions opts;
        opts.processors = procs;
        opts.executeValues = true;
        ir::ArrayStorage par(c.program, {n});
        par.fillDeterministic(13);
        Simulator sim(c.program, c.nest(), c.plan, opts);
        sim.run(binds, &par);
        EXPECT_EQ(seq.data(0), par.data(0)) << "P=" << procs;
    }
}

TEST(SimValues, Syr2kParallelExecutionMatchesSequential)
{
    Compilation c = core::compile(ir::gallery::syr2kBanded());
    IntVec params{9, 3};
    ir::Bindings binds{params, {1.5, 0.5}};

    ir::ArrayStorage seq(c.program, params);
    seq.fillDeterministic(29);
    ir::run(c.program, binds, seq);

    SimOptions opts;
    opts.processors = 4;
    opts.executeValues = true;
    ir::ArrayStorage par(c.program, params);
    par.fillDeterministic(29);
    Simulator sim(c.program, c.nest(), c.plan, opts);
    sim.run(binds, &par);
    EXPECT_EQ(seq.data(0), par.data(0));
}

TEST(SimFigure1, Section2RemoteAccessCounts)
{
    // Untransformed Figure 1(a) with the outer loop distributed:
    // accesses to B are non-local at rate (1 - 1/P) -- the paper's
    // N1*N2*b(1 - 1/P) count (per reference; we count read and write).
    CompileOptions opts;
    opts.identityTransform = true;
    Compilation c = core::compile(ir::gallery::figure1(), opts);
    Int n1 = 8, n2 = 6, b = 4, P = 4;
    SimOptions so;
    so.processors = P;
    so.blockTransfers = false;
    SimStats s = core::simulate(c, so, {{n1, n2, b}, {}});
    // B is read+written every iteration: 2*N1*N2*b accesses; those with
    // (j - i) mod P != p are remote. j - i sweeps 0..b-1 evenly => for
    // b = P = 4 exactly (1 - 1/P) remote.
    uint64_t b_total = 2ull * uint64_t(n1 * n2 * b);
    uint64_t b_remote_expected = b_total * 3 / 4;
    // A[i, j+k] is also remote ~ (1 - 1/P) of the time, but not exactly;
    // bound the total instead.
    EXPECT_GE(s.totalRemoteAccesses(), b_remote_expected);
    // After normalization, B accesses become entirely local.
    Compilation cn = core::compile(ir::gallery::figure1());
    SimStats sn = core::simulate(cn, so, {{n1, n2, b}, {}});
    uint64_t a_reads = uint64_t(n1 * n2 * b);
    EXPECT_LE(sn.totalRemoteAccesses(), a_reads);
    EXPECT_LT(sn.parallelTime(), s.parallelTime());
}

TEST(SimOwnership, GuardsChargedOnEveryIteration)
{
    ir::Program p = ir::gallery::gemm();
    SimOptions opts;
    opts.processors = 4;
    SimStats s = simulateOwnership(p, opts, {{6}, {}});
    ASSERT_EQ(s.perProc.size(), 4u);
    for (const ProcStats &ps : s.perProc)
        EXPECT_EQ(ps.guardChecks, 216u);
    // Work is distributed: iterations executed sum to the full space.
    EXPECT_EQ(s.totalIterations(), 216u);
}

TEST(SimOwnership, SlowerThanNormalizedCompilation)
{
    Compilation c = compileGemm();
    Int n = 8, P = 4;
    SimOptions opts;
    opts.processors = P;
    SimStats normalized = core::simulate(c, opts, {{n}, {}});
    SimStats ownership = simulateOwnership(c.program, opts, {{n}, {}});
    EXPECT_GT(ownership.parallelTime(), normalized.parallelTime());
}

TEST(SimContention, InflatesRemoteCosts)
{
    Compilation c = compileGemm(true);
    SimOptions opts;
    opts.processors = 8;
    opts.blockTransfers = false;
    SimStats base = core::simulate(c, opts, {{6}, {}});
    opts.machine.contentionFactor = 0.05;
    SimStats cont = core::simulate(c, opts, {{6}, {}});
    EXPECT_GT(cont.parallelTime(), base.parallelTime());
    EXPECT_EQ(cont.totalRemoteAccesses(), base.totalRemoteAccesses());
}

TEST(SimSync, OuterCarriedDependenceChargesSyncs)
{
    // A[i] = A[i-1] + 1: the only loop carries the dependence; the plan
    // must mark the outer loop non-parallel and the simulator charges
    // one sync per executed outer iteration.
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(32)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(1), b.cst(31));
    b.assign(b.ref(0, {b.var(0)}),
             ir::Expr::binary(
                 '+', ir::Expr::arrayRead(b.ref(0, {b.var(0) - b.cst(1)})),
                 ir::Expr::number_(1.0)));
    Compilation c = core::compile(b.build());
    EXPECT_FALSE(c.plan.outerParallel);
    SimOptions opts;
    opts.processors = 4;
    SimStats s = core::simulate(c, opts, {{}, {}});
    uint64_t syncs = 0;
    for (const ProcStats &ps : s.perProc)
        syncs += ps.syncs;
    EXPECT_EQ(syncs, 31u);
}

TEST(MachineTest, PresetsAndScaling)
{
    MachineParams gp = MachineParams::butterflyGP1000();
    EXPECT_DOUBLE_EQ(gp.localAccessTime, 0.6);
    EXPECT_DOUBLE_EQ(gp.remoteAccessTime, 6.6);
    EXPECT_DOUBLE_EQ(gp.blockStartupTime, 8.0);
    EXPECT_DOUBLE_EQ(gp.blockPerByteTime, 0.31);
    // 8 us + 100 doubles * 8 B * 0.31 us/B.
    EXPECT_NEAR(gp.blockTransferTime(100, 1), 8.0 + 800 * 0.31, 1e-9);
    EXPECT_DOUBLE_EQ(gp.remoteTime(16), 6.6);
    gp.contentionFactor = 0.1;
    EXPECT_NEAR(gp.remoteTime(16), 6.6 * 2.5, 1e-9);

    MachineParams ip = MachineParams::ipsc860();
    EXPECT_DOUBLE_EQ(ip.blockStartupTime, 70.0);
    // Breakeven for a 1-element message never happens on iPSC.
    EXPECT_GT(ip.blockTransferTime(1, 1), ip.remoteTime(1));
}

TEST(MachineTest, PresetsValidate)
{
    EXPECT_NO_THROW(MachineParams::butterflyGP1000().validate());
    EXPECT_NO_THROW(MachineParams::ipsc860().validate());
}

TEST(MachineTest, ValidateRejectsDegenerateCostModels)
{
    // A default-constructed machine has no cost model at all.
    EXPECT_THROW(MachineParams{}.validate(), UserError);

    MachineParams m = MachineParams::butterflyGP1000();
    m.localAccessTime = 0.0;
    EXPECT_THROW(m.validate(), UserError);
    m = MachineParams::butterflyGP1000();
    m.remoteAccessTime = -6.6;
    EXPECT_THROW(m.validate(), UserError);
    m = MachineParams::butterflyGP1000();
    m.blockPerByteTime =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(m.validate(), UserError);
    m = MachineParams::butterflyGP1000();
    m.syncTime = -1.0;
    EXPECT_THROW(m.validate(), UserError);
    m = MachineParams::butterflyGP1000();
    m.elementSize = 0;
    EXPECT_THROW(m.validate(), UserError);
    m = MachineParams::butterflyGP1000();
    m.retryBackoffTime = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(m.validate(), UserError);
}

TEST(MachineTest, SimulatorRejectsInvalidMachine)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    SimOptions opts;
    opts.processors = 4;
    opts.machine.flopTime = -1.0;
    EXPECT_THROW(Simulator(c.program, c.nest(), c.plan, opts), UserError);
    // The ownership baseline checks the cost model too.
    opts.machine = MachineParams::butterflyGP1000();
    opts.machine.elementSize = -8;
    EXPECT_THROW(simulateOwnership(c.program, opts, {{4}, {}}), UserError);
}

} // namespace
} // namespace anc::numa
