/**
 * @file
 * Edge cases for the NUMA simulator and statistics helpers.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "numa/simulator.h"

namespace anc::numa {
namespace {

TEST(SimEdge, MoreProcessorsThanIterations)
{
    // 4 outer iterations on 16 processors: 12 idle processors, the
    // work still covered exactly once.
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(4)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(0), b.cst(3));
    b.assign(b.ref(0, {b.var(0)}), ir::Expr::number_(1.0));
    core::Compilation c = core::compile(b.build());
    SimOptions opts;
    opts.processors = 16;
    SimStats s = core::simulate(c, opts, {{}, {}});
    EXPECT_EQ(s.totalIterations(), 4u);
    size_t idle = 0;
    for (const ProcStats &p : s.perProc)
        if (p.iterations == 0)
            ++idle;
    EXPECT_EQ(idle, 12u);
}

TEST(SimEdge, OwnerWrappedProcessorWithNoCongruentIteration)
{
    // Stride-2 lattice outer loop with wrapped ownership: on an even
    // processor count some processors own only odd columns and can be
    // left without iterations; the CRT combination must handle it.
    ir::Program p = ir::gallery::scalingExample(); // A replicated
    p.arrays[0].dist = ir::DistributionSpec::wrapped(0);
    core::Compilation c = core::compile(p);
    ASSERT_EQ(c.plan.scheme, PartitionScheme::OwnerWrapped);
    SimOptions opts;
    opts.processors = 2;
    SimStats s = core::simulate(c, opts, {{}, {}});
    // Outer values are u = 2, 4, 6 (all even): processor 1 idles.
    EXPECT_EQ(s.totalIterations(), 3u);
    EXPECT_EQ(s.perProc[0].iterations, 3u);
    EXPECT_EQ(s.perProc[1].iterations, 0u);
}

TEST(SimEdge, ZeroProcessorOptionRejected)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    SimOptions opts;
    opts.processors = 0;
    EXPECT_THROW(
        Simulator(c.program, c.nest(), c.plan, opts), UserError);
}

TEST(SimEdge, WrongParameterArityRejected)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    SimOptions opts;
    opts.processors = 2;
    EXPECT_THROW(core::simulate(c, opts, {{4, 5}, {}}), UserError);
}

TEST(SimEdge, IpscMachineRuns)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    SimOptions opts;
    opts.processors = 8;
    opts.machine = MachineParams::ipsc860();
    SimStats with_blocks = core::simulate(c, opts, {{16}, {}});
    opts.blockTransfers = false;
    SimStats without = core::simulate(c, opts, {{16}, {}});
    // On a message-passing machine, element-wise remote access is
    // catastrophic; block transfers must win by a wide margin.
    EXPECT_LT(with_blocks.parallelTime() * 4, without.parallelTime());
}

TEST(StatsEdge, SummarizeAndImbalance)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    SimOptions opts;
    opts.processors = 3;
    SimStats s = core::simulate(c, opts, {{9}, {}});
    std::string sum = summarize(s);
    EXPECT_NE(sum.find("P = 3"), std::string::npos);
    EXPECT_NE(sum.find("iterations"), std::string::npos);
    // 9 columns over 3 processors: perfectly balanced.
    EXPECT_NEAR(s.imbalance(), 1.0, 0.05);

    // Unbalanced: 4 outer iterations on 3 processors.
    SimStats s2 = core::simulate(c, opts, {{4}, {}});
    EXPECT_GT(s2.imbalance(), 1.2);
    EXPECT_EQ(SimStats{}.imbalance(), 1.0);
}

TEST(StatsEdge, RemoteByArrayLazyAllocation)
{
    ProcStats p;
    EXPECT_TRUE(p.remoteByArray.empty());
    p.noteRemote(2, 4);
    ASSERT_EQ(p.remoteByArray.size(), 4u);
    EXPECT_EQ(p.remoteByArray[2], 1u);
    EXPECT_EQ(p.remoteAccesses, 1u);
    p.noteRemote(2, 4);
    EXPECT_EQ(p.remoteByArray[2], 2u);
}

TEST(StatsEdge, RemoteByArrayPastTheInlineCounters)
{
    // More arrays than ArrayCounters keeps in place: the counters move to
    // the heap, and copies and moves keep every value.
    const size_t arrays = ArrayCounters::kInline + 2;
    ProcStats p;
    p.noteRemote(arrays - 1, arrays);
    p.noteRemote(0, arrays);
    ASSERT_EQ(p.remoteByArray.size(), arrays);
    ProcStats copy = p;
    EXPECT_EQ(copy.remoteByArray, p.remoteByArray);
    EXPECT_EQ(copy.remoteByArray[arrays - 1], 1u);
    ProcStats moved = std::move(copy);
    EXPECT_EQ(moved.remoteByArray, p.remoteByArray);
    EXPECT_TRUE(copy.remoteByArray.empty());
    // Back in place: a program of fewer arrays.
    const uint64_t few[] = {3, 0, 7};
    moved.remoteByArray.assign(few, few + 3);
    EXPECT_EQ(moved.remoteByArray.size(), 3u);
    EXPECT_EQ(moved.remoteByArray[2], 7u);
    EXPECT_FALSE(moved.remoteByArray == p.remoteByArray);
    moved = p;
    EXPECT_EQ(moved.remoteByArray, p.remoteByArray);
}

TEST(SimEdge, ReplicatedEverythingNeverRemote)
{
    ir::Program p = ir::gallery::gemm();
    for (ir::ArrayDecl &a : p.arrays)
        a.dist = ir::DistributionSpec::replicated();
    core::Compilation c = core::compile(p);
    SimOptions opts;
    opts.processors = 8;
    SimStats s = core::simulate(c, opts, {{12}, {}});
    EXPECT_EQ(s.totalRemoteAccesses(), 0u);
    EXPECT_EQ(s.totalBlockTransfers(), 0u);
    EXPECT_EQ(s.totalIterations(), 12u * 12u * 12u);
}

TEST(SimEdge, OwnershipWithReplicatedLhs)
{
    // Replicated left-hand side: by convention processor 0 executes.
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(8)});
    b.loop("i", b.cst(0), b.cst(7));
    b.assign(b.ref(0, {b.var(0)}), ir::Expr::number_(1.0));
    SimOptions opts;
    opts.processors = 4;
    SimStats s = simulateOwnership(b.build(), opts, {{}, {}});
    EXPECT_EQ(s.perProc[0].iterations, 8u);
    EXPECT_EQ(s.perProc[1].iterations, 0u);
    for (const ProcStats &ps : s.perProc)
        EXPECT_EQ(ps.guardChecks, 8u);
}

TEST(SimEdge, OwnershipWithMoreProcessorsThanIterations)
{
    // 3 wrapped elements on 8 processors: processors 3..7 own nothing,
    // yet every processor still scans (and pays the guard for) the
    // whole iteration space.
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(3)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(0), b.cst(2));
    b.assign(b.ref(0, {b.var(0)}), ir::Expr::number_(1.0));
    SimOptions opts;
    opts.processors = 8;
    SimStats s = simulateOwnership(b.build(), opts, {{}, {}});
    EXPECT_EQ(s.totalIterations(), 3u);
    for (const ProcStats &ps : s.perProc) {
        EXPECT_EQ(ps.iterations, ps.proc < 3 ? 1u : 0u);
        EXPECT_EQ(ps.guardChecks, 3u);
        EXPECT_GT(ps.time, 0.0); // idle processors still paid the scan
    }
}

TEST(SimEdge, OwnershipZeroTripNest)
{
    // An empty iteration space: no iterations, no guards, zero time.
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(4)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(3), b.cst(1)); // lo > hi
    b.assign(b.ref(0, {b.var(0)}), ir::Expr::number_(1.0));
    SimOptions opts;
    opts.processors = 4;
    SimStats s = simulateOwnership(b.build(), opts, {{}, {}});
    EXPECT_EQ(s.totalIterations(), 0u);
    for (const ProcStats &ps : s.perProc) {
        EXPECT_EQ(ps.guardChecks, 0u);
        EXPECT_EQ(ps.time, 0.0);
    }
}

TEST(SimEdge, OwnershipRemoteByArrayBreakdown)
{
    // A owned wrapped, B deliberately misaligned (shifted by one): all
    // B reads are remote for P > 1, and the per-array breakdown must
    // attribute every remote access to B.
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(8)}, ir::DistributionSpec::wrapped(0));
    b.array("B", {b.cst(9)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(0), b.cst(7));
    b.assign(b.ref(0, {b.var(0)}),
             ir::Expr::arrayRead(b.ref(1, {b.var(0) + b.cst(1)})));
    SimOptions opts;
    opts.processors = 4;
    SimStats s = simulateOwnership(b.build(), opts, {{}, {}});
    EXPECT_EQ(s.remoteAccessesTo(1), 8u); // every B read
    EXPECT_EQ(s.remoteAccessesTo(0), 0u); // A writes are owner-local
    EXPECT_EQ(s.totalRemoteAccesses(),
              s.remoteAccessesTo(0) + s.remoteAccessesTo(1));
    uint64_t by_array = 0;
    for (const ProcStats &ps : s.perProc)
        for (uint64_t n : ps.remoteByArray)
            by_array += n;
    EXPECT_EQ(by_array, s.totalRemoteAccesses());
}

TEST(PlanValidation, OwnerSchemeRequiresAlignedArray)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    ASSERT_NE(c.plan.scheme, PartitionScheme::RoundRobin);
    SimOptions opts;
    ExecutionPlan bad = c.plan;
    bad.alignedArray.reset();
    EXPECT_THROW(Simulator(c.program, c.nest(), bad, opts), UserError);
    bad = c.plan;
    bad.alignedArray = 99;
    EXPECT_THROW(Simulator(c.program, c.nest(), bad, opts), UserError);
}

TEST(PlanValidation, HoistBoundsChecked)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    SimOptions opts;
    ExecutionPlan bad = c.plan;
    bad.hoists.push_back({99, 0, 0});
    EXPECT_THROW(Simulator(c.program, c.nest(), bad, opts), UserError);
    bad = c.plan;
    bad.hoists.push_back({0, 99, 0});
    EXPECT_THROW(Simulator(c.program, c.nest(), bad, opts), UserError);
    bad = c.plan;
    bad.hoists.push_back({0, 0, 99});
    EXPECT_THROW(Simulator(c.program, c.nest(), bad, opts), UserError);
    bad = c.plan;
    bad.hoists.push_back({0, 0, -5});
    EXPECT_THROW(Simulator(c.program, c.nest(), bad, opts), UserError);
    // The compiler's own plan still constructs.
    EXPECT_NO_THROW(Simulator(c.program, c.nest(), c.plan, opts));
}

TEST(PlanValidation, DegradedCompilationSimulates)
{
    // An identity-tier result (the bottom of the degradation ladder)
    // must pass plan validation and simulate end to end.
    core::ResilientOptions ropts;
    ropts.base.identityTransform = true;
    core::Compilation c =
        core::compileResilient(ir::gallery::gemm(), ropts);
    EXPECT_EQ(c.tier, core::CompileTier::Identity);
    SimOptions opts;
    opts.processors = 4;
    SimStats s = core::simulate(c, opts, {{8}, {}});
    EXPECT_EQ(s.totalIterations(), 8u * 8u * 8u);
}

} // namespace
} // namespace anc::numa
