/**
 * @file
 * Symmetry-class aggregation tests (see numa/symmetry.h).
 *
 * The contract under test is exactness: an aggregated run, once
 * materialized back to per-processor form, must be *bit-identical* to
 * direct simulation -- every counter equal and every simulated clock
 * equal to the last bit -- for every kernel, partition scheme,
 * execution strategy, fault spec and host-thread count. Plus the
 * satellite guarantees: checked totals that refuse to wrap at
 * planetary P, option validation with actionable messages, the
 * materialization byte budget, and the cache-line layout of the
 * hot-path accumulator.
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
expectIdentical(const SimStats &a, const SimStats &b, const std::string &what)
{
    ASSERT_EQ(a.perProc.size(), b.perProc.size()) << what;
    EXPECT_EQ(a.processors, b.processors) << what;
    for (size_t i = 0; i < a.perProc.size(); ++i) {
        const ProcStats &x = a.perProc[i];
        const ProcStats &y = b.perProc[i];
        SCOPED_TRACE(what + " proc " + std::to_string(x.proc));
        EXPECT_EQ(x.proc, y.proc);
        EXPECT_EQ(x.iterations, y.iterations);
        EXPECT_EQ(x.flops, y.flops);
        EXPECT_EQ(x.localAccesses, y.localAccesses);
        EXPECT_EQ(x.remoteAccesses, y.remoteAccesses);
        EXPECT_EQ(x.blockTransfers, y.blockTransfers);
        EXPECT_EQ(x.blockElements, y.blockElements);
        EXPECT_EQ(x.guardChecks, y.guardChecks);
        EXPECT_EQ(x.syncs, y.syncs);
        EXPECT_EQ(x.transferRetries, y.transferRetries);
        EXPECT_EQ(x.transferRefetches, y.transferRefetches);
        EXPECT_EQ(x.remoteRetries, y.remoteRetries);
        EXPECT_EQ(x.recoveryElements, y.recoveryElements);
        EXPECT_EQ(x.backoffUnits, y.backoffUnits);
        EXPECT_EQ(x.abandonedTransfers, y.abandonedTransfers);
        EXPECT_EQ(x.reassignedSlices, y.reassignedSlices);
        EXPECT_EQ(x.restarts, y.restarts);
        EXPECT_EQ(x.killed, y.killed);
        EXPECT_EQ(x.remoteByArray, y.remoteByArray);
        EXPECT_EQ(x.localByRef, y.localByRef);
        EXPECT_EQ(x.remoteByRef, y.remoteByRef);
        EXPECT_EQ(x.blockElementsByRef, y.blockElementsByRef);
        // Bit-identical, not approximately equal: the simulated clock
        // is a pure function of the counters.
        EXPECT_EQ(x.time, y.time);
    }
}

struct Workload
{
    std::string name;
    Compilation comp;
    ir::Bindings binds;
};

/** The eight bench kernels: every partition scheme the planner emits,
 * plus the identity-transform ("plain") variants whose outer loop is
 * not the distribution subscript. */
std::vector<Workload>
gallery()
{
    CompileOptions identity;
    identity.identityTransform = true;
    std::vector<Workload> w;
    w.push_back({"gemm", core::compile(ir::gallery::gemm()), {{13}, {}}});
    w.push_back({"gemm_plain", core::compile(ir::gallery::gemm(), identity),
                 {{13}, {}}});
    w.push_back({"syr2k", core::compile(ir::gallery::syr2kBanded()),
                 {{17, 5}, {1.5, 0.5}}});
    w.push_back({"syr2k_plain",
                 core::compile(ir::gallery::syr2kBanded(), identity),
                 {{17, 5}, {1.5, 0.5}}});
    w.push_back({"figure1", core::compile(ir::gallery::figure1()),
                 {{9, 7, 4}, {}}});
    w.push_back({"gemv", core::compile(ir::gallery::gemv()), {{15}, {}}});
    w.push_back({"ger", core::compile(ir::gallery::ger()), {{15}, {}}});
    w.push_back({"jacobi2d", core::compile(ir::gallery::jacobi2d()),
                 {{12}, {}}});
    return w;
}

SimStats
runWith(const Workload &w, Int p, SymmetryMode mode, Int host_threads = 1,
        bool fast_inner = true, const char *fault_spec = nullptr,
        bool per_ref = false)
{
    SimOptions opts;
    opts.processors = p;
    opts.hostThreads = host_threads;
    opts.fastInner = fast_inner;
    opts.symmetry = mode;
    opts.perReference = per_ref;
    if (fault_spec)
        opts.faults = parseFaultSpec(fault_spec);
    return core::simulate(w.comp, opts, w.binds);
}

/** Aggregate (Force), materialize, compare against direct (Off). */
void
expectAggregationExact(const Workload &w, Int p, Int host_threads = 1,
                       bool fast_inner = true,
                       const char *fault_spec = nullptr,
                       bool per_ref = false)
{
    SimStats direct =
        runWith(w, p, SymmetryMode::Off, host_threads, fast_inner,
                fault_spec, per_ref);
    SimStats agg =
        runWith(w, p, SymmetryMode::Force, host_threads, fast_inner,
                fault_spec, per_ref);
    std::string what = w.name + " P=" + std::to_string(p) +
                       (fault_spec ? std::string(" faults=") + fault_spec
                                   : "") +
                       " threads=" + std::to_string(host_threads) +
                       (fast_inner ? "" : " naive");
    // Totals must agree before materialization too.
    EXPECT_EQ(agg.totalIterations(), direct.totalIterations()) << what;
    EXPECT_EQ(agg.totalRemoteAccesses(), direct.totalRemoteAccesses())
        << what;
    EXPECT_EQ(agg.totalSyncs(), direct.totalSyncs()) << what;
    EXPECT_EQ(agg.parallelTime(), direct.parallelTime()) << what;
    agg.materializePerProc();
    expectIdentical(agg, direct, what);
}

TEST(Symmetry, BitIdenticalForEveryProcessorCount)
{
    for (const Workload &w : gallery())
        for (Int p = 1; p <= 64; ++p)
            expectAggregationExact(w, p);
}

TEST(Symmetry, BitIdenticalUnderFaults)
{
    const char *specs[] = {
        "drop-transfer@3",
        "corrupt-transfer/8",
        "remote-fail@12",
        "kill:2@0",
        "drop-transfer/8,corrupt-transfer@2,remote-fail/5,kill:2@7,x3",
    };
    for (const Workload &w : gallery())
        for (Int p : {1, 2, 3, 5, 8, 13, 32, 64})
            for (const char *spec : specs)
                expectAggregationExact(w, p, 1, true, spec);
}

TEST(Symmetry, BitIdenticalAcrossHostThreadsAndNaiveWalk)
{
    for (const Workload &w : gallery())
        for (Int p : {7, 32})
            for (Int threads : {1, 4})
                for (bool fast : {true, false})
                    expectAggregationExact(w, p, threads, fast);
}

TEST(Symmetry, BitIdenticalWithPerReferenceCounters)
{
    for (const Workload &w : gallery())
        for (Int p : {5, 32})
            expectAggregationExact(w, p, 1, true, nullptr, true);
}

TEST(Symmetry, OwnershipBaselineAggregatesExactly)
{
    for (Int p : {1, 3, 8, 17, 40, 64}) {
        SimOptions off;
        off.processors = p;
        off.symmetry = SymmetryMode::Off;
        SimOptions force = off;
        force.symmetry = SymmetryMode::Force;
        ir::Program prog = ir::gallery::gemm();
        SimStats direct = simulateOwnership(prog, off, {{9}, {}});
        SimStats agg = simulateOwnership(prog, force, {{9}, {}});
        ASSERT_TRUE(agg.aggregated);
        agg.materializePerProc();
        expectIdentical(agg, direct,
                        "ownership P=" + std::to_string(p));
    }
}

TEST(Symmetry, AutoAggregatesOnlyAboveThreshold)
{
    Workload w{"gemm", core::compile(ir::gallery::gemm()), {{13}, {}}};
    SimStats small = runWith(w, 64, SymmetryMode::Auto);
    EXPECT_FALSE(small.aggregated); // at the threshold, not above
    SimStats big = runWith(w, 65, SymmetryMode::Auto);
    EXPECT_TRUE(big.aggregated);
    EXPECT_TRUE(small.classes.empty());
    EXPECT_FALSE(big.classes.empty());
}

TEST(Symmetry, MillionProcessorsStaysSmall)
{
    Workload w{"gemm", core::compile(ir::gallery::gemm()), {{140}, {}}};
    const Int P = Int(1) << 20;
    SimStats s = runWith(w, P, SymmetryMode::Auto);
    ASSERT_TRUE(s.aggregated);
    // One class per non-empty processor plus the empty rest: the class
    // count scales with the outer trip count, never with P.
    EXPECT_LE(s.classes.size(), size_t(141));
    EXPECT_EQ(s.processors, P);
    uint64_t mult = 0;
    for (const ProcClass &c : s.classes)
        mult += c.multiplicity;
    EXPECT_EQ(mult, uint64_t(P));
    // Totals equal the work of the whole machine: same iterations as a
    // tiny direct run of the same problem (work depends on N, not P).
    SimStats direct = runWith(w, 4, SymmetryMode::Off);
    EXPECT_EQ(s.totalIterations(), direct.totalIterations());
    EXPECT_GT(s.parallelTime(), 0.0);
    // Materializing a million ProcStats blows the default budget; the
    // class table is the supported interface at this scale.
    EXPECT_THROW(s.materializePerProc(uint64_t(16) << 20), UserError);
}

TEST(Symmetry, AggregateTotalsThrowOnUint64Overflow)
{
    SimStats s;
    s.processors = Int(1) << 20;
    s.aggregated = true;
    ProcClass c;
    // Adversarial machine: a representative whose counter is already
    // near 2^64 replicated a million times must refuse to wrap.
    c.rep.remoteAccesses = uint64_t(1) << 50;
    c.multiplicity = uint64_t(1) << 20;
    s.classes.push_back(c);
    EXPECT_THROW(s.totalRemoteAccesses(), UserError);
    try {
        s.totalRemoteAccesses();
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("overflow"),
                  std::string::npos);
    }
    // Sane counters do not throw: 2^40 * 2^20 = 2^60 fits.
    s.classes[0].rep.remoteAccesses = uint64_t(1) << 40;
    EXPECT_EQ(s.totalRemoteAccesses(), uint64_t(1) << 60);
}

TEST(Symmetry, ProcAccumIsOneCacheLine)
{
    // The false-sharing fix depends on the hot accumulator being
    // exactly one aligned cache line on the simulating thread's stack.
    static_assert(sizeof(ProcAccum) == 64);
    static_assert(alignof(ProcAccum) == 64);
    ProcAccum a;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&a) % 64, 0u);
    ProcStats ps;
    a.iterations = 3;
    a.syncs = 2;
    a.flushInto(ps);
    EXPECT_EQ(ps.iterations, 3u);
    EXPECT_EQ(ps.syncs, 2u);
    EXPECT_EQ(a.iterations, 0u); // flush resets
    a.flushInto(ps);             // double flush must not double count
    EXPECT_EQ(ps.iterations, 3u);
}

TEST(Symmetry, SimOptionsValidateRejectsDegenerateConfigs)
{
    SimOptions o;
    o.processors = 0;
    EXPECT_THROW(o.validate(), UserError);
    o.processors = -4;
    EXPECT_THROW(o.validate(), UserError);
    o.processors = Int(1) << 41; // past the slice-arithmetic bound
    EXPECT_THROW(o.validate(), UserError);
    o = SimOptions{};
    o.hostThreads = -1;
    EXPECT_THROW(o.validate(), UserError);
    o = SimOptions{};
    o.symmetryThreshold = -1;
    EXPECT_THROW(o.validate(), UserError);
    o = SimOptions{};
    o.maxSymmetryClasses = 0;
    EXPECT_THROW(o.validate(), UserError);
    // The simulator constructor enforces the same contract.
    o = SimOptions{};
    o.processors = 0;
    ir::Program prog = ir::gallery::gemm();
    Compilation c = core::compile(prog);
    EXPECT_THROW(core::simulate(c, o, {{9}, {}}), UserError);
}

TEST(Symmetry, MaterializeBudgetMessageIsActionable)
{
    SimStats s;
    s.processors = Int(1) << 20;
    s.aggregated = true;
    ProcClass c;
    c.multiplicity = uint64_t(1) << 20;
    c.isDefault = true;
    s.classes.push_back(c);
    try {
        s.materializePerProc(uint64_t(1) << 20); // 1 MiB budget
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("budget"), std::string::npos) << msg;
        EXPECT_NE(msg.find("classes"), std::string::npos) << msg;
    }
    // Under a generous budget the same stats materialize fine.
    s.materializePerProc(uint64_t(512) << 20);
    EXPECT_EQ(s.perProc.size(), size_t(Int(1) << 20));
    EXPECT_FALSE(s.aggregated);
}

} // namespace
} // namespace anc::numa
