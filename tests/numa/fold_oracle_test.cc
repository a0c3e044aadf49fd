/**
 * @file
 * Oracle for the simulator's closed-form middle runs and stretch
 * charging (both part of SimOptions::fastInner): a run whose middle
 * runs are charged in closed form must equal, bit for bit, the naive
 * walk over a grid of gallery kernels, every distinct search-candidate
 * nest, hand-built nests with empty pieces and one-iteration runs,
 * sizes, processor counts and both transfer models; runs the closed
 * form must decline, which walk every position, must still match; and
 * the closed form must really engage, on every configuration the
 * periodic fold it replaced engaged on (fold_engaged_configs.txt) and
 * on the non-rectangular kernels the fold never covered. Slices charged
 * by stretches must equal both the per-position walk and the naive one
 * (oracle::simWalkDifferential): whole, as one stretch, on the paper's
 * GEMM curves; cut where the pieces change on banded SYR2K, with as many
 * positions walked at N = 400 as at N = 4000, and on random banded
 * nests; and walked wherever the counters need not be polynomial in
 * the position.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "codegen/planner.h"
#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "numa/simulator.h"
#include "sim_oracle.h"
#include "sim_walk_oracle.h"
#include "xform/search.h"

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

/** Run the nest under opts with the fast walk (closed-form middle runs
 * where it can) and the naive walk, and expect both identical. Returns
 * the fast run. */
SimStats
expectMatch(const ir::Program &prog, const xform::TransformedNest &nest,
            const ExecutionPlan &plan, SimOptions opts,
            const ir::Bindings &binds, const std::string &what)
{
    opts.fastInner = true;
    SimStats fast = Simulator(prog, nest, plan, opts).run(binds);
    opts.fastInner = false;
    SimStats naive = Simulator(prog, nest, plan, opts).run(binds);
    EXPECT_EQ(testutil::statsDiff(fast, naive), "") << what;
    return fast;
}

SimStats
expectFoldMatches(const core::Compilation &c, SimOptions opts,
                  const ir::Bindings &binds, const std::string &what)
{
    return expectMatch(c.program, c.nest(), c.plan, opts, binds, what);
}

/** Whether processor p's own slice charges at least one middle run in
 * closed form. */
bool
closedOf(const core::Compilation &c, const SimOptions &opts,
         const ir::Bindings &binds, Int p = 0)
{
    return Simulator(c.program, c.nest(), c.plan, opts)
               .sliceTally(binds, p)
               .closedRuns > 0;
}

/** The configurations of GalleryGridMatchesNaiveWalk on which the
 * periodic middle-loop fold engaged (Simulator::foldPeriod > 0 for
 * processor 0), recorded before the closed form replaced it. */
std::set<std::string>
foldEngagedConfigs()
{
    std::ifstream in(ANC_SOURCE_DIR "/tests/numa/fold_engaged_configs.txt");
    std::set<std::string> out;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#')
            out.insert(line);
    return out;
}

TEST(FoldOracle, GalleryGridMatchesNaiveWalk)
{
    // 11 kernels x {identity, normalized} x 3 sizes x 10 processor
    // counts x {block transfers, element-wise} = 1320 configurations.
    const std::set<std::string> folded = foldEngagedConfigs();
    ASSERT_EQ(folded.size(), 500u);
    const Int sizes[] = {7, 24, 61};
    const Int procs[] = {1, 2, 3, 4, 5, 6, 8, 12, 13, 32};
    size_t configs = 0, closed = 0, folded_seen = 0;
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
                            " " + std::to_string(n) + " " +
                            std::to_string(p) + (blocks ? " B" : " T");
                        expectFoldMatches(c, opts, binds, what);
                        bool engaged = closedOf(c, opts, binds);
                        closed += engaged;
                        if (folded.count(what)) {
                            ++folded_seen;
                            EXPECT_TRUE(engaged) << what;
                        }
                        ++configs;
                    }
                }
            }
        }
    }
    EXPECT_EQ(configs, 1320u);
    EXPECT_EQ(folded_seen, folded.size());
    EXPECT_GT(closed, folded.size());
}

TEST(FoldOracle, FoldEngagesForGemmGerGemvAtSmallP)
{
    // Rectangular nests: every middle run is one piece, whatever the
    // owners do along it.
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
                EXPECT_TRUE(closedOf(c, opts, binds))
                    << k.name << (identity ? " identity" : " normalized")
                    << " P=" << p;
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
        EXPECT_FALSE(closedOf(c, opts, binds)) << "P=" << p;
        expectFoldMatches(c, opts, binds, "blocked P=" + std::to_string(p));
    }
}

TEST(FoldOracle, SteppedReferenceOfFixedGeometryChargesInClosedForm)
{
    // B[k, j] blocked on k: its owner moves along the inner run but
    // ignores the middle variable, and GEMM's inner runs all look alike.
    ir::Program prog = ir::gallery::gemm();
    prog.arrays[2].dist = ir::DistributionSpec::blocked(0);
    for (bool identity : {true, false}) {
        core::CompileOptions co;
        co.identityTransform = identity;
        core::Compilation c = core::compile(prog, co);
        ir::Bindings binds = bindingFor(prog, 24);
        for (Int p : {2, 3, 4, 7}) {
            for (bool blocks : {true, false}) {
                SimOptions opts;
                opts.processors = p;
                opts.blockTransfers = blocks;
                std::string what =
                    std::string(identity ? "identity" : "normalized") +
                    " P=" + std::to_string(p);
                // The normalized nest moves k off the inner level.
                if (identity) {
                    EXPECT_TRUE(closedOf(c, opts, binds)) << what;
                }
                expectFoldMatches(c, opts, binds, what);
            }
        }
    }
}

TEST(FoldOracle, BandedSyr2kChargesInClosedForm)
{
    // Its inner bounds move with the middle variable: several pieces
    // per middle run, each with its own affine start and trip count.
    for (bool identity : {true, false}) {
        core::CompileOptions co;
        co.identityTransform = identity;
        core::Compilation c = core::compile(ir::gallery::syr2kBanded(), co);
        for (const ir::Bindings &binds :
             {ir::Bindings{{40, 9}, {1.5, 0.5}},
              ir::Bindings{{23, 30}, {1.5, 0.5}}}) {
            for (Int p : {1, 3, 4, 13}) {
                for (bool blocks : {true, false}) {
                    SimOptions opts;
                    opts.processors = p;
                    opts.blockTransfers = blocks;
                    std::string what =
                        std::string(identity ? "identity" : "normalized") +
                        " N=" + std::to_string(binds.paramValues[0]) +
                        " P=" + std::to_string(p);
                    EXPECT_TRUE(closedOf(c, opts, binds)) << what;
                    expectFoldMatches(c, opts, binds, what);
                }
            }
        }
    }
}

TEST(FoldOracle, Figure1AndSection5ChargeInClosedForm)
{
    // section5's normalized middle runs are shorter than its six inner
    // bound forms, so they are walked; they must still match.
    for (const Kernel &k : galleryKernels()) {
        if (k.name != "figure1" && k.name != "section5")
            continue;
        for (bool identity : {true, false}) {
            core::CompileOptions co;
            co.identityTransform = identity;
            core::Compilation c = core::compile(k.prog, co);
            for (Int n : {7, 24}) {
                ir::Bindings binds = bindingFor(k.prog, n);
                for (Int p : {1, 3, 4}) {
                    SimOptions opts;
                    opts.processors = p;
                    std::string what =
                        k.name + (identity ? " identity" : " normalized") +
                        " N=" + std::to_string(n) + " P=" + std::to_string(p);
                    if (k.name == "figure1" || identity) {
                        EXPECT_TRUE(closedOf(c, opts, binds)) << what;
                    }
                    expectFoldMatches(c, opts, binds, what);
                }
            }
        }
    }
}

TEST(FoldOracle, ObservedAndFaultyRunsDoNotFoldAndStillMatch)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    ir::Bindings binds = bindingFor(c.program, 24);
    SimOptions base;
    base.processors = 4;
    ASSERT_TRUE(closedOf(c, base, binds));

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
        EXPECT_FALSE(closedOf(c, opts, binds)) << name;
        for (bool blocks : {true, false}) {
            SimOptions o = opts;
            o.blockTransfers = blocks;
            expectFoldMatches(c, o, binds, name);
        }
    }
}

TEST(FoldOracle, FailStopKillWithSliceAdoptionFolds)
{
    // ger is two deep, so the adopted positions (every survivors-th of
    // the victim's slice) are themselves one closed-form middle run.
    for (const char *kernel : {"gemm", "ger", "syr2k"}) {
        std::string name = kernel;
        ir::Program prog = name == "gemm"  ? ir::gallery::gemm()
                           : name == "ger" ? ir::gallery::ger()
                                           : ir::gallery::syr2kBanded();
        core::Compilation c = core::compile(prog);
        ir::Bindings binds = bindingFor(prog, 30);
        if (name == "syr2k")
            binds = {{30, 7}, {1.5, 0.5}};
        for (Int procs : {3, 4}) {
            SimOptions opts;
            opts.processors = procs;
            opts.faults.killProc = 1;
            opts.faults.killAfterSlices = 2;
            ASSERT_TRUE(closedOf(c, opts, binds)) << kernel;
            SimStats s = expectFoldMatches(c, opts, binds, kernel);
            uint64_t adopted = 0;
            for (const ProcStats &ps : s.perProc)
                adopted += ps.reassignedSlices;
            EXPECT_GT(adopted, 0u) << kernel;
        }
    }
}

TEST(FoldOracle, TraceIsByteIdenticalWithFastInnerOnAndOff)
{
    // Three-deep nests keep their closed-form middle runs under tracing:
    // the spans sit at outer positions, where the counters agree.
    for (const char *kernel : {"gemm", "syr2k"}) {
        std::string name = kernel;
        core::Compilation c = core::compile(
            name == "gemm" ? ir::gallery::gemm() : ir::gallery::syr2kBanded());
        ir::Bindings binds = name == "gemm"
                                 ? bindingFor(c.program, 24)
                                 : ir::Bindings{{24, 5}, {1.5, 0.5}};
        auto traced = [&](bool fast) {
            obs::Trace trace;
            SimOptions opts;
            opts.processors = 4;
            opts.fastInner = fast;
            opts.trace = &trace;
            opts.tracePid = trace.process(name);
            core::simulate(c, opts, binds);
            return trace.renderEvents(opts.tracePid);
        };
        SimOptions plain;
        plain.processors = 4;
        obs::Trace probe;
        plain.trace = &probe;
        ASSERT_GE(c.nest().depth(), 3u);
        ASSERT_TRUE(closedOf(c, plain, binds)) << kernel;
        std::string fast = traced(true);
        EXPECT_FALSE(fast.empty());
        EXPECT_EQ(fast, traced(false)) << kernel;
    }
}

TEST(FoldOracle, AggregatedRunsMatch)
{
    // Symmetry aggregation simulates class representatives through the
    // same walk; force it at small and at paper-scale P.
    for (const Kernel &k : galleryKernels()) {
        if (k.name != "gemm" && k.name != "syr2k" && k.name != "figure1" &&
            k.name != "ger")
            continue;
        for (bool identity : {true, false}) {
            core::CompileOptions co;
            co.identityTransform = identity;
            core::Compilation c = core::compile(k.prog, co);
            ir::Bindings binds = bindingFor(k.prog, 30);
            if (k.name == "syr2k")
                binds = {{30, 7}, {1.5, 0.5}};
            for (Int p : {3, 4, 8, 256, 4096}) {
                for (bool blocks : {true, false}) {
                    SimOptions opts;
                    opts.processors = p;
                    opts.blockTransfers = blocks;
                    opts.symmetry = SymmetryMode::Force;
                    SimStats s = expectFoldMatches(
                        c, opts, binds,
                        k.name + (identity ? " identity" : " normalized") +
                            " aggregated P=" + std::to_string(p));
                    EXPECT_TRUE(s.aggregated);
                }
            }
        }
    }
}

TEST(FoldOracle, SearchCandidateNestsMatchNaiveWalk)
{
    // Every distinct candidate the plan search enumerates for the
    // gallery: permuted, sign-flipped and padded transformations, with
    // the planner's scheme or forced round-robin, so non-unit lattices,
    // rational bounds and every partition scheme reach the closed form.
    size_t nests = 0, closed = 0;
    for (const Kernel &k : galleryKernels()) {
        core::Compilation base = core::compile(k.prog);
        const xform::NormalizeResult &norm = base.normalization;
        xform::SearchOptions so;
        so.enabled = true;
        std::set<std::pair<std::string, bool>> seen;
        for (const xform::SearchCandidate &cand :
             xform::enumerateSearchCandidates(k.prog, norm, so)) {
            std::ostringstream key;
            for (size_t i = 0; i < cand.transform.rows(); ++i)
                for (size_t j = 0; j < cand.transform.cols(); ++j)
                    key << (j == 0 ? (i == 0 ? "[" : "; ") : " ")
                        << cand.transform(i, j);
            key << "]";
            if (!seen.insert({key.str(), cand.forceRoundRobin}).second)
                continue;
            std::optional<xform::TransformedNest> nest;
            ExecutionPlan plan;
            try {
                nest.emplace(xform::applyTransform(k.prog, cand.transform));
                plan = codegen::planCodegen(k.prog, *nest, norm.depMatrix,
                                            &norm.access);
            } catch (const Error &) {
                continue; // the search rejects it too
            }
            if (cand.forceRoundRobin) {
                plan.scheme = PartitionScheme::RoundRobin;
                plan.alignedArray.reset();
            }
            ++nests;
            for (Int n : {7, 24}) {
                ir::Bindings binds = bindingFor(k.prog, n);
                for (Int p : {3, 4, 32}) {
                    SimOptions opts;
                    opts.processors = p;
                    opts.hostThreads = 1;
                    std::string what = k.name + " " + key.str() +
                                       (cand.forceRoundRobin ? " rr" : "") +
                                       " N=" + std::to_string(n) +
                                       " P=" + std::to_string(p);
                    expectMatch(k.prog, *nest, plan, opts, binds, what);
                    closed += Simulator(k.prog, *nest, plan, opts)
                                  .sliceTally(binds)
                                  .closedRuns > 0;
                }
            }
        }
    }
    EXPECT_GT(nests, 50u);
    EXPECT_GT(closed, nests);
}

/**
 * A nest whose middle runs split into many pieces: for i = 0..1,
 * j = 0..N, inner k over
 *   shape 0: max(j - 3, 0) .. min(j, 5)   (growing, capped, then empty)
 *   shape 1: ceil(j / 3) .. floor(j / 2)  (residues of j mod 6; empty
 *                                          and one-iteration runs)
 *   shape 2: j .. N - j                   (shrinking to one, then empty)
 *   shape 3: j .. j                       (one iteration everywhere)
 * with wrapped references stepping along k, along j, along both and
 * along neither, a blocked one fixed for the whole run, and a
 * replicated one. depth 2 drops the i loop, so the outer slice is the
 * middle run.
 */
ir::Program
piecewiseNest(int shape, size_t depth)
{
    ir::ProgramBuilder b(depth);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    auto c0 = b.cst(0);
    auto ext = N.scaled(Rational(4)) + b.cst(8);
    size_t a = b.array("A", {ext}, ir::DistributionSpec::wrapped(0));
    size_t bb = b.array("B", {ext, ext}, ir::DistributionSpec::wrapped(1));
    size_t cc = b.array("C", {ext}, ir::DistributionSpec::wrapped(0));
    size_t d = b.array("D", {ext}, ir::DistributionSpec::wrapped(0));
    size_t e = b.array("E", {ext}, ir::DistributionSpec::blocked(0));
    size_t r = b.array("R", {ext}, ir::DistributionSpec::replicated());
    if (depth == 3)
        b.loop("i", c0, b.cst(1));
    size_t lj = b.loop("j", c0, N);
    auto vj = b.var(lj);
    size_t lk = 0;
    switch (shape) {
      case 0:
        lk = b.loop("k", vj - b.cst(3), vj);
        b.addLower(lk, c0);
        b.addUpper(lk, b.cst(5));
        break;
      case 1:
        lk = b.loop("k", vj.scaled(Rational(1, 3)),
                    vj.scaled(Rational(1, 2)));
        break;
      case 2:
        lk = b.loop("k", vj, N - vj);
        break;
      default:
        lk = b.loop("k", vj, vj);
        break;
    }
    auto vk = b.var(lk);
    auto vi = depth == 3 ? b.var(0) : c0;
    ir::Expr rhs = ir::Expr::binary(
        '+',
        ir::Expr::binary('+', ir::Expr::arrayRead(b.ref(a, {vk + b.cst(2)})),
                         ir::Expr::arrayRead(b.ref(cc, {vj + vk}))),
        ir::Expr::binary(
            '+',
            ir::Expr::binary('*', ir::Expr::arrayRead(b.ref(d, {vj})),
                             ir::Expr::arrayRead(
                                 b.ref(bb, {vk, vk.scaled(Rational(2)) - vj +
                                                    N}))),
            ir::Expr::binary('*', ir::Expr::arrayRead(b.ref(e, {vi})),
                             ir::Expr::arrayRead(b.ref(r, {vk})))));
    b.assign(b.ref(bb, {vi + vj, vk + vi}), rhs);
    return b.build();
}

TEST(FoldOracle, EmptyPiecesAndOneIterationRunsMatchNaiveWalk)
{
    for (int shape = 0; shape < 4; ++shape) {
        for (size_t depth : {2u, 3u}) {
            ir::Program prog = piecewiseNest(shape, depth);
            for (bool identity : {true, false}) {
                core::CompileOptions co;
                co.identityTransform = identity;
                std::optional<core::Compilation> c;
                try {
                    c.emplace(core::compile(prog, co));
                } catch (const Error &) {
                    ASSERT_FALSE(identity) << shape;
                    continue;
                }
                for (Int n : {0, 1, 7, 13, 24}) {
                    ir::Bindings binds = bindingFor(prog, n);
                    for (Int p : {1, 2, 3, 4, 5, 8}) {
                        for (bool blocks : {true, false}) {
                            SimOptions opts;
                            opts.processors = p;
                            opts.blockTransfers = blocks;
                            std::string what =
                                "shape " + std::to_string(shape) + " depth " +
                                std::to_string(depth) +
                                (identity ? " identity" : " normalized") +
                                " N=" + std::to_string(n) +
                                " P=" + std::to_string(p) +
                                (blocks ? " B" : " T");
                            expectFoldMatches(*c, opts, binds, what);
                            // Processor 0's first run has at least five
                            // positions, more than shape 0's four bound
                            // forms (the compiler caps j at 8 there).
                            if (identity && n == 24 &&
                                (depth == 3 || p <= 2)) {
                                EXPECT_TRUE(closedOf(*c, opts, binds)) << what;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(FoldOracle, HoistsAtEveryLevelMatchNaiveWalk)
{
    // The planner hoists only reads whose distribution coordinate stays
    // put along the inner loop. Hoist every read at every level here --
    // above the nest, above the middle loop, at the middle level and at
    // the innermost -- so each transfer rule meets every owner shape:
    // fixed, moving along the inner run, one-iteration runs whose only
    // element may be local.
    for (int shape = 0; shape < 4; ++shape) {
        for (size_t depth : {2u, 3u}) {
            ir::Program prog = piecewiseNest(shape, depth);
            core::CompileOptions co;
            co.identityTransform = true;
            core::Compilation c = core::compile(prog, co);
            for (int level = -1; level < int(depth); ++level) {
                ExecutionPlan plan = c.plan;
                plan.hoists.clear();
                for (size_t read = 0; read < 6; ++read)
                    plan.hoists.push_back({0, read, level});
                for (Int n : {7, 24}) {
                    ir::Bindings binds = bindingFor(prog, n);
                    for (Int p : {1, 2, 3, 4, 5, 8}) {
                        SimOptions opts;
                        opts.processors = p;
                        std::string what =
                            "shape " + std::to_string(shape) + " depth " +
                            std::to_string(depth) + " level " +
                            std::to_string(level) + " N=" + std::to_string(n) +
                            " P=" + std::to_string(p);
                        expectMatch(c.program, c.nest(), plan, opts, binds,
                                    what);
                        if (n == 24 && (depth == 3 || p <= 2)) {
                            EXPECT_GT(
                                Simulator(c.program, c.nest(), plan, opts)
                                    .sliceTally(binds)
                                    .closedRuns,
                                0u)
                                << what;
                        }
                    }
                }
            }
        }
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

/** for i = -N..N, for j = 0..0: B[j] = B[j] + A[j], untransformed: the
 * outer loop carries the dependence, so every outer position syncs. */
core::Compilation
wideOuterLoop()
{
    ir::ProgramBuilder b(2);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    size_t a = b.array("A", {b.cst(1)}, ir::DistributionSpec::wrapped(0));
    size_t bb = b.array("B", {b.cst(1)}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(0) - N, N);
    b.loop("j", b.cst(0), b.cst(0));
    auto vj = b.var(1);
    b.assign(b.ref(bb, {vj}),
             ir::Expr::binary('+', ir::Expr::arrayRead(b.ref(bb, {vj})),
                              ir::Expr::arrayRead(b.ref(a, {vj}))));
    core::CompileOptions co;
    co.identityTransform = true;
    return core::compile(b.build(), co);
}

TEST(FoldOracle, HugeOuterRangesThrowInsteadOfSimulatingNothing)
{
    core::Compilation c = wideOuterLoop();
    SimOptions direct;
    direct.processors = 1;
    SimOptions aggregated;
    aggregated.processors = 4096;
    aggregated.symmetry = SymmetryMode::Force;
    // N = 2^61: 2^62 + 1 outer positions, each one sync, in closed form.
    Int n = Int(1) << 61;
    ASSERT_TRUE(closedOf(c, direct, {{n}, {}}));
    SimStats s = core::simulate(c, direct, {{n}, {}});
    EXPECT_EQ(s.perProc[0].syncs, (uint64_t(1) << 62) + 1);
    EXPECT_EQ(s.perProc[0].iterations, (uint64_t(1) << 62) + 1);
    EXPECT_EQ(core::simulate(c, aggregated, {{n}, {}}).totalIterations(),
              (uint64_t(1) << 62) + 1);
    // N = 2^62: 2^63 + 1 outer positions do not fit the slice arithmetic.
    for (const SimOptions &opts : {direct, aggregated})
        EXPECT_THROW(core::simulate(c, opts, {{Int(1) << 62}, {}}),
                     OverflowError)
            << opts.processors;
}

/** Expect the stretch, per-position and naive walks to agree. */
void
expectWalksAgree(const ir::Program &prog, const xform::TransformedNest &nest,
                 const ExecutionPlan &plan, const SimOptions &opts,
                 const ir::Bindings &binds, const std::string &what)
{
    oracle::WalkDifferential d =
        oracle::simWalkDifferential(prog, nest, plan, opts, binds);
    EXPECT_TRUE(d.naiveCompleted) << what;
    EXPECT_EQ(d.mismatch, "") << what;
}

/** How many positions of processor p's own slice the run walks, and
 * how many it has (a traced run walks every one). */
std::pair<uint64_t, uint64_t>
walkedOf(const ir::Program &prog, const xform::TransformedNest &nest,
         const ExecutionPlan &plan, SimOptions opts, const ir::Bindings &binds,
         Int p)
{
    uint64_t walked =
        Simulator(prog, nest, plan, opts).sliceTally(binds, p).walked;
    obs::Trace trace;
    opts.trace = &trace;
    return {walked,
            Simulator(prog, nest, plan, opts).sliceTally(binds, p).walked};
}

/** How many processors' own slices are charged by stretches: walk
 * fewer positions than they have. */
Int
slicesStretched(const ir::Program &prog,
                const xform::TransformedNest &nest, const ExecutionPlan &plan,
                const SimOptions &opts, const ir::Bindings &binds)
{
    Int whole = 0;
    for (Int p = 0; p < opts.processors; ++p) {
        auto [walked, positions] = walkedOf(prog, nest, plan, opts, binds, p);
        whole += walked < positions;
    }
    return whole;
}

TEST(WholeSlice, GalleryGridMatchesPerPositionAndNaiveWalks)
{
    // 11 kernels x {identity, normalized} x 11 processor counts x
    // {block transfers, element-wise} x {1, 4} host threads x {no
    // fault, processor 0 killed after two positions}: the kill adopts
    // the rest round-robin (idxStep = P - 1) or, at P = 1, restarts.
    const Int procs[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 28, 31};
    size_t configs = 0;
    std::set<std::string> whole;
    for (const Kernel &k : galleryKernels()) {
        for (bool identity : {true, false}) {
            core::CompileOptions co;
            co.identityTransform = identity;
            core::Compilation c = core::compile(k.prog, co);
            ir::Bindings binds = bindingFor(k.prog, 24);
            if (k.name == "syr2k")
                binds = {{24, 5}, {1.5, 0.5}};
            for (Int p : procs) {
                for (bool blocks : {true, false}) {
                    for (Int threads : {1, 4}) {
                        for (bool kill : {false, true}) {
                            SimOptions opts;
                            opts.processors = p;
                            opts.blockTransfers = blocks;
                            opts.hostThreads = threads;
                            if (kill) {
                                opts.faults.killProc = 0;
                                opts.faults.killAfterSlices = 2;
                            }
                            std::string what =
                                k.name +
                                (identity ? " identity" : " normalized") +
                                " P=" + std::to_string(p) +
                                (blocks ? " B" : " T") + " threads " +
                                std::to_string(threads) +
                                (kill ? " killed" : "");
                            expectWalksAgree(c.program, c.nest(), c.plan,
                                             opts, binds, what);
                            ++configs;
                        }
                    }
                }
                SimOptions opts;
                opts.processors = p;
                if (slicesStretched(c.program, c.nest(), c.plan, opts,
                                    binds))
                    whole.insert(k.name +
                                 (identity ? " identity" : " normalized") +
                                 " P=" + std::to_string(p));
            }
        }
    }
    EXPECT_EQ(configs, 11u * 2u * 11u * 8u);
    // GEMM's slices have four positions or more up to P = 7 at N = 24.
    for (const char *t : {" identity", " normalized"})
        for (Int p : {1, 2, 3, 4, 5, 7})
            EXPECT_TRUE(whole.count("gemm" + std::string(t) +
                                    " P=" + std::to_string(p)))
                << "gemm" << t << " P=" << p;
}

TEST(WholeSlice, LongSlicesAtLargePMatchNaiveWalk)
{
    // N = 128 gives every processor at least four positions up to
    // P = 31, so these slices are charged whole at every P.
    for (bool identity : {true, false}) {
        core::CompileOptions co;
        co.identityTransform = identity;
        core::Compilation c = core::compile(ir::gallery::gemm(), co);
        ir::Bindings binds = bindingFor(c.program, 128);
        for (Int p : {16, 28, 31}) {
            for (bool blocks : {true, false}) {
                SimOptions opts;
                opts.processors = p;
                opts.blockTransfers = blocks;
                std::string what = std::string(identity ? "identity"
                                                        : "normalized") +
                                   " P=" + std::to_string(p);
                EXPECT_EQ(slicesStretched(c.program, c.nest(), c.plan, opts,
                                          binds),
                          p)
                    << what;
                expectWalksAgree(c.program, c.nest(), c.plan, opts, binds,
                                 what);
            }
        }
    }
}

TEST(WholeSlice, PaperGemmChargesEverySliceWhole)
{
    // Figure 4's three curves at paper scale: the untransformed nest
    // (element-wise) and the normalized one, element-wise and with
    // block transfers.
    core::CompileOptions identity;
    identity.identityTransform = true;
    core::Compilation plain = core::compile(ir::gallery::gemm(), identity);
    core::Compilation norm = core::compile(ir::gallery::gemm());
    ir::Bindings binds = bindingFor(plain.program, 400);
    for (Int p = 1; p <= 28; ++p) {
        for (const auto &[name, c, blocks] :
             {std::tuple<const char *, const core::Compilation *, bool>{
                  "plain", &plain, false},
              {"normT", &norm, false},
              {"normB", &norm, true}}) {
            SimOptions opts;
            opts.processors = p;
            opts.blockTransfers = blocks;
            EXPECT_EQ(slicesStretched(c->program, c->nest(), c->plan,
                                      opts, binds),
                      p)
                << name << " P=" << p;
        }
    }
}

TEST(WholeSlice, DeclinesWherePositionsDifferAndStillMatches)
{
    auto check = [](const ir::Program &prog,
                    const xform::TransformedNest &nest,
                    const ExecutionPlan &plan, const ir::Bindings &binds,
                    Int p, const std::string &what) {
        SimOptions opts;
        opts.processors = p;
        EXPECT_EQ(slicesStretched(prog, nest, plan, opts, binds), 0) << what;
        for (bool blocks : {true, false}) {
            opts.blockTransfers = blocks;
            expectWalksAgree(prog, nest, plan, opts, binds, what);
        }
    };
    // A blocked array indexed by the outer variable: A[i, k] on i.
    {
        ir::Program prog = ir::gallery::gemm();
        prog.arrays[1].dist = ir::DistributionSpec::blocked(0);
        core::CompileOptions co;
        co.identityTransform = true;
        core::Compilation c = core::compile(prog, co);
        for (Int p : {1, 2, 3, 4})
            check(c.program, c.nest(), c.plan, bindingFor(prog, 24), p,
                  "blocked outer P=" + std::to_string(p));
    }
    // The normalized GEMM with its outer row doubled: C[., u0 / 2] is a
    // rational subscript. Partitioned owner-wrapped, a slice steps by
    // lcm(2, P), which moves u0 / 2 by a multiple of P only for odd P.
    {
        ir::Program prog = ir::gallery::gemm();
        core::Compilation base = core::compile(prog);
        IntMatrix t{{0, 2, 0}, {0, 0, 1}, {1, 0, 0}};
        xform::TransformedNest nest = xform::applyTransform(prog, t);
        ExecutionPlan plan =
            codegen::planCodegen(prog, nest, base.normalization.depMatrix,
                                 &base.normalization.access);
        plan.scheme = PartitionScheme::OwnerWrapped;
        plan.alignedArray = 0; // C, wrapped on its column
        ir::Bindings binds = bindingFor(prog, 24);
        for (Int p : {2, 4})
            check(prog, nest, plan, binds, p,
                  "rational subscript P=" + std::to_string(p));
        for (Int p : {3, 5}) {
            SimOptions opts;
            opts.processors = p;
            EXPECT_GT(slicesStretched(prog, nest, plan, opts, binds), 0)
                << "rational subscript P=" << p;
            expectWalksAgree(prog, nest, plan, opts, binds,
                             "rational subscript P=" + std::to_string(p));
        }
    }
    // A lattice whose level-1 anchor moves with level 0: u1 = i + 2j
    // has the parity of u0 = i.
    {
        ir::Program prog = ir::gallery::gemm();
        core::Compilation base = core::compile(prog);
        IntMatrix t{{1, 0, 0}, {1, 2, 0}, {0, 0, 1}};
        xform::TransformedNest nest = xform::applyTransform(prog, t);
        ASSERT_NE(nest.lattice().hnf()(1, 0), 0);
        ExecutionPlan plan =
            codegen::planCodegen(prog, nest, base.normalization.depMatrix,
                                 &base.normalization.access);
        for (Int p : {1, 2, 3})
            check(prog, nest, plan, bindingFor(prog, 24), p,
                  "moving anchor P=" + std::to_string(p));
    }
}

TEST(Stretches, BandedSyr2kGridMatchesPerPositionAndNaiveWalks)
{
    // Banded SYR2K's middle and inner bounds read the outer variable, so
    // its slices are charged by stretches cut where the pieces change.
    // b in {1, 2, 3, N}, N in {7, 24, 61, 400}, plain and normalized, P
    // from 1 up to one position per slice, both transfer models, and up
    // to P = 5 with processor 0 killed after two positions (the rest
    // adopted at idxStep = P - 1, or restarted from position 2 at
    // P = 1). The naive walk runs where the nest is small; the stretch
    // walk must equal the per-position walk everywhere.
    size_t engaged = 0;
    for (bool identity : {true, false}) {
        core::CompileOptions co;
        co.identityTransform = identity;
        core::Compilation c = core::compile(ir::gallery::syr2kBanded(), co);
        for (Int n : {7, 24, 61, 400}) {
            for (Int b : {Int(1), Int(2), Int(3), n}) {
                const ir::Bindings binds{{n, b}, {1.5, 0.5}};
                const Int outer = identity ? n : std::min(2 * b - 1, n);
                std::set<Int> procs;
                for (Int p = 1; p <= std::min<Int>(outer, 20); ++p)
                    procs.insert(p);
                for (Int p : {outer / 4, outer / 2, outer - 1, outer})
                    if (p >= 1)
                        procs.insert(p);
                for (Int p : procs) {
                    for (int variant = 0; variant < (p <= 5 ? 4 : 2);
                         ++variant) {
                        const bool blocks = variant % 2 == 0;
                        SimOptions opts;
                        opts.processors = p;
                        opts.blockTransfers = blocks;
                        if (variant >= 2) {
                            opts.faults.killProc = 0;
                            opts.faults.killAfterSlices = 2;
                        }
                        const std::string what =
                            std::string(identity ? "plain" : "normalized") +
                            " N=" + std::to_string(n) +
                            " b=" + std::to_string(b) +
                            " P=" + std::to_string(p) + (blocks ? " B" : " T") +
                            (variant >= 2 ? " killed" : "");
                        if (n * b * b <= 61 * 61 * 61) {
                            expectWalksAgree(c.program, c.nest(), c.plan,
                                             opts, binds, what);
                        } else {
                            SimStats fast =
                                Simulator(c.program, c.nest(), c.plan, opts)
                                    .run(binds);
                            obs::Trace trace;
                            opts.trace = &trace;
                            SimStats traced =
                                Simulator(c.program, c.nest(), c.plan, opts)
                                    .run(binds);
                            EXPECT_EQ(testutil::statsDiff(fast, traced), "")
                                << what;
                            opts.trace = nullptr;
                        }
                        if (variant == 1)
                            engaged += slicesStretched(c.program, c.nest(),
                                                       c.plan, opts,
                                                       binds) > 0;
                    }
                }
            }
        }
    }
    EXPECT_GT(engaged, 0u);
}

TEST(Stretches, PaperSyr2kWalksAsManyPositionsAtEveryN)
{
    // The stretches of banded SYR2K (b = 100) are cut where its pieces
    // change, which does not depend on N: each slice walks as many
    // positions at N = 400 as at N = 4000, far fewer than it has.
    for (bool identity : {true, false}) {
        core::CompileOptions co;
        co.identityTransform = identity;
        core::Compilation c = core::compile(ir::gallery::syr2kBanded(), co);
        for (Int p : {1, 2, 4}) {
            for (bool blocks : {true, false}) {
                SimOptions opts;
                opts.processors = p;
                opts.blockTransfers = blocks;
                for (Int q = 0; q < p; ++q) {
                    auto [small, positions] =
                        walkedOf(c.program, c.nest(), c.plan, opts,
                                 {{400, 100}, {1.0, 1.0}}, q);
                    uint64_t large =
                        Simulator(c.program, c.nest(), c.plan, opts)
                            .sliceTally({{4000, 100}, {1.0, 1.0}}, q)
                            .walked;
                    const std::string what =
                        std::string(identity ? "plain" : "normalized") +
                        " P=" + std::to_string(p) + (blocks ? " B" : " T") +
                        " p=" + std::to_string(q);
                    EXPECT_EQ(small, large) << what;
                    EXPECT_LT(small * 4, positions) << what;
                }
            }
        }
    }
}

/**
 * A random three-deep banded nest: i in [0, n0] (long enough for every
 * processor's slice to hold stretches at P <= 5), j in [0, n1] and k in
 * [0, n2], each deeper loop clipped by random bands a * i + c (and k by
 * bands in j), over two arrays wrapped on a random dimension, read and
 * written through random subscripts with coefficients in [-1, 2].
 */
ir::Program
randomBandedNest(std::mt19937 &rng)
{
    auto draw = [&](Int lo, Int hi) {
        return std::uniform_int_distribution<Int>(lo, hi)(rng);
    };
    const IntVec hi{draw(48, 96), draw(6, 24), draw(6, 24)};
    ir::ProgramBuilder b(3);
    auto row = [&] {
        IntVec r(3);
        for (Int &x : r)
            x = draw(-1, 2);
        return r;
    };
    // Each subscript row, shifted into [0, extent).
    auto sub = [&](const IntVec &r, Int &extent) {
        Int lo = 0, up = 0;
        ir::AffineExpr e = b.cst(0);
        for (size_t k = 0; k < 3; ++k) {
            (r[k] > 0 ? up : lo) += r[k] * hi[k];
            e = e + b.var(k).scaled(Rational(r[k]));
        }
        extent = std::max(extent, up - lo + 1);
        return e + b.cst(-lo);
    };
    std::vector<std::vector<IntVec>> rows(4, {row(), row()});
    Int ext[2][2] = {{1, 1}, {1, 1}};
    std::vector<std::vector<ir::AffineExpr>> subs;
    for (size_t r = 0; r < rows.size(); ++r)
        subs.push_back({sub(rows[r][0], ext[r % 2][0]),
                        sub(rows[r][1], ext[r % 2][1])});
    size_t arr[2];
    for (size_t a = 0; a < 2; ++a)
        arr[a] = b.array(a == 0 ? "A" : "B",
                         {b.cst(ext[a][0]), b.cst(ext[a][1])},
                         ir::DistributionSpec::wrapped(size_t(draw(0, 1))));
    for (size_t k = 0; k < 3; ++k) {
        b.loop(std::string(1, char('i' + k)), b.cst(0), b.cst(hi[k]));
        for (size_t j = 0; j < k; ++j) {
            if (draw(0, 2) != 0)
                b.addLower(k, b.var(j).scaled(Rational(draw(1, 2))) -
                                  b.cst(draw(0, 10)));
            if (draw(0, 2) != 0)
                b.addUpper(k, b.var(j).scaled(Rational(draw(1, 2))) +
                                  b.cst(draw(0, 10)));
            if (draw(0, 3) == 0)
                b.addUpper(k, b.cst(hi[j] + draw(0, 6)) - b.var(j));
        }
    }
    auto read = [&](size_t a, size_t r) {
        return ir::Expr::arrayRead(b.ref(arr[a], subs[r]));
    };
    b.assign(b.ref(arr[0], subs[0]),
             ir::Expr::binary('+', read(0, 2),
                              ir::Expr::binary('*', read(1, 1), read(1, 3))));
    return b.build();
}

TEST(Stretches, RandomBandedNestsMatchPerPositionAndNaiveWalks)
{
    // 120 random banded nests, plain and normalized, P in {1, 2, 3, 5},
    // both transfer models: the stretch, per-position and naive walks
    // agree. Stretches engage on some of them: most normalized nests
    // have a lattice whose anchors move with the outer variable, and
    // where two inner bounds of different slopes in j cross, their
    // crossing must move by a multiple of P per position.
    std::mt19937 rng(20261019);
    size_t runs = 0, engaged = 0;
    for (int trial = 0; trial < 120; ++trial) {
        const ir::Program prog = randomBandedNest(rng);
        for (bool identity : {true, false}) {
            core::CompileOptions co;
            co.identityTransform = identity;
            core::Compilation c = core::compile(prog, co);
            for (Int p : {1, 2, 3, 5}) {
                for (bool blocks : {true, false}) {
                    SimOptions opts;
                    opts.processors = p;
                    opts.blockTransfers = blocks;
                    expectWalksAgree(c.program, c.nest(), c.plan, opts, {},
                                     "trial " + std::to_string(trial) +
                                         (identity ? " plain" : " normalized") +
                                         " P=" + std::to_string(p) +
                                         (blocks ? " B" : " T"));
                    ++runs;
                }
                SimOptions opts;
                opts.processors = p;
                engaged += slicesStretched(c.program, c.nest(), c.plan,
                                           opts, {}) > 0;
            }
        }
    }
    EXPECT_EQ(runs, 120u * 2u * 4u * 2u);
    EXPECT_GE(engaged, 40u);
}

/** for i = 0..N-1, j = 0..0, k = -K..K: A[i] = k + k*i, a two-flop body
 * of 2K + 1 iterations per outer position. */
core::Compilation
wideInnerSlices()
{
    ir::ProgramBuilder b(3);
    size_t pn = b.param("N"), pk = b.param("K");
    auto N = b.par(pn), K = b.par(pk);
    size_t arr = b.array("A", {N}, ir::DistributionSpec::wrapped(0));
    b.loop("i", b.cst(0), N - b.cst(1));
    b.loop("j", b.cst(0), b.cst(0));
    b.loop("k", b.cst(0) - K, K);
    auto vi = b.var(0), vk = b.var(2);
    b.assign(b.ref(arr, {vi}),
             ir::Expr::binary('+', ir::Expr::indexValue(vk),
                              ir::Expr::binary('*', ir::Expr::indexValue(vk),
                                               ir::Expr::indexValue(vi))));
    core::CompileOptions co;
    co.identityTransform = true;
    return core::compile(b.build(), co);
}

TEST(WholeSlice, TotalsThatLeaveUint64Throw)
{
    core::Compilation c = wideInnerSlices();
    SimOptions opts;
    opts.processors = 1;
    // 16 positions of 2^58 + 1 iterations: 2^62 + 16 in all, and twice
    // as many flops, still fit.
    const Int k = Int(1) << 57;
    const ir::Bindings fits{{16, k}, {}};
    ASSERT_EQ(Simulator(c.program, c.nest(), c.plan, opts)
                  .sliceTally(fits)
                  .walked,
              2u); // the first and the last
    SimStats s = core::simulate(c, opts, fits);
    EXPECT_EQ(s.perProc[0].iterations, (uint64_t(1) << 62) + 16);
    EXPECT_EQ(s.perProc[0].flops, (uint64_t(1) << 63) + 32);
    // 16 positions of 2^61 + 1 iterations: the multiplied charge leaves
    // 64 bits, on the stretch walk as on the per-position one.
    const ir::Bindings wide{{16, Int(1) << 60}, {}};
    EXPECT_THROW(core::simulate(c, opts, wide), OverflowError);
    obs::Trace trace;
    opts.trace = &trace;
    EXPECT_THROW(core::simulate(c, opts, wide), OverflowError);
}

} // namespace
} // namespace anc::numa
