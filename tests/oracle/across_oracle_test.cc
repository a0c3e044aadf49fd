/**
 * @file
 * Evaluation across processors (see SimOptions::fastInner) against the
 * per-processor walk of a traced run and the naive walk
 * (oracle::simWalkDifferential): the gallery, the samples, the examples
 * and the corpus seeds, direct and with every class aggregated, at
 * P in {1, 3, 4, 7, 16, 32, 256, 4096, 65536}, both transfer models,
 * with and without a fail-stop kill; and where it engages: the paper's
 * GEMM and banded SYR2K at large P, most of whose processors are
 * evaluated rather than walked.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "golden_inputs.h"
#include "ir/gallery.h"
#include "numa/simulator.h"
#include "sim_oracle.h"
#include "sim_walk_oracle.h"

namespace anc::numa {
namespace {

constexpr Int kProcs[] = {1, 3, 4, 7, 16, 32, 256, 4096, 65536};

TEST(AcrossOracle, FixedInputsMatchPerProcessorAndNaiveWalks)
{
    size_t runs = 0, engaged = 0;
    for (const golden::Input &in : golden::fixedInputs()) {
        std::optional<ir::Program> prog = golden::programOf(in);
        if (!prog)
            continue;
        core::Compilation c;
        try {
            c = core::compile(*prog);
        } catch (const Error &) {
            continue; // rejected inputs simulate nothing
        }
        const ir::Bindings binds{IntVec(c.program.params.size(), 24),
                                 std::vector<double>(
                                     c.program.scalars.size(), 1.0)};
        for (Int p : kProcs) {
            for (SymmetryMode sym : {SymmetryMode::Off, SymmetryMode::Force}) {
                for (int variant = 0; variant < 4; ++variant) {
                    SimOptions opts;
                    opts.processors = p;
                    opts.symmetry = sym;
                    opts.blockTransfers = variant % 2 == 0;
                    if (variant >= 2) {
                        opts.faults.killProc = 1 % p;
                        opts.faults.killAfterSlices = 2;
                    }
                    const std::string what =
                        in.name + " P=" + std::to_string(p) +
                        (sym == SymmetryMode::Off ? " direct" : " force") +
                        (opts.blockTransfers ? " B" : " T") +
                        (variant >= 2 ? " killed" : "");
                    oracle::WalkDifferential d = oracle::simWalkDifferential(
                        c.program, c.nest(), c.plan, opts, binds);
                    if (!d.naiveCompleted)
                        continue;
                    EXPECT_EQ(d.mismatch, "") << what;
                    ++runs;
                    engaged += d.evaluated > 0;
                }
            }
        }
    }
    EXPECT_GT(runs, 1000u);
    EXPECT_GT(engaged, 100u);
}

/** Processors of the run evaluated and walked, after checking that the
 * run equals its per-processor walk (and the naive one when `naive`). */
Simulator::RunTally
checkedTally(const core::Compilation &c, const SimOptions &opts,
             const ir::Bindings &binds, bool naive, const std::string &what)
{
    if (naive) {
        oracle::WalkDifferential d = oracle::simWalkDifferential(
            c.program, c.nest(), c.plan, opts, binds);
        EXPECT_TRUE(d.naiveCompleted) << what;
        EXPECT_EQ(d.mismatch, "") << what;
    } else {
        SimStats fast = Simulator(c.program, c.nest(), c.plan, opts).run(binds);
        obs::Trace trace;
        SimOptions traced = opts;
        traced.trace = &trace;
        SimStats walked =
            Simulator(c.program, c.nest(), c.plan, traced).run(binds);
        EXPECT_EQ(testutil::statsDiff(fast, walked), "") << what;
    }
    return Simulator(c.program, c.nest(), c.plan, opts).runTally(binds);
}

TEST(AcrossOracle, BandedSyr2kEvaluatesMostClassesAtLargeP)
{
    // Banded SYR2K (b = 100) at large P: one or two outer positions per
    // processor, 199 of them normalized at any N, N untransformed. Most
    // processors are evaluated, in the plain nest too, whose reads of
    // Bb own a tilted plane z = y + v.
    core::CompileOptions identity;
    identity.identityTransform = true;
    for (bool plain : {false, true}) {
        core::Compilation c = plain ? core::compile(ir::gallery::syr2kBanded(),
                                                    identity)
                                    : core::compile(ir::gallery::syr2kBanded());
        for (Int n : {400, 4000}) {
            for (Int p : {4096, 65536}) {
                for (bool blocks : {true, false}) {
                    SimOptions opts;
                    opts.processors = p;
                    opts.blockTransfers = blocks;
                    const std::string what =
                        std::string(plain ? "plain" : "normalized") +
                        " N=" + std::to_string(n) + " P=" +
                        std::to_string(p) + (blocks ? " B" : " T");
                    Simulator::RunTally t =
                        checkedTally(c, opts, {{n, 100}, {1.0, 1.0}},
                                     n == 400 && !plain, what);
                    EXPECT_GT(t.evaluated, 3 * t.walked) << what;
                }
            }
        }
    }
}

TEST(AcrossOracle, BandedSyr2kGridMatchesNaiveWalk)
{
    // Bounds that read the outer variable, with at least 64 processors
    // at work: cut where the pieces change and where the owner planes
    // meet the bounds. Plain and normalized, N in {70, 130}, b from 1 to
    // past N / 2, P from the outer count to 4096, direct and aggregated.
    core::CompileOptions identity;
    identity.identityTransform = true;
    size_t engaged = 0;
    for (bool plain : {false, true}) {
        core::Compilation c = plain ? core::compile(ir::gallery::syr2kBanded(),
                                                    identity)
                                    : core::compile(ir::gallery::syr2kBanded());
        for (Int n : {70, 130}) {
            for (Int b : {1, 3, 7, 40}) {
                const Int outer = plain ? n : std::min(2 * b - 1, n);
                for (Int p : {outer, outer + 3, 2 * outer, Int(4096)}) {
                    for (SymmetryMode sym :
                         {SymmetryMode::Off, SymmetryMode::Force}) {
                        if (sym == SymmetryMode::Off && p == 4096)
                            continue;
                        for (bool blocks : {true, false}) {
                            SimOptions opts;
                            opts.processors = p;
                            opts.symmetry = sym;
                            opts.blockTransfers = blocks;
                            const std::string what =
                                std::string(plain ? "plain" : "normalized") +
                                " N=" + std::to_string(n) +
                                " b=" + std::to_string(b) +
                                " P=" + std::to_string(p) +
                                (blocks ? " B" : " T");
                            oracle::WalkDifferential d =
                                oracle::simWalkDifferential(
                                    c.program, c.nest(), c.plan, opts,
                                    {{n, b}, {1.5, 0.5}});
                            EXPECT_TRUE(d.naiveCompleted) << what;
                            EXPECT_EQ(d.mismatch, "") << what;
                            engaged += d.evaluated > 0;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(engaged, 40u);
}

TEST(AcrossOracle, PaperGemmEvaluatesAtLargeP)
{
    // GEMM at N = 400, untransformed and normalized: every processor
    // below 400 owns the same shape of work, one or two positions.
    core::CompileOptions identity;
    identity.identityTransform = true;
    for (const core::Compilation &c :
         {core::compile(ir::gallery::gemm(), identity),
          core::compile(ir::gallery::gemm())}) {
        for (Int p : {256, 4096}) {
            for (bool blocks : {true, false}) {
                SimOptions opts;
                opts.processors = p;
                opts.blockTransfers = blocks;
                const std::string what =
                    "P=" + std::to_string(p) + (blocks ? " B" : " T");
                Simulator::RunTally t =
                    checkedTally(c, opts, {{400}, {}}, false, what);
                EXPECT_GT(t.evaluated, 240u) << what;
            }
        }
    }
}

TEST(AcrossOracle, ObservedAndFaultyRunsWalkEveryProcessor)
{
    core::Compilation c = core::compile(ir::gallery::gemm());
    for (int variant = 0; variant < 3; ++variant) {
        SimOptions opts;
        opts.processors = 256;
        if (variant == 0)
            opts.perReference = true;
        if (variant == 1)
            opts.commMatrix = true;
        if (variant == 2)
            opts.faults = parseFaultSpec("drop-transfer/8");
        EXPECT_EQ(Simulator(c.program, c.nest(), c.plan, opts)
                      .runTally({{64}, {}})
                      .evaluated,
                  0u)
            << variant;
    }
}

} // namespace
} // namespace anc::numa
