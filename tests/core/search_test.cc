/**
 * @file
 * The simulator-scored plan search (xform/search.h), end to end.
 *
 * The differential suite holds the search to its contract on every
 * gallery kernel: the searched plan's simulated time never exceeds the
 * heuristic's at any swept machine size, every adopted winner passes
 * symbolic translation validation, the result is independent of
 * candidate enumeration order and of host-thread count, and a compile
 * with search enabled degrades to the heuristic -- never crashes --
 * under a full deterministic fault sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/compiler.h"
#include "ir/gallery.h"
#include "ratmath/fault.h"
#include "verify/verify.h"
#include "xform/search.h"

namespace anc::core {
namespace {

std::vector<std::pair<const char *, ir::Program>>
galleryKernels()
{
    return {
        {"figure1", ir::gallery::figure1()},
        {"section3", ir::gallery::section3Example()},
        {"scaling", ir::gallery::scalingExample()},
        {"section5", ir::gallery::section5Example()},
        {"gemm", ir::gallery::gemm()},
        {"gemv", ir::gallery::gemv()},
        {"ger", ir::gallery::ger()},
        {"jacobi2d", ir::gallery::jacobi2d()},
        {"gaussSeidel", ir::gallery::gaussSeidel()},
        {"syr2kBanded", ir::gallery::syr2kBanded()},
        {"skewedScatter", ir::gallery::skewedScatter()},
    };
}

CompileOptions
searchOptions()
{
    CompileOptions opts;
    opts.search.enabled = true;
    return opts;
}

/** Simulated parallel time of a finished compilation at P processors,
 * under the same bindings the search scores with. */
double
timeAt(const Compilation &c, Int p, const xform::SearchOptions &so)
{
    numa::SimOptions sopts;
    sopts.processors = p;
    sopts.machine = so.machine;
    sopts.symmetry = numa::SymmetryMode::Auto;
    ir::Bindings binds{IntVec(c.program.params.size(), so.paramValue),
                       std::vector<double>(c.program.scalars.size(), 1.0)};
    return simulate(c, sopts, binds).parallelTime();
}

TEST(SearchTest, SearchedNeverLosesToHeuristicAtAnySweptSize)
{
    // The admissibility rule, measured end to end: simulate both the
    // searched and the heuristic compilation at P in {4, 32, 2^12} and
    // require searched <= heuristic pointwise, on every gallery kernel.
    for (auto &[name, prog] : galleryKernels()) {
        Compilation heur = compile(prog);
        Compilation searched = compile(prog, searchOptions());
        ASSERT_TRUE(searched.search.ran) << name;
        xform::SearchOptions so; // default sweep, machine, bindings
        for (Int p : {Int(4), Int(32), Int(1) << 12}) {
            double th = timeAt(heur, p, so);
            double ts = timeAt(searched, p, so);
            EXPECT_LE(ts, th) << name << " at P=" << p;
        }
    }
}

TEST(SearchTest, SearchImprovesAtLeastTwoGalleryKernels)
{
    size_t improved = 0;
    for (auto &[name, prog] : galleryKernels()) {
        Compilation c = compile(prog, searchOptions());
        if (!c.search.improved)
            continue;
        ++improved;
        double ht = 0, wt = 0;
        for (double v : c.search.heuristicTimesUs)
            ht += v;
        for (double v : c.search.winnerTimesUs)
            wt += v;
        EXPECT_LT(wt, ht) << name;
    }
    EXPECT_GE(improved, 2u);
}

TEST(SearchTest, EveryAdoptedWinnerPassesSymbolicValidation)
{
    for (auto &[name, prog] : galleryKernels()) {
        Compilation c = compile(prog, searchOptions());
        if (!c.search.ran)
            continue;
        verify::ValidationReport rep = verify::validate(
            c.program, c.nest(), c.normalization.depMatrix, {});
        EXPECT_TRUE(rep.passed())
            << name << ": searched plan failed validation:\n"
            << rep.render();
    }
}

TEST(SearchTest, ResultIndependentOfEnumerationOrder)
{
    // searchOverCandidates() canonically sorts and dedups its input, so
    // any permutation of the same candidate list must yield a
    // byte-identical result -- trail, tie-break, and artifacts.
    for (auto make : {ir::gallery::section3Example,
                      ir::gallery::skewedScatter, ir::gallery::gemm}) {
        ir::Program prog = make();
        Compilation heur = compile(prog);
        xform::SearchOptions so;
        so.enabled = true;
        std::vector<xform::SearchCandidate> cands =
            xform::enumerateSearchCandidates(prog, heur.normalization,
                                             so);
        ASSERT_GT(cands.size(), 1u);

        std::vector<std::vector<xform::SearchCandidate>> orders;
        orders.push_back(cands);
        orders.emplace_back(cands.rbegin(), cands.rend());
        std::vector<xform::SearchCandidate> rotated(cands.begin() + 1,
                                                    cands.end());
        rotated.push_back(cands.front());
        orders.push_back(std::move(rotated));

        std::vector<std::string> renders;
        for (auto &order : orders) {
            xform::SearchResult r = xform::searchOverCandidates(
                prog, heur.normalization, heur.plan, std::move(order),
                so);
            // Substitute the result into a real compilation and render
            // the explain record: one string covering the trail, the
            // tie-break, and the chosen plan.
            Compilation c = compile(prog, searchOptions());
            c.search = r;
            std::string render = core::explain(c).renderJson();
            render += "\ntransform=";
            for (size_t i = 0; i < r.transform.rows(); ++i)
                for (Int v : r.transform.row(i))
                    render += std::to_string(v) + ",";
            render += "\nwinner=" + r.winnerOrigin;
            renders.push_back(std::move(render));
        }
        EXPECT_EQ(renders[0], renders[1]);
        EXPECT_EQ(renders[0], renders[2]);
    }
}

/** The trail record of one candidate, searched on its own: with no
 * planner-scheme base before it, a forced round-robin candidate is
 * planned from a fresh applyTransform. */
xform::SearchScore
scoredAlone(const ir::Program &prog, const Compilation &heur,
            const xform::SearchCandidate &cand,
            const xform::SearchOptions &so)
{
    xform::SearchResult r = xform::searchOverCandidates(
        prog, heur.normalization, heur.plan, {cand}, so);
    return r.trail.at(0);
}

TEST(SearchTest, RoundRobinTwinMatchesFreshPlanning)
{
    // A forced round-robin twin reuses its base's nest and plan; its
    // trail record must equal the one fresh planning produces.
    size_t twins = 0;
    for (auto &[name, prog] : galleryKernels()) {
        Compilation heur = compile(prog);
        xform::SearchOptions so;
        so.enabled = true;
        std::vector<xform::SearchCandidate> cands =
            xform::enumerateSearchCandidates(prog, heur.normalization, so);
        xform::SearchResult full = xform::searchOverCandidates(
            prog, heur.normalization, heur.plan, cands, so);
        for (const xform::SearchCandidate &cand : cands) {
            if (!cand.forceRoundRobin)
                continue;
            auto in_full = std::find_if(
                full.trail.begin(), full.trail.end(),
                [&](const xform::SearchScore &t) {
                    return t.origin == cand.origin;
                });
            ASSERT_NE(in_full, full.trail.end()) << name << cand.origin;
            xform::SearchScore alone = scoredAlone(prog, heur, cand, so);
            SCOPED_TRACE(std::string(name) + ": " + cand.origin);
            EXPECT_EQ(in_full->transform, alone.transform);
            EXPECT_EQ(in_full->scheme, alone.scheme);
            EXPECT_EQ(in_full->locality, alone.locality);
            if (in_full->verdict == "pruned")
                continue; // never simulated in the full run
            // Admissibility details compare against the heuristic,
            // which the lone search does not score.
            if (in_full->verdict == "rejected" ||
                in_full->verdict == "redundant") {
                EXPECT_EQ(in_full->detail, alone.detail);
            }
            if (in_full->verdict == "inadmissible") {
                // Scoring stopped at the first size it lost; the lone
                // run has no heuristic and scored the whole sweep.
                const std::vector<double> &stopped = in_full->simTimesUs;
                ASSERT_LE(stopped.size(), alone.simTimesUs.size());
                EXPECT_EQ(stopped,
                          std::vector<double>(alone.simTimesUs.begin(),
                                              alone.simTimesUs.begin() +
                                                  stopped.size()));
            } else {
                EXPECT_EQ(in_full->simTimesUs, alone.simTimesUs);
            }
            ++twins;
        }
    }
    EXPECT_GE(twins, 20u);
}

TEST(SearchTest, TwinOfRejectedBaseIsRejectedWithTheSameDetail)
{
    ir::Program prog = ir::gallery::gemm();
    Compilation heur = compile(prog);
    xform::SearchOptions so;
    so.enabled = true;
    IntMatrix singular(3, 3); // all zero: applyTransform rejects it
    std::vector<xform::SearchCandidate> cands = {
        {heur.normalization.transform, false, "heuristic"},
        {singular, false, "singular"},
        {singular, true, "singular + round-robin"},
    };
    xform::SearchResult r = xform::searchOverCandidates(
        prog, heur.normalization, heur.plan, cands, so);
    ASSERT_EQ(r.trail.size(), 3u);
    // Canonical order: the zero matrix first, base before twin.
    const xform::SearchScore &base = r.trail[0];
    const xform::SearchScore &twin = r.trail[1];
    EXPECT_EQ(base.origin, "singular");
    EXPECT_EQ(twin.origin, "singular + round-robin");
    EXPECT_EQ(base.verdict, "rejected");
    EXPECT_EQ(twin.verdict, "rejected");
    EXPECT_FALSE(twin.detail.empty());
    EXPECT_EQ(twin.detail, base.detail);
    EXPECT_EQ(twin.detail, scoredAlone(prog, heur, cands[2], so).detail);
    EXPECT_EQ(r.trail[2].verdict, "winner");
}

TEST(SearchTest, ResultIndependentOfHostThreadCount)
{
    // Identical inputs produce byte-identical searched plans at any
    // host thread count: the scoring simulator is bit-deterministic
    // across hostThreads, so nothing downstream may differ.
    for (auto make :
         {ir::gallery::skewedScatter, ir::gallery::gemm}) {
        CompileOptions one = searchOptions();
        one.search.hostThreads = 1;
        CompileOptions four = searchOptions();
        four.search.hostThreads = 4;
        Compilation c1 = compile(make(), one);
        Compilation c4 = compile(make(), four);
        EXPECT_EQ(c1.nodeProgram, c4.nodeProgram);
        EXPECT_EQ(core::explain(c1).renderJson(),
                  core::explain(c4).renderJson());
    }
}

TEST(SearchTest, AdoptedWinnerIsReflectedInTheCompilation)
{
    // When the search improves, the compilation's transform and plan
    // ARE the winner's; when it does not, they are the heuristic's.
    for (auto &[name, prog] : galleryKernels()) {
        Compilation heur = compile(prog);
        Compilation searched = compile(prog, searchOptions());
        if (searched.search.improved) {
            EXPECT_EQ(searched.normalization.transform,
                      searched.search.transform)
                << name;
            EXPECT_NE(searched.nodeProgram, heur.nodeProgram) << name;
        } else {
            EXPECT_EQ(searched.nodeProgram, heur.nodeProgram) << name;
        }
    }
}

TEST(SearchTest, SearchRecordLandsInExplainJson)
{
    Compilation c =
        compile(ir::gallery::skewedScatter(), searchOptions());
    ASSERT_TRUE(c.search.ran);
    ASSERT_TRUE(c.search.improved);
    obs::ExplainRecord e = core::explain(c);
    EXPECT_TRUE(e.search.ran);
    EXPECT_TRUE(e.search.improved);
    EXPECT_EQ(e.search.trail.size(), c.search.trail.size());
    std::string json = e.renderJson();
    EXPECT_NE(json.find("\"search\":{\"ran\":true"), std::string::npos);
    EXPECT_NE(json.find("\"winnerOrigin\""), std::string::npos);
    // Exactly one winner in the trail, and it is the adopted origin.
    size_t winners = 0;
    for (const auto &t : c.search.trail)
        if (t.verdict == "winner") {
            ++winners;
            EXPECT_EQ(t.origin, c.search.winnerOrigin);
        }
    EXPECT_EQ(winners, 1u);
}

class SearchFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(SearchFaultTest, FaultSweepDegradesToHeuristicWithoutCrashing)
{
    // Arm a deterministic fault at every checked-arithmetic index
    // reachable from a searched resilient compile. Whatever the fault
    // hits -- enumeration, planning, scoring, validation -- the compile
    // must come back with a plan; a fault inside the search itself must
    // not even degrade the tier.
    ir::Program prog = ir::gallery::skewedScatter();
    ResilientOptions ropts;
    ropts.base.search.enabled = true;
    fault::startCounting();
    Compilation clean = compileResilient(prog, ropts);
    uint64_t total = fault::opCount();
    fault::disarm();
    ASSERT_TRUE(clean.search.ran);
    ASSERT_GT(total, 0u);

    // The sweep is dense where the search runs and sparse through the
    // (already fault-swept) rest of the pipeline.
    for (uint64_t k = 1; k <= total; k += (k < 2000 ? 1 : 97)) {
        fault::armAt(k);
        Compilation c;
        ASSERT_NO_THROW(c = compileResilient(prog, ropts))
            << "fault at checked operation #" << k;
        fault::disarm();
        // Always a usable plan.
        EXPECT_FALSE(c.nodeProgram.empty())
            << "fault at checked operation #" << k;
        // A search failure keeps the heuristic: either the search
        // completed, or the record says it never ran and the plan is
        // the heuristic one.
        if (!c.search.ran && c.tier == CompileTier::Full) {
            bool noted = false;
            for (const Diagnostic &d : c.diagnostics.all())
                noted = noted ||
                        d.message.find("plan search failed") !=
                            std::string::npos;
            // Full tier without a search record means the search was
            // cut down by the injected fault and said so.
            EXPECT_TRUE(noted)
                << "fault at checked operation #" << k;
        }
    }
}

TEST(SearchTest, DisabledSearchLeavesNoTrace)
{
    Compilation c = compile(ir::gallery::gemm());
    EXPECT_FALSE(c.search.ran);
    EXPECT_TRUE(c.search.trail.empty());
    obs::ExplainRecord e = core::explain(c);
    EXPECT_FALSE(e.search.ran);
    std::string json = e.renderJson();
    EXPECT_NE(json.find("\"search\":{\"ran\":false"),
              std::string::npos);
}

} // namespace
} // namespace anc::core
