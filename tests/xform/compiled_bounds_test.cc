/**
 * @file
 * The integer fast paths of nest walking, held to their slow oracles.
 *
 * ir::LoopBounds compiles every transformed loop bound to an integer
 * floor/ceil form. At every loop entry a walk visits, its bounds must
 * equal the exact-rational oracle (bounds_oracle.h). The check
 * covers every gallery kernel under every plan-search candidate, four
 * parameter values, and the fuzz corpus seeds. CongruentStepper, the
 * simulator's per-reference owner counter, must agree with
 * countCongruent and with brute-force counting on an exhaustive small
 * domain.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bounds_oracle.h"
#include "core/compiler.h"
#include "dsl/parser.h"
#include "ir/gallery.h"
#include "numa/congruent.h"
#include "xform/search.h"
#include "xform/transform.h"

#ifndef ANC_CORPUS_DIR
#define ANC_CORPUS_DIR "tests/integration/corpus"
#endif

namespace anc::xform {
namespace {

using testutil::checkBoundsAgree;

/** Every distinct transformation the plan search would enumerate for
 * the compilation's normalization. */
std::vector<IntMatrix>
candidateTransforms(const ir::Program &prog, const core::Compilation &c)
{
    SearchOptions so;
    so.enabled = true;
    std::vector<IntMatrix> out;
    std::set<std::string> seen;
    for (const SearchCandidate &cand :
         enumerateSearchCandidates(prog, c.normalization, so))
        if (seen.insert(cand.transform.str()).second)
            out.push_back(cand.transform);
    return out;
}

std::vector<IntVec>
bindings(const ir::Program &prog)
{
    std::vector<IntVec> out;
    for (Int v : {1, 4, 32, 33}) {
        out.emplace_back(prog.params.size(), v);
        if (prog.params.empty())
            break;
    }
    return out;
}

TEST(CompiledBoundsTest, GalleryEveryCandidateEveryBinding)
{
    const std::vector<std::pair<const char *, ir::Program>> kernels = {
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
    uint64_t nests = 0, entries = 0;
    for (const auto &[name, prog] : kernels) {
        core::Compilation c = core::compile(prog);
        std::vector<IntMatrix> ts = candidateTransforms(prog, c);
        ASSERT_FALSE(ts.empty()) << name;
        for (const IntMatrix &t : ts) {
            TransformedNest nest = applyTransform(prog, t);
            ++nests;
            for (const IntVec &params : bindings(prog)) {
                entries += checkBoundsAgree(
                    nest, params,
                    std::string(name) + " T=" + t.str() + " N=" +
                        (params.empty() ? "-"
                                        : std::to_string(params[0])));
            }
        }
    }
    EXPECT_GE(nests, 100u);
    EXPECT_GT(entries, 10000u);
}

TEST(CompiledBoundsTest, CorpusSeeds)
{
    namespace fs = std::filesystem;
    size_t seeds = 0;
    for (const fs::directory_entry &ent :
         fs::directory_iterator(ANC_CORPUS_DIR)) {
        if (ent.path().extension() != ".an")
            continue;
        std::string name = ent.path().filename().string();
        std::ifstream in(ent.path());
        std::stringstream buf;
        buf << in.rdbuf();
        dsl::ParseResult parsed = dsl::parseProgramRecovering(buf.str());
        if (!parsed.ok())
            continue;
        ++seeds;
        const ir::Program &prog = *parsed.program;
        core::Compilation c = core::compileResilient(prog);
        for (const IntVec &params : bindings(prog))
            checkBoundsAgree(c.nest(), params, name + " compiled nest");
        if (c.degraded())
            continue; // the normalization of a degraded rung is partial
        for (const IntMatrix &t : candidateTransforms(prog, c))
            for (const IntVec &params : bindings(prog))
                checkBoundsAgree(applyTransform(prog, t), params,
                                 name + " T=" + t.str());
    }
    EXPECT_GE(seeds, 6u);
}

TEST(CompiledBoundsTest, FractionalBoundsRoundLikeTheOracle)
{
    // A non-unimodular skew gives bounds with rational coefficients of
    // both signs, so floor and ceil both have to round correctly.
    ir::Program prog = ir::gallery::gemv();
    ASSERT_EQ(prog.nest.depth(), 2u);
    TransformedNest nest = applyTransform(prog, IntMatrix{{2, 3}, {-1, 4}});
    bool fractional = false;
    for (const TransformedLoop &l : nest.loops())
        for (const ir::AffineExpr &e : l.lower)
            fractional = fractional || !e.hasIntegerCoeffs();
    EXPECT_TRUE(fractional);
    for (const IntVec &params : bindings(prog))
        checkBoundsAgree(nest, params, "gemv skewed");
}

TEST(CongruentStepperTest, MatchesCountCongruentAndBruteForce)
{
    // Exhaustive over |a|, |delta| <= 12, 1 <= m <= 16, count <= 40 and
    // every target residue; brute force tallies each target's hits and
    // last hit as the run grows one iteration at a time.
    uint64_t checked = 0;
    for (Int m = 1; m <= 16; ++m) {
        for (Int delta = -12; delta <= 12; ++delta) {
            numa::CongruentStepper stepper(delta, m);
            for (Int a = -12; a <= 12; ++a) {
                std::vector<uint64_t> hits(size_t(m), 0), last(size_t(m), 0);
                for (uint64_t count = 0; count <= 40; ++count) {
                    if (count > 0) {
                        Int j = Int(count - 1);
                        Int r = euclidMod(a + j * delta, m);
                        hits[size_t(r)] += 1;
                        last[size_t(r)] = uint64_t(j);
                    }
                    for (Int target = 0; target < m; ++target) {
                        numa::CongruentCount fast =
                            stepper.count(a, count, target);
                        numa::CongruentCount slow = numa::countCongruent(
                            a, delta, count, m, target);
                        ASSERT_EQ(fast.hits, slow.hits);
                        ASSERT_EQ(fast.jLast, slow.jLast);
                        ASSERT_EQ(fast.hits, hits[size_t(target)])
                            << "a=" << a << " delta=" << delta
                            << " m=" << m << " count=" << count
                            << " target=" << target;
                        if (fast.hits > 0) {
                            ASSERT_EQ(fast.jLast, last[size_t(target)]);
                        }
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 1000000u);
}

} // namespace
} // namespace anc::xform
