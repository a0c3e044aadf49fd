/**
 * @file
 * The integer piece-cut planner (numa::findPieceCuts) against the exact
 * rational one it replaced (oracle::rationalPieceCuts): the same cuts,
 * slopes and declines on every three-deep nest of the gallery, the
 * samples, the examples and the corpus seeds, untransformed and
 * normalized, at N in {24, 40, 400} (a band b in {7, 100}) and at sizes
 * whose values approach 128 bits.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "golden_inputs.h"
#include "ir/gallery.h"
#include "numa/piece_cuts.h"
#include "piece_cuts_oracle.h"

namespace anc::numa {
namespace {

/** Every binding of prog's parameters to compare at: N for each, a band
 * parameter b from {7, 100}. */
std::vector<IntVec>
bindingsOf(const ir::Program &prog, const std::vector<Int> &sizes)
{
    std::vector<IntVec> out;
    for (Int n : sizes)
        for (Int b : {Int(7), Int(100)}) {
            IntVec v(prog.params.size(), n);
            bool banded = false;
            for (size_t q = 0; q < v.size(); ++q)
                if (prog.params[q] == "b") {
                    v[q] = b;
                    banded = true;
                }
            if (banded || b == 7)
                out.push_back(v);
        }
    return out;
}

/** Planner runs compared, and the ones that found cuts, over the fixed
 * inputs at `sizes`. */
struct Tally
{
    size_t compared = 0, withCuts = 0;
};

Tally
compareFixedInputs(const std::vector<Int> &sizes)
{
    Tally t;
    for (const golden::Input &in : golden::fixedInputs()) {
        std::optional<ir::Program> prog = golden::programOf(in);
        if (!prog)
            continue;
        for (bool identity : {true, false}) {
            core::CompileOptions co;
            co.identityTransform = identity;
            core::Compilation c;
            try {
                c = core::compile(*prog, co);
            } catch (const Error &) {
                continue; // rejected inputs simulate nothing
            }
            if (c.nest().depth() != 3)
                continue;
            for (const IntVec &params : bindingsOf(c.program, sizes)) {
                std::string what = in.name + (identity ? " plain" : " norm");
                for (Int v : params)
                    what += " " + std::to_string(v);
                EXPECT_EQ(oracle::pieceCutsDifferential(c.nest(), params), "")
                    << what;
                ++t.compared;
                try {
                    ir::LoopBounds bounds(c.nest().loops(), params);
                    const IntVec origin(3, 0);
                    PieceCuts p;
                    t.withCuts += findPieceCuts(bounds, bounds.lower(0, origin),
                                                bounds.upper(0, origin), p) &&
                                  !p.cuts.empty();
                } catch (const Error &) {
                    // Bounds past 64 bits: neither planner runs.
                }
            }
        }
    }
    return t;
}

TEST(PieceCutsOracle, FixedInputsMatchTheRationalPlanner)
{
    const Tally t = compareFixedInputs({24, 40, 400});
    EXPECT_GT(t.compared, 100u);
    EXPECT_GT(t.withCuts, 40u); // the comparison sees real cuts
}

TEST(PieceCutsOracle, HugeSizesMatchTheRationalPlanner)
{
    // N = 2^40 and 2^62: every product the planners form grows with N,
    // so this is where a value would leave 128 bits first.
    const Tally t = compareFixedInputs({Int(1) << 40, Int(1) << 62});
    EXPECT_GT(t.compared, 50u);
    EXPECT_GT(t.withCuts, 20u);
}

TEST(PieceCutsOracle, BandedSyr2kHasCutsAndDeclinesNothing)
{
    // The paper's banded SYR2K, normalized, at N = 400 and b = 100:
    // the bounds of its middle and inner loops read the outer variable,
    // so its slices are cut.
    core::Compilation c = core::compile(ir::gallery::syr2kBanded());
    ASSERT_EQ(c.nest().depth(), 3u);
    const IntVec params{400, 100};
    ir::LoopBounds bounds(c.nest().loops(), params);
    const IntVec origin(3, 0);
    PieceCuts fast, exact;
    ASSERT_TRUE(findPieceCuts(bounds, bounds.lower(0, origin),
                              bounds.upper(0, origin), fast));
    ASSERT_TRUE(oracle::rationalPieceCuts(bounds, bounds.lower(0, origin),
                                          bounds.upper(0, origin), exact));
    EXPECT_EQ(fast, exact);
    EXPECT_FALSE(fast.cuts.empty());
    EXPECT_FALSE(fast.slopes.empty());
}

/** cx * x + cy * y + c over the loop variables (x, y, z). */
ir::AffineExpr
form(Int cx, Int cy, Int c)
{
    ir::AffineExpr e(3, 0);
    e.varCoeff(0) = Rational(cx);
    e.varCoeff(1) = Rational(cy);
    e.constantTerm() = Rational(c);
    return e;
}

TEST(PieceCutsOracle, ACrossingOutsideTheMiddleRangeIsNoCut)
{
    // x in [0, 20], y in [0, 10], z >= max(0, y - x - 20) and
    // z <= min(100, y - 2x + 90). The inner lowers cross at y = x + 20,
    // the uppers at y = 2x + 10, and both crossings hold at x = 10,
    // where y = 30 lies outside the middle range: no cut there.
    struct Loop
    {
        std::vector<ir::AffineExpr> lower, upper;
    };
    const std::vector<Loop> loops = {
        {{form(0, 0, 0)}, {form(0, 0, 20)}},
        {{form(0, 0, 0)}, {form(0, 0, 10)}},
        {{form(0, 0, 0), form(-1, 1, -20)}, {form(0, 0, 100), form(-2, 1, 90)}},
    };
    const ir::LoopBounds bounds(loops, {});
    PieceCuts fast, exact;
    ASSERT_TRUE(findPieceCuts(bounds, 0, 20, fast));
    ASSERT_TRUE(oracle::rationalPieceCuts(bounds, 0, 20, exact));
    EXPECT_EQ(fast, exact);
    for (const auto &[n, d] : fast.cuts)
        EXPECT_FALSE(n == 10 && d == 1);
}

} // namespace
} // namespace anc::numa
