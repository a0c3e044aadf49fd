/**
 * @file
 * Unit and property tests for Fourier-Motzkin elimination: the integer
 * row engine of xform/fm.h driven level by level the way solveBounds
 * drives it, plus overflow in its combination step end to end.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/compiler.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "ir/interp.h"
#include "xform/fm.h"
#include "xform/transform.h"

namespace anc::xform {
namespace {

using ir::AffineExpr;

/** Helper: constraint "coeffs . x + params . N + c >= 0". */
AffineExpr
con(const std::vector<Int> &coeffs, Int c, const std::vector<Int> &params = {})
{
    AffineExpr e(coeffs.size(), params.size());
    for (size_t i = 0; i < coeffs.size(); ++i)
        e.varCoeff(i) = Rational(coeffs[i]);
    for (size_t p = 0; p < params.size(); ++p)
        e.paramCoeff(p) = Rational(params[p]);
    e.constantTerm() = Rational(c);
    return e;
}

/** Per-level bounds as solveBounds reads them off the engine. */
struct Bounds
{
    std::vector<std::vector<AffineExpr>> lower, upper;
    bool infeasible = false;
    /** The projection onto the parameters: rows left after every
     * variable is eliminated. */
    std::vector<fm::Row> rest;
};

/** Project the system innermost-first, reading each level's rows off
 * as bounds: UserError when a side is missing in a space not proven
 * empty, no bounds at that level when it is. */
Bounds
project(const std::vector<AffineExpr> &cons, size_t n, size_t m)
{
    Bounds out;
    out.lower.resize(n);
    out.upper.resize(n);
    fm::System sys(fm::Rounding::Exact);
    for (const AffineExpr &c : cons)
        sys.add(fm::toRow(c, fm::Rounding::Exact));
    for (size_t k = n; k-- > 0;) {
        for (const fm::Row &r : sys.rows())
            if (r.z[m + k] != 0)
                (r.z[m + k] > 0 ? out.lower[k] : out.upper[k])
                    .push_back(fm::boundOf(r, k, n, m));
        if (out.lower[k].empty() || out.upper[k].empty()) {
            if (!sys.contradiction())
                throw UserError("iteration space is unbounded");
            out.lower[k].clear();
            out.upper[k].clear();
        }
        sys = sys.eliminate(m + k);
    }
    out.infeasible = sys.contradiction();
    out.rest = sys.rows();
    return out;
}

/** Enumerate integer points of the projected bounds. */
std::set<IntVec>
enumerate(const Bounds &fm, size_t n, const IntVec &params = {})
{
    std::set<IntVec> pts;
    IntVec x(n, 0);
    std::function<void(size_t)> walk = [&](size_t k) {
        if (k == n) {
            pts.insert(x);
            return;
        }
        bool first = true;
        Int lo = 0, hi = 0;
        for (const AffineExpr &e : fm.lower[k]) {
            Int v = e.evaluate(x, params).ceil();
            lo = first ? v : std::max(lo, v);
            first = false;
        }
        first = true;
        for (const AffineExpr &e : fm.upper[k]) {
            Int v = e.evaluate(x, params).floor();
            hi = first ? v : std::min(hi, v);
            first = false;
        }
        for (Int v = lo; v <= hi; ++v) {
            x[k] = v;
            walk(k + 1);
        }
        x[k] = 0;
    };
    walk(0);
    return pts;
}

TEST(FMBasics, RectangularBox)
{
    // 0 <= x <= 3, 1 <= y <= 2.
    std::vector<AffineExpr> cs{
        con({1, 0}, 0), con({-1, 0}, 3), con({0, 1}, -1), con({0, -1}, 2)};
    Bounds fm = project(cs, 2, 0);
    EXPECT_FALSE(fm.infeasible);
    EXPECT_EQ(enumerate(fm, 2).size(), 8u);
    EXPECT_EQ(fm.lower[1].size(), 1u);
    EXPECT_EQ(fm.upper[1].size(), 1u);
}

TEST(FMBasics, Triangle)
{
    // 0 <= x, 0 <= y, x + y <= 3: 10 points.
    std::vector<AffineExpr> cs{
        con({1, 0}, 0), con({0, 1}, 0), con({-1, -1}, 3)};
    Bounds fm = project(cs, 2, 0);
    auto pts = enumerate(fm, 2);
    EXPECT_EQ(pts.size(), 10u);
    EXPECT_TRUE(pts.count({0, 3}));
    EXPECT_TRUE(pts.count({3, 0}));
    EXPECT_FALSE(pts.count({2, 2}));
}

TEST(FMBasics, UnboundedThrows)
{
    std::vector<AffineExpr> cs{con({1, 0}, 0), con({-1, 0}, 3),
                                     con({0, 1}, 0)}; // y unbounded above
    EXPECT_THROW(project(cs, 2, 0), UserError);
}

TEST(FMBasics, InfeasibleDetected)
{
    // x >= 2 and x <= 1.
    std::vector<AffineExpr> cs{con({1}, -2), con({-1}, 1)};
    Bounds fm = project(cs, 1, 0);
    EXPECT_TRUE(fm.infeasible);
}

TEST(FMBasics, RationalEmptyIntegerBox)
{
    // 1/2 <= 2x <= 3/2 has rational solutions but no integer ones;
    // FM itself is rational, so the bounds exist and enumerate to
    // nothing after ceil/floor... 2x >= 1 and 2x <= 1 -> x in [1/2, 1/2].
    std::vector<AffineExpr> cs{con({2}, -1), con({-2}, 1)};
    Bounds fm = project(cs, 1, 0);
    EXPECT_FALSE(fm.infeasible);
    EXPECT_TRUE(enumerate(fm, 1).empty());
}

TEST(FMParams, ParametricBounds)
{
    // 0 <= x <= N - 1, x <= M: bounds stay symbolic in N, M.
    AffineExpr c1 = con({1}, 0, {0, 0});
    AffineExpr c2 = con({-1}, -1, {1, 0});
    AffineExpr c3 = con({-1}, 0, {0, 1});
    Bounds fm = project({c1, c2, c3}, 1, 2);
    EXPECT_EQ(fm.upper[0].size(), 2u);
    // Combining lower 0 with uppers leaves parameter conditions
    // N - 1 >= 0 and M >= 0.
    EXPECT_EQ(fm.rest.size(), 2u);
    // Evaluate: with N = 5, M = 3 the points are 0..3.
    EXPECT_EQ(enumerate(fm, 1, {5, 3}).size(), 4u);
    EXPECT_EQ(enumerate(fm, 1, {2, 9}).size(), 2u);
}

TEST(FMParams, GemmBoundsRoundTrip)
{
    ir::Program p = ir::gallery::gemm();
    Bounds fm = project(p.nest.constraints(1), 3, 1);
    EXPECT_EQ(enumerate(fm, 3, {3}).size(), 27u);
}

TEST(FMParams, Syr2kMatchesDirectEnumeration)
{
    ir::Program p = ir::gallery::syr2kBanded();
    Bounds fm = project(p.nest.constraints(2), 3, 2);
    for (IntVec params : {IntVec{8, 3}, IntVec{5, 2}, IntVec{10, 4}}) {
        std::set<IntVec> direct;
        ir::forEachIteration(p.nest, params, [&](const IntVec &v) {
            direct.insert(v);
        });
        EXPECT_EQ(enumerate(fm, 3, params), direct);
    }
}

TEST(FMPruning, ScaledDuplicateRowsCollapse)
{
    // The regression from the dominance-pruning audit: 2x + 2N >= 0 is
    // the same halfspace as x + N >= 0 and must not survive as a second
    // min/max term at any stage (dedup of the active set, pruning of
    // the solved bounds, or the projection onto the parameters).
    AffineExpr a = con({2}, 0, {2});
    AffineExpr b = con({1}, 0, {1});
    AffineExpr up = con({-1}, 0, {1}); // x <= N
    Bounds fm = project({a, b, up}, 1, 1);
    EXPECT_EQ(fm.lower[0].size(), 1u);
    EXPECT_EQ(fm.upper[0].size(), 1u);
    // -N >= -N combined with x <= N leaves exactly one condition family
    // (2N >= 0 is the same as N >= 0).
    EXPECT_LE(fm.rest.size(), 1u);
    EXPECT_EQ(enumerate(fm, 1, {3}).size(), 7u); // -3..3
}

TEST(FMPruning, ProportionalBoundFamiliesAreNotMerged)
{
    // x <= y + 1 and x <= 2y + 2 solve for y as y >= x - 1 and
    // y >= x/2 - 1: proportional variable parts ({1} vs {1/2}, both
    // scaling to the primitive vector {1}) but DIFFERENT constraints,
    // neither dominating for all x. A pruning key that drops the
    // implicit pivot coefficient would merge them; with the pivot
    // included ({1,1,...} vs {2,1,...}) both must survive, next to the
    // plain y >= 0.
    std::vector<AffineExpr> cs{
        con({1, 0}, 0),   // x >= 0
        con({0, 1}, 0),   // y >= 0
        con({0, -1}, 3),  // y <= 3
        con({-1, 1}, 1),  // x <= y + 1
        con({-1, 2}, 2),  // x <= 2y + 2
    };
    Bounds fm = project(cs, 2, 0);
    EXPECT_EQ(fm.lower[1].size(), 3u);
    // The level-0 uppers derived by elimination (x <= 4 and x <= 8) are
    // genuinely the same constant family; there pruning SHOULD fire.
    EXPECT_EQ(fm.upper[0].size(), 1u);
    std::set<IntVec> pts = enumerate(fm, 2);
    EXPECT_TRUE(pts.count({1, 0}));  // x <= min(1, 2)
    EXPECT_FALSE(pts.count({2, 0}));
    EXPECT_TRUE(pts.count({4, 3}));  // x <= min(4, 8)
}

TEST(FMDegenerate, EqualityOnlySystemPinsEveryVariable)
{
    // x == 2 (as a pair of opposing inequalities) and y == x.
    std::vector<AffineExpr> cs{
        con({1, 0}, -2), con({-1, 0}, 2),  // x == 2
        con({-1, 1}, 0), con({1, -1}, 0),  // y == x
    };
    Bounds fm = project(cs, 2, 0);
    EXPECT_FALSE(fm.infeasible);
    std::set<IntVec> pts = enumerate(fm, 2);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_TRUE(pts.count({2, 2}));
}

TEST(FMDegenerate, InfeasibleSpaceLeaksNoParamConditions)
{
    // x >= 5, x <= 2 is empty regardless of N: the x <= N constraint
    // must not hide the contradiction.
    AffineExpr lo = con({1}, -5, {0});
    AffineExpr hi = con({-1}, 2, {0});
    AffineExpr par = con({-1}, 0, {1}); // x <= N
    Bounds fm = project({lo, hi, par}, 1, 1);
    EXPECT_TRUE(fm.infeasible);
}

TEST(FMDegenerate, InfeasibilityWinsOverUnboundedness)
{
    // A constant-false constraint proves the space empty even when a
    // variable has no upper bound; "unbounded" would be the wrong
    // verdict for an empty space.
    std::vector<AffineExpr> cs{con({1}, 0), con({0}, -1)};
    Bounds fm = project(cs, 1, 0);
    EXPECT_TRUE(fm.infeasible);
}

TEST(FMDegenerate, RedundantConstraintStressKeepsOutputBounded)
{
    // 40 positive scalings and 40 constant-slackened copies of the same
    // 2-D box: elimination must prune them to the one binding bound per
    // side instead of letting min/max terms (or the intermediate
    // active set) blow up combinatorially.
    std::vector<AffineExpr> cs;
    for (Int s = 1; s <= 20; ++s) {
        cs.push_back(con({s, 0}, 0));        // s*x >= 0
        cs.push_back(con({-s, 0}, 4 * s));   // s*x <= 4s
        cs.push_back(con({0, s}, 0));
        cs.push_back(con({0, -s}, 4 * s));
        // Slackened duplicates: dominated, never binding.
        cs.push_back(con({1, 0}, s));        // x >= -s
        cs.push_back(con({-1, 0}, 4 + s));   // x <= 4 + s
        cs.push_back(con({0, 1}, s));
        cs.push_back(con({0, -1}, 4 + s));
    }
    Bounds fm = project(cs, 2, 0);
    for (size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(fm.lower[k].size(), 1u) << "level " << k;
        EXPECT_EQ(fm.upper[k].size(), 1u) << "level " << k;
    }
    EXPECT_EQ(enumerate(fm, 2).size(), 25u);
}

TEST(FMProperty, RandomProjectionsAreExact)
{
    // For random bounded systems, the FM enumeration must equal the
    // brute-force integer point set.
    std::mt19937 rng(808);
    std::uniform_int_distribution<Int> coef(-3, 3);
    std::uniform_int_distribution<Int> cons(0, 12);
    for (int trial = 0; trial < 60; ++trial) {
        size_t n = 2 + trial % 2;
        // Box plus random cutting planes keeps the system bounded.
        std::vector<AffineExpr> cs;
        for (size_t k = 0; k < n; ++k) {
            std::vector<Int> lo(n, 0), hi(n, 0);
            lo[k] = 1;
            hi[k] = -1;
            cs.push_back(con(lo, 4));
            cs.push_back(con(hi, 4));
        }
        for (int extra = 0; extra < 2; ++extra) {
            std::vector<Int> c(n);
            bool nonzero = false;
            for (size_t k = 0; k < n; ++k) {
                c[k] = coef(rng);
                nonzero = nonzero || c[k] != 0;
            }
            if (!nonzero)
                continue;
            cs.push_back(con(c, cons(rng)));
        }
        Bounds fm = project(cs, n, 0);

        std::set<IntVec> brute;
        IntVec x(n, -4);
        std::function<void(size_t)> walk = [&](size_t k) {
            if (k == n) {
                for (const AffineExpr &c : cs) {
                    Rational acc = c.constantTerm();
                    for (size_t q = 0; q < n; ++q)
                        acc += c.varCoeff(q) * Rational(x[q]);
                    if (acc.isNegative())
                        return;
                }
                brute.insert(x);
                return;
            }
            for (Int v = -4; v <= 4; ++v) {
                x[k] = v;
                walk(k + 1);
            }
            x[k] = -4;
        };
        walk(0);
        EXPECT_EQ(enumerate(fm, n), brute) << "trial " << trial;
    }
}

TEST(FMProperty, FloorModeDecidesOneDimensionalSystems)
{
    // In one variable, flooring each row's constant makes elimination
    // exact over the integers: a contradiction is derived exactly when
    // no integer satisfies the system. Exact constants decide the
    // rational question instead, and systems like 1 <= 2x <= 1 tell the
    // two modes apart.
    std::mt19937 rng(909);
    std::uniform_int_distribution<Int> coef(-3, 3), cst(-6, 6);
    size_t gaps = 0;
    for (int trial = 0; trial < 400; ++trial) {
        // The box -10 <= x <= 10 keeps brute force finite; the random
        // rows' boundaries all lie inside it.
        std::vector<fm::Row> rows = {{{1}, 10}, {{-1}, 10}};
        for (int r = 0; r < 3; ++r) {
            Int a = coef(rng);
            rows.push_back({{a == 0 ? 2 : a}, cst(rng)});
        }
        fm::System floor(fm::Rounding::Floor), exact(fm::Rounding::Exact);
        for (const fm::Row &r : rows) {
            floor.add(r);
            exact.add(r);
        }
        bool integer_empty = true;
        for (Int x = -10; x <= 10 && integer_empty; ++x) {
            bool ok = true;
            for (const fm::Row &r : rows)
                ok = ok && r.z[0] * x + r.cst >= 0;
            integer_empty = !ok;
        }
        // Rationally empty: the largest lower bound -c/a exceeds the
        // smallest upper bound.
        Rational lo(-10), hi(10);
        for (const fm::Row &r : rows) {
            Rational b(-r.cst, r.z[0]);
            if (r.z[0] > 0 && b > lo)
                lo = b;
            if (r.z[0] < 0 && b < hi)
                hi = b;
        }
        EXPECT_EQ(floor.eliminate(0).contradiction(), integer_empty)
            << "trial " << trial;
        EXPECT_EQ(exact.eliminate(0).contradiction(), lo > hi)
            << "trial " << trial;
        gaps += integer_empty && !(lo > hi);
    }
    EXPECT_GT(gaps, 0u);
}

/** A[i + M*j, j + M*k, k] over 0 <= i, j, k <= N-1 with M = 2^17: the
 * access normalization picks the shear T = [1 M 0; 0 1 M; 0 0 1]. The
 * body rewrite multiplies T's entries by T^-1's (at most M^3), but the
 * bounds project rows of T^-1 = [1 -M M^2; 0 1 -M; 0 0 1] against
 * each other, and M^2 * M^2 leaves 64 bits. */
ir::Program
largeShear()
{
    const Int m = Int(1) << 17;
    ir::ProgramBuilder b(3);
    auto n = b.par(b.param("N"));
    size_t a = b.array("A", {n, n, n}, ir::DistributionSpec::wrapped(0));
    for (const char *v : {"i", "j", "k"})
        b.loop(v, b.cst(0), n - b.cst(1));
    ir::ArrayRef ref = b.ref(a, {b.var(0) + b.var(1).scaled(Rational(m)),
                                 b.var(1) + b.var(2).scaled(Rational(m)),
                                 b.var(2)});
    b.assign(ref, ir::Expr::binary('+', ir::Expr::arrayRead(ref),
                                   ir::Expr::number_(1.0)));
    return b.build();
}

/** Every kept row of sys satisfies its certificate over `inputs`:
 * sum_i m_i * inputs_i == scale * row, coefficients and constant. */
void
expectCertified(const fm::System &sys, const std::vector<fm::Row> &inputs,
                const std::string &where)
{
    for (size_t r = 0; r < sys.rows().size(); ++r) {
        const fm::Row &row = sys.rows()[r];
        const fm::Certificate &c = sys.certificate(r);
        ASSERT_EQ(c.m.size(), inputs.size()) << where;
        ASSERT_GT(c.scale, 0) << where;
        fm::Row sum{IntVec(row.z.size(), 0), 0};
        for (size_t i = 0; i < inputs.size(); ++i) {
            ASSERT_GE(c.m[i], 0) << where;
            for (size_t j = 0; j < row.z.size(); ++j)
                sum.z[j] += c.m[i] * inputs[i].z[j];
            sum.cst += c.m[i] * inputs[i].cst;
        }
        for (size_t j = 0; j < row.z.size(); ++j)
            EXPECT_EQ(sum.z[j], c.scale * row.z[j]) << where << " row " << r;
        EXPECT_EQ(sum.cst, c.scale * row.cst) << where << " row " << r;
    }
}

TEST(FMCertificate, EveryProjectedRowSumsFromItsInputs)
{
    // Random bounded systems seeded with unit certificates: at every
    // level, each kept row (reduced, merged with parallel rows or
    // combined) equals its certificate's combination of the inputs
    // over its scale.
    std::mt19937 rng(2323);
    std::uniform_int_distribution<Int> coef(-3, 3);
    std::uniform_int_distribution<Int> cons(0, 9);
    for (int trial = 0; trial < 80; ++trial) {
        size_t n = 2 + trial % 3;
        std::vector<fm::Row> inputs;
        for (size_t k = 0; k < n; ++k) {
            IntVec lo(n, 0), hi(n, 0);
            lo[k] = 1 + trial % 2;
            hi[k] = -1;
            inputs.push_back({lo, 4});
            inputs.push_back({hi, 4});
        }
        for (int extra = 0; extra < 3; ++extra) {
            IntVec z(n);
            for (Int &v : z)
                v = coef(rng);
            inputs.push_back({z, cons(rng)});
        }
        fm::System sys(fm::Rounding::Exact);
        for (size_t i = 0; i < inputs.size(); ++i) {
            fm::Certificate c;
            c.m.assign(inputs.size(), 0);
            c.m[i] = 1;
            sys.add(inputs[i], c);
        }
        for (size_t k = n; k-- > 0;) {
            std::string where = "trial " + std::to_string(trial) +
                                " level " + std::to_string(k);
            expectCertified(sys, inputs, where);
            for (size_t r = 0; r < sys.rows().size(); ++r)
                EXPECT_FALSE(sys.certificate(r).m.empty()) << where;
            sys = sys.eliminate(k);
        }
    }
}

TEST(FMCertificate, BookkeepingNeverThrowsOrMovesARow)
{
    // Multipliers past 64 bits drop the certificate; the rows, and
    // their overflow behavior, stay those of an uncertified system.
    const Int big = Int(1) << 62;
    fm::System sys(fm::Rounding::Exact), bare(fm::Rounding::Exact);
    std::vector<fm::Row> rows = {{{1, 3}, 0}, {{1, -2}, 5}, {{0, 1}, 1}};
    for (size_t i = 0; i < rows.size(); ++i) {
        IntVec m(rows.size(), 0);
        m[i] = big;
        sys.add(rows[i], {m, 1});
        bare.add(rows[i]);
    }
    fm::System out = sys.eliminate(1), want = bare.eliminate(1);
    ASSERT_EQ(out.rows().size(), want.rows().size());
    for (size_t r = 0; r < out.rows().size(); ++r) {
        EXPECT_EQ(out.rows()[r].z, want.rows()[r].z);
        EXPECT_EQ(out.rows()[r].cst, want.rows()[r].cst);
        EXPECT_TRUE(out.certificate(r).m.empty());
        EXPECT_TRUE(want.certificate(r).m.empty());
    }
    // Floor mode keeps no certificate: a floored constant is no sum.
    fm::System floor(fm::Rounding::Floor);
    floor.add({{2}, 1}, {IntVec{1}, 1});
    EXPECT_TRUE(floor.certificate(0).m.empty());
}

TEST(FMOverflow, CombinationLeaving64BitsThrows)
{
    // Eliminating u_1 from (K+1)u_1 + u_0 >= 0 and -K u_1 + u_0 >= 0
    // multiplies K by K + 1.
    const Int k = Int(1) << 32;
    fm::System sys(fm::Rounding::Exact);
    sys.add({{1, k + 1}, 0});
    sys.add({{1, -k}, 0});
    EXPECT_THROW(sys.eliminate(1), OverflowError);
    fm::System prover(fm::Rounding::Floor);
    prover.add({{1, k + 1}, 0});
    prover.add({{1, -k}, 0});
    EXPECT_THROW(prover.eliminate(1), OverflowError);
}

TEST(FMOverflow, SolveBoundsThrowsAndCompileDegrades)
{
    const Int m = Int(1) << 17;
    ir::Program prog = largeShear();
    IntMatrix t{{1, m, 0}, {0, 1, m}, {0, 0, 1}};
    TransformedNest body = transformBody(prog, t);
    EXPECT_THROW(solveBounds(prog, body), OverflowError);

    // The first rung fails in the bounds solve and the error escapes
    // compile(); compileResilient() drops rung by rung to the identity,
    // as for any other math fault, and validates it.
    EXPECT_THROW(core::compile(prog), OverflowError);
    core::Compilation c = core::compileResilient(prog);
    EXPECT_EQ(c.tier, core::CompileTier::Identity);
    EXPECT_TRUE(c.validated);
    std::string report = c.diagnostics.render();
    EXPECT_NE(report.find("tier 'full' failed in stage 'transform'; "
                          "degrading (integer overflow in multiplication)"),
              std::string::npos)
        << report;
}

} // namespace
} // namespace anc::xform
