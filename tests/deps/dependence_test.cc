/**
 * @file
 * Unit and property tests for dependence analysis.
 */

#include <gtest/gtest.h>

#include <map>

#include "deps/dependence.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "ir/interp.h"

namespace anc::deps {
namespace {

using ir::Expr;
using ir::Program;
using ir::ProgramBuilder;

TEST(GemmDeps, MatchesPaperSection81)
{
    Program p = ir::gallery::gemm();
    DependenceInfo info = analyzeDependences(p);
    // The paper's dependence matrix for GEMM is the single column
    // (0, 0, 1): C[i, j] carried by the innermost loop.
    IntMatrix d = info.matrix(3);
    ASSERT_EQ(d.cols(), 1u);
    EXPECT_EQ(d.column(0), (IntVec{0, 0, 1}));
    // Both a flow (read-after-write) and an output dependence exist,
    // plus the anti dependence; all with the same distance.
    bool has_flow = false, has_output = false;
    for (const Dependence &dep : info.deps) {
        EXPECT_EQ(dep.arrayId, 0u);
        EXPECT_EQ(dep.distance, (IntVec{0, 0, 1}));
        if (dep.kind == DepKind::Flow)
            has_flow = true;
        if (dep.kind == DepKind::Output)
            has_output = true;
    }
    EXPECT_TRUE(has_flow);
    EXPECT_TRUE(has_output);
}

TEST(Syr2kDeps, MatchesPaperSection82)
{
    Program p = ir::gallery::syr2kBanded();
    DependenceInfo info = analyzeDependences(p);
    IntMatrix d = info.matrix(3);
    ASSERT_EQ(d.cols(), 1u);
    EXPECT_EQ(d.column(0), (IntVec{0, 0, 1}));
}

TEST(Figure1Deps, InnermostCarried)
{
    Program p = ir::gallery::figure1();
    IntMatrix d = analyzeDependences(p).matrix(3);
    ASSERT_EQ(d.cols(), 1u);
    EXPECT_EQ(d.column(0), (IntVec{0, 0, 1}));
}

TEST(NoDeps, DisjointArrays)
{
    // A[i] = B[i]: flow-free (different arrays, no self conflicts).
    ProgramBuilder b(1);
    b.array("A", {b.cst(10)});
    b.array("B", {b.cst(10)});
    b.loop("i", b.cst(0), b.cst(9));
    b.assign(b.ref(0, {b.var(0)}), Expr::arrayRead(b.ref(1, {b.var(0)})));
    DependenceInfo info = analyzeDependences(b.build());
    EXPECT_TRUE(info.deps.empty());
    EXPECT_EQ(info.matrix(1).cols(), 0u);
}

TEST(ConstantDistance, ShiftedReference)
{
    // A[i] = A[i-1]: flow dependence with distance 1.
    ProgramBuilder b(1);
    b.array("A", {b.cst(10)});
    b.loop("i", b.cst(1), b.cst(9));
    b.assign(b.ref(0, {b.var(0)}),
             Expr::arrayRead(b.ref(0, {b.var(0) - b.cst(1)})));
    DependenceInfo info = analyzeDependences(b.build());
    IntMatrix d = info.matrix(1);
    ASSERT_EQ(d.cols(), 1u);
    EXPECT_EQ(d(0, 0), 1);
    bool found_exact_flow = false;
    for (const Dependence &dep : info.deps)
        if (dep.kind == DepKind::Flow && dep.exact &&
            dep.distance == IntVec{1})
            found_exact_flow = true;
    EXPECT_TRUE(found_exact_flow);
}

TEST(ConstantDistance, AntiDependenceNormalized)
{
    // A[i] = A[i+1]: the value read at iteration i is overwritten at
    // i+1, an anti dependence with (lex-positive) distance 1.
    ProgramBuilder b(1);
    b.array("A", {b.cst(11)});
    b.loop("i", b.cst(0), b.cst(9));
    b.assign(b.ref(0, {b.var(0)}),
             Expr::arrayRead(b.ref(0, {b.var(0) + b.cst(1)})));
    DependenceInfo info = analyzeDependences(b.build());
    bool found = false;
    for (const Dependence &dep : info.deps)
        if (dep.kind == DepKind::Anti && dep.distance == IntVec{1})
            found = true;
    EXPECT_TRUE(found);
    // No lexicographically negative distances may ever be emitted.
    for (const Dependence &dep : info.deps)
        EXPECT_GE(leadingSign(dep.distance), 0);
}

TEST(ConstantDistance, TwoDimensionalSkewedPair)
{
    // A[i, j] = A[i-1, j+2]: distance (1, -2).
    ProgramBuilder b(2);
    b.array("A", {b.cst(12), b.cst(12)});
    b.loop("i", b.cst(1), b.cst(9));
    b.loop("j", b.cst(2), b.cst(9));
    b.assign(b.ref(0, {b.var(0), b.var(1)}),
             Expr::arrayRead(
                 b.ref(0, {b.var(0) - b.cst(1), b.var(1) + b.cst(2)})));
    IntMatrix d = analyzeDependences(b.build()).matrix(2);
    ASSERT_EQ(d.cols(), 1u);
    EXPECT_EQ(d.column(0), (IntVec{1, -2}));
}

TEST(NoSolution, GcdFilteredOut)
{
    // A[2i] = A[2i+1]: even vs odd elements never collide.
    ProgramBuilder b(1);
    b.array("A", {b.cst(30)});
    b.loop("i", b.cst(0), b.cst(9));
    b.assign(b.ref(0, {b.var(0).scaled(Rational(2))}),
             Expr::arrayRead(b.ref(0, {b.var(0).scaled(Rational(2)) +
                                       b.cst(1)})));
    DependenceInfo info = analyzeDependences(b.build());
    EXPECT_TRUE(info.deps.empty());
}

TEST(LatticeDistance, ReductionOverInnerLoop)
{
    // S[i] = S[i] + A[i, j]: the j loop carries (0, t) for all t != 0;
    // the single generator (0, 1) is the exact representation.
    ProgramBuilder b(2);
    b.array("S", {b.cst(10)});
    b.array("A", {b.cst(10), b.cst(10)});
    b.loop("i", b.cst(0), b.cst(9));
    b.loop("j", b.cst(0), b.cst(9));
    b.assign(b.ref(0, {b.var(0)}),
             Expr::binary('+', Expr::arrayRead(b.ref(0, {b.var(0)})),
                          Expr::arrayRead(b.ref(1, {b.var(0), b.var(1)}))));
    DependenceInfo info = analyzeDependences(b.build());
    IntMatrix d = info.matrix(2);
    ASSERT_EQ(d.cols(), 1u);
    EXPECT_EQ(d.column(0), (IntVec{0, 1}));
    EXPECT_FALSE(info.imprecise);
}

TEST(LatticeDistance, TwoGeneratorsMarkedImprecise)
{
    // S[0] = S[0] + A[i, j] (scalar-like): both loops carry; two
    // generators, analysis flags imprecision.
    ProgramBuilder b(2);
    b.array("S", {b.cst(2)});
    b.array("A", {b.cst(10), b.cst(10)});
    b.loop("i", b.cst(0), b.cst(9));
    b.loop("j", b.cst(0), b.cst(9));
    b.assign(b.ref(0, {b.cst(0)}),
             Expr::binary('+', Expr::arrayRead(b.ref(0, {b.cst(0)})),
                          Expr::arrayRead(b.ref(1, {b.var(0), b.var(1)}))));
    DependenceInfo info = analyzeDependences(b.build());
    EXPECT_TRUE(info.imprecise);
    EXPECT_GE(info.matrix(2).cols(), 1u);
}

TEST(ParamSubscripts, EqualParamPartsCancel)
{
    // SYR2K-style subscripts i-k+b share the parameter part; analysis
    // must still find the exact distance.
    Program p = ir::gallery::syr2kBanded();
    DependenceInfo info = analyzeDependences(p);
    EXPECT_FALSE(info.imprecise);
}

TEST(LoopIndependent, CrossStatementZeroDistance)
{
    // S1: A[i] = 1; S2: B[i] = A[i]. Flow dependence, zero distance.
    ProgramBuilder b(1);
    b.array("A", {b.cst(10)});
    b.array("B", {b.cst(10)});
    b.loop("i", b.cst(0), b.cst(9));
    b.assign(b.ref(0, {b.var(0)}), Expr::number_(1.0));
    b.assign(b.ref(1, {b.var(0)}), Expr::arrayRead(b.ref(0, {b.var(0)})));
    DependenceInfo info = analyzeDependences(b.build());
    bool found = false;
    for (const Dependence &d : info.deps) {
        if (d.kind == DepKind::Flow && isZero(d.distance)) {
            EXPECT_EQ(d.srcStmt, 0u);
            EXPECT_EQ(d.dstStmt, 1u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    // Zero distances are excluded from the matrix.
    EXPECT_EQ(info.matrix(1).cols(), 0u);
}

TEST(DirectionStr, Rendering)
{
    Dependence d{0, 0, 0, DepKind::Flow, {0, 1, -1}, true};
    EXPECT_EQ(d.directionStr(), "(=, <, >)");
    Dependence g{0, 0, 0, DepKind::Flow, {0, 1, 0}, false};
    EXPECT_EQ(g.directionStr(), "(=, <*, =)");
}

TEST(LegalityCheck, MatrixTimesDependence)
{
    IntMatrix d(3, 1);
    d(2, 0) = 1; // (0, 0, 1)
    // Interchange i<->k flips the dependence to (1, 0, 0): legal.
    IntMatrix swap_ik{{0, 0, 1}, {0, 1, 0}, {1, 0, 0}};
    EXPECT_TRUE(isLegalTransformation(swap_ik, d));
    // Reversal of k alone: illegal.
    IntMatrix rev_k{{1, 0, 0}, {0, 1, 0}, {0, 0, -1}};
    EXPECT_FALSE(isLegalTransformation(rev_k, d));
    // Section 6's example: A = [[-1,1,0],[0,1,-1]] padded cannot be
    // legal because row 2 maps the dependence to -1.
    IntMatrix bad{{-1, 1, 0}, {0, 1, -1}, {1, 0, 0}};
    EXPECT_FALSE(isLegalTransformation(bad, d));
    // Empty dependence matrix: everything is legal.
    EXPECT_TRUE(isLegalTransformation(rev_k, IntMatrix(3, 0)));
}

TEST(TraceProperty, DistancesObservedInExecutionAreCovered)
{
    // Empirical soundness check: for every pair of accesses to the same
    // element where at least one is a write, the iteration distance must
    // be zero or appear among the analyzed distances (up to scaling by
    // a positive integer of a generator).
    Program p = ir::gallery::syr2kBanded();
    DependenceInfo info = analyzeDependences(p);
    IntMatrix dmat = info.matrix(3);

    ir::ArrayStorage store(p, {6, 2});
    store.fillDeterministic(11);
    std::map<std::pair<size_t, size_t>, std::vector<std::pair<IntVec, bool>>>
        touched; // (array, flat) -> [(iter, isWrite)]
    IntVec cur(3);
    ir::Bindings binds{{6, 2}, {1.0, 1.0}};
    ir::CompiledBody body(p.nest.body(), p.nest.depth(), binds);
    ir::TraceFn trace = [&](const ir::AccessEvent &e) {
        size_t flat = store.flatten(e.arrayId, e.subscript);
        touched[{e.arrayId, flat}].push_back({cur, e.isWrite});
    };
    ir::forEachIteration(p.nest, binds.paramValues, [&](const IntVec &it) {
        cur = it;
        body.exec(cur, store, trace);
    });

    auto covered = [&](const IntVec &d) {
        if (isZero(d))
            return true;
        for (size_t c = 0; c < dmat.cols(); ++c) {
            IntVec g = dmat.column(c);
            // d == s * g for a positive integer s?
            Int s = 0;
            bool ok = true;
            for (size_t k = 0; k < d.size() && ok; ++k) {
                if (g[k] == 0) {
                    ok = d[k] == 0;
                } else if (d[k] % g[k] != 0) {
                    ok = false;
                } else {
                    Int q = d[k] / g[k];
                    if (s == 0)
                        s = q;
                    ok = (q == s && s > 0);
                }
            }
            if (ok && s > 0)
                return true;
        }
        return false;
    };

    for (const auto &[key, accesses] : touched) {
        for (size_t x = 0; x < accesses.size(); ++x) {
            for (size_t y = x + 1; y < accesses.size(); ++y) {
                if (!accesses[x].second && !accesses[y].second)
                    continue;
                IntVec d(3);
                for (size_t k = 0; k < 3; ++k)
                    d[k] = accesses[y].first[k] - accesses[x].first[k];
                EXPECT_TRUE(covered(d))
                    << "uncovered distance (" << d[0] << "," << d[1] << ","
                    << d[2] << ")";
            }
        }
    }
}

} // namespace
} // namespace anc::deps
