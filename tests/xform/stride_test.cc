/**
 * @file
 * Unit tests for innermost-stride analysis (the Section 9 vector
 * application) and for Fourier-Motzkin dominance pruning.
 */

#include <gtest/gtest.h>

#include "bounds_oracle.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "xform/classic.h"
#include "xform/normalize.h"
#include "xform/stride.h"

namespace anc::xform {
namespace {

TEST(StrideTest, GemmSourceStrides)
{
    ir::Program p = ir::gallery::gemm();
    auto strides = analyzeInnerStrides(p.nest);
    // write C, read C, read A, read B along k.
    ASSERT_EQ(strides.size(), 4u);
    // C[i, j]: invariant in k.
    EXPECT_EQ(strides[0].strides[0], Rational(0));
    EXPECT_EQ(strides[0].strides[1], Rational(0));
    EXPECT_FALSE(strides[0].isWrite == false && strides[0].stmt != 0);
    // A[i, k]: stride 1 in dim 1.
    EXPECT_EQ(strides[2].strides[1], Rational(1));
    EXPECT_TRUE(strides[2].constantStride());
    EXPECT_TRUE(strides[2].singleDimension());
    // B[k, j]: stride 1 in dim 0 (a column-major vector machine would
    // want the interchange).
    EXPECT_EQ(strides[3].strides[0], Rational(1));
}

TEST(StrideTest, ScaledTransformedStridesStayIntegral)
{
    // After scaling, the innermost loop steps by 2, and a subscript
    // with coefficient 1/2 still changes by an integer per iteration.
    ir::Program p = ir::gallery::scalingExample();
    TransformedNest tn = applyTransform(p, scaling(1, 0, 2));
    auto strides = analyzeInnerStrides(tn);
    ASSERT_FALSE(strides.empty());
    // A[u]: stride (coeff 1) * (step 2) = 2 elements per iteration.
    EXPECT_EQ(strides[0].strides[0], Rational(2));
    EXPECT_TRUE(strides[0].constantStride());
}

TEST(StrideTest, NormalizationProducesConstantStrides)
{
    // The vector_stride example's kernel, as a library-level check:
    // A[i+j, 2j] is not single-dimension along j; after normalization
    // every reference has constant, single-dimension stride.
    ir::ProgramBuilder b(2);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    size_t arr_s = b.array("S", {N.scaled(Rational(2))});
    size_t arr_a =
        b.array("A", {N.scaled(Rational(2)), N.scaled(Rational(2))});
    b.loop("i", b.cst(0), N - b.cst(1));
    b.loop("j", b.cst(0), N - b.cst(1));
    auto vi = b.var(0), vj = b.var(1);
    b.assign(b.ref(arr_s, {vi + vj}),
             ir::Expr::binary(
                 '+', ir::Expr::arrayRead(b.ref(arr_s, {vi + vj})),
                 ir::Expr::arrayRead(
                     b.ref(arr_a, {vi + vj, vj.scaled(Rational(2))}))));
    ir::Program p = b.build();

    bool source_single = true;
    for (const RefStride &r : analyzeInnerStrides(p.nest))
        source_single = source_single && r.singleDimension();
    EXPECT_FALSE(source_single); // A varies in both dims along j

    NormalizeResult nr = accessNormalize(p);
    for (const RefStride &r : analyzeInnerStrides(*nr.nest)) {
        EXPECT_TRUE(r.constantStride());
        EXPECT_TRUE(r.singleDimension());
    }
}

TEST(StrideTest, EmptyAndDegenerate)
{
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(4)});
    b.loop("i", b.cst(0), b.cst(3));
    b.assign(b.ref(0, {b.cst(2)}), ir::Expr::number_(1.0));
    ir::Program p = b.build();
    auto strides = analyzeInnerStrides(p.nest);
    ASSERT_EQ(strides.size(), 1u);
    EXPECT_EQ(strides[0].strides[0], Rational(0));
    EXPECT_TRUE(strides[0].singleDimension());
}

/** Subscript deltas of successive innermost iterations must equal the
 * reported strides -- the empirical meaning of RefStride::strides. */
void
expectStridesMatchExecution(const TransformedNest &tn)
{
    auto strides = analyzeInnerStrides(tn);
    std::vector<IntVec> visited;
    tn.forEachIteration({}, [&](const IntVec &u) {
        visited.push_back(u);
    });
    ASSERT_GE(visited.size(), 2u);
    size_t inner = tn.depth() - 1;
    size_t ri = 0;
    for (const ir::Statement &s : tn.body()) {
        s.forEachRef([&](const ir::ArrayRef &r, bool) {
            const RefStride &rs = strides[ri++];
            for (size_t k = 1; k < visited.size(); ++k) {
                bool same_prefix = true;
                for (size_t d = 0; d < inner; ++d)
                    same_prefix = same_prefix &&
                                  visited[k][d] == visited[k - 1][d];
                if (!same_prefix)
                    continue; // innermost loop restarted
                for (size_t d = 0; d < r.subscripts.size(); ++d) {
                    Rational delta =
                        r.subscripts[d].evaluate(visited[k], {}) -
                        r.subscripts[d].evaluate(visited[k - 1], {});
                    EXPECT_EQ(delta, rs.strides[d])
                        << "dim " << d << " between steps " << k - 1
                        << " and " << k;
                }
            }
        });
    }
    ASSERT_EQ(ri, strides.size());
}

TEST(StrideTest, ReversalGivesNegativeStrideUnderPositiveLoopStep)
{
    // T = [[-1]] reverses the loop. HNF keeps the emitted step
    // positive, so the reversal must surface as a negative subscript
    // stride: the reference physically walks DOWN the array.
    ir::Program p = ir::gallery::scalingExample();
    IntMatrix rev(1, 1);
    rev(0, 0) = -1;
    TransformedNest tn = applyTransform(p, rev);
    EXPECT_GT(tn.loops().back().stride, 0);
    auto strides = analyzeInnerStrides(tn);
    ASSERT_FALSE(strides.empty());
    EXPECT_TRUE(strides[0].strides[0].isNegative());
    EXPECT_EQ(strides[0].strides[0], Rational(-2)); // A[2i], step -1
    expectStridesMatchExecution(tn);
}

TEST(StrideTest, ScaledReversalCombinesLatticeStepAndSign)
{
    // T = [[-2]]: the lattice stride is |−2| = 2 (HNF is positive),
    // the direction lives in the subscript coefficient −1; together
    // the reference moves −2 elements per executed iteration.
    ir::Program p = ir::gallery::scalingExample();
    IntMatrix t(1, 1);
    t(0, 0) = -2;
    TransformedNest tn = applyTransform(p, t);
    EXPECT_EQ(tn.loops().back().stride, 2);
    auto strides = analyzeInnerStrides(tn);
    ASSERT_FALSE(strides.empty());
    EXPECT_EQ(strides[0].strides[0], Rational(-2));
    EXPECT_TRUE(strides[0].constantStride());
    expectStridesMatchExecution(tn);
}

TEST(StrideTest, DepthOneIdentityMatchesSourceAnalysis)
{
    ir::Program p = ir::gallery::scalingExample();
    TransformedNest tn = applyTransform(p, IntMatrix::identity(1));
    auto src = analyzeInnerStrides(p.nest);
    auto xfm = analyzeInnerStrides(tn);
    ASSERT_EQ(src.size(), xfm.size());
    for (size_t i = 0; i < src.size(); ++i)
        EXPECT_EQ(src[i].strides, xfm[i].strides) << "ref " << i;
}

TEST(StrideTest, ZeroDepthTransformedNestYieldsNoStrides)
{
    TransformedNest empty(IntMatrix(0, 0), RatMatrix(0, 0),
                          Lattice(IntMatrix(0, 0)), {}, {});
    EXPECT_TRUE(analyzeInnerStrides(empty).empty());
}

TEST(FMPruning, DominatedBoundsDropped)
{
    // i >= 0, i >= -5, i >= -1 collapse to the single bound i >= 0;
    // uppers keep only the minimum constant.
    ir::ProgramBuilder b(1);
    b.array("A", {b.cst(32)});
    size_t li = b.loop("i", b.cst(0), b.cst(9));
    b.addLower(li, b.cst(-5));
    b.addLower(li, b.cst(-1));
    b.addUpper(li, b.cst(12));
    b.addUpper(li, b.cst(30));
    b.assign(b.ref(0, {b.var(0)}), ir::Expr::number_(1.0));
    ir::Program p = b.build();
    TransformedNest tn = applyTransform(p, IntMatrix::identity(1));
    ASSERT_EQ(tn.loops()[0].lower.size(), 1u);
    ASSERT_EQ(tn.loops()[0].upper.size(), 1u);
    EXPECT_EQ(testutil::lowerAt(tn, 0, {0}, {}), 0);
    EXPECT_EQ(testutil::upperAt(tn, 0, {0}, {}), 9);
}

TEST(FMPruning, DistinctCoefficientBoundsKept)
{
    // Bounds with different variable parts (i <= 9 vs i <= j + 2) must
    // both survive pruning.
    ir::ProgramBuilder b(2);
    b.array("A", {b.cst(16), b.cst(16)});
    b.loop("j", b.cst(0), b.cst(9));
    size_t li = b.loop("i", b.cst(0), b.cst(9));
    b.addUpper(li, b.var(0) + b.cst(2));
    b.assign(b.ref(0, {b.var(1), b.var(0)}), ir::Expr::number_(1.0));
    ir::Program p = b.build();
    TransformedNest tn = applyTransform(p, IntMatrix::identity(2));
    EXPECT_EQ(tn.loops()[1].upper.size(), 2u);
    EXPECT_EQ(testutil::upperAt(tn, 1, {0, 0}, {}), 2);
    EXPECT_EQ(testutil::upperAt(tn, 1, {9, 0}, {}), 9);
}

} // namespace
} // namespace anc::xform
