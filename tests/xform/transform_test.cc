/**
 * @file
 * Unit and property tests for invertible loop transformations.
 *
 * The central properties: (1) the transformed nest enumerates exactly
 * the image of the source iteration space, in lexicographic order, with
 * each source iteration visited exactly once, for ANY invertible T;
 * (2) for legal T, executing the transformed body reproduces the source
 * program's memory state exactly.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "../ratmath/test_util.h"
#include "bounds_oracle.h"
#include "deps/dependence.h"
#include "ir/gallery.h"
#include "xform/classic.h"
#include "xform/transform.h"

namespace anc::xform {
namespace {

using ir::Program;
using testutil::randomInvertibleMatrix;
using testutil::randomUnimodularMatrix;

/** Multiset of source iterations visited by the transformed nest. */
std::map<IntVec, int>
visitedOldIterations(const TransformedNest &tn, const IntVec &params)
{
    std::map<IntVec, int> seen;
    tn.forEachIteration(params, [&](const IntVec &u) {
        seen[tn.oldIteration(u)] += 1;
    });
    return seen;
}

/** Check the one-to-one onto property against the source nest. */
void
expectBijective(const Program &p, const TransformedNest &tn,
                const IntVec &params)
{
    std::map<IntVec, int> expected;
    ir::forEachIteration(p.nest, params, [&](const IntVec &v) {
        expected[v] += 1;
    });
    EXPECT_EQ(visitedOldIterations(tn, params), expected);
}

TEST(ScalingExample, PaperSection3)
{
    // for i = 1,3: A[2i] = i  becomes  for u = 2,6 step 2: A[u] = u/2.
    Program p = ir::gallery::scalingExample();
    TransformedNest tn = applyTransform(p, scaling(1, 0, 2));
    EXPECT_EQ(tn.loops()[0].stride, 2);
    EXPECT_EQ(testutil::lowerAt(tn, 0, {0}, {}), 2);
    EXPECT_EQ(testutil::upperAt(tn, 0, {0}, {}), 6);
    std::vector<Int> us;
    tn.forEachIteration({}, [&](const IntVec &u) { us.push_back(u[0]); });
    EXPECT_EQ(us, (std::vector<Int>{2, 4, 6}));
    // The rewritten subscript is u; the stored value is u/2.
    ir::ArrayStorage store(p, {});
    tn.run({{}, {}}, store);
    EXPECT_EQ(store.at(0, {2}), 1.0);
    EXPECT_EQ(store.at(0, {4}), 2.0);
    EXPECT_EQ(store.at(0, {6}), 3.0);
}

TEST(Section3Example, NonUnimodularBoundsAndSteps)
{
    Program p = ir::gallery::section3Example();
    IntMatrix t{{2, 4}, {1, 5}};
    TransformedNest tn = applyTransform(p, t);
    // det 6; strides from HNF [[2,0],[1,3]].
    EXPECT_EQ(tn.loops()[0].stride, 2);
    EXPECT_EQ(tn.loops()[1].stride, 3);
    // Outer loop: u = 6..18 step 2 (paper's restructured form).
    EXPECT_EQ(testutil::lowerAt(tn, 0, {0, 0}, {}), 6);
    EXPECT_EQ(testutil::upperAt(tn, 0, {0, 0}, {}), 6 + euclidMod(0 - 6, 2) + 12);
    EXPECT_EQ(tn.startAt(0, 6, {}), 6);
    expectBijective(p, tn, {});
    // Exactly 9 iterations survive (3x3 source points).
    uint64_t count = tn.forEachIteration({}, [](const IntVec &) {});
    EXPECT_EQ(count, 9u);
}

TEST(Section3Example, ValuesMatchSequential)
{
    Program p = ir::gallery::section3Example();
    ir::ArrayStorage seq(p, {});
    ir::run(p, {{}, {}}, seq);

    TransformedNest tn = applyTransform(p, IntMatrix{{2, 4}, {1, 5}});
    ir::ArrayStorage par(p, {});
    tn.run({{}, {}}, par);
    EXPECT_EQ(seq.data(0), par.data(0));
}

TEST(ApplyTransform, IdentityIsNoOp)
{
    Program p = ir::gallery::gemm();
    TransformedNest tn = applyTransform(p, IntMatrix::identity(3));
    EXPECT_EQ(tn.loops()[0].stride, 1);
    expectBijective(p, tn, {4});
    std::vector<IntVec> order_orig, order_new;
    ir::forEachIteration(p.nest, {3}, [&](const IntVec &v) {
        order_orig.push_back(v);
    });
    tn.forEachIteration({3}, [&](const IntVec &u) {
        order_new.push_back(tn.oldIteration(u));
    });
    EXPECT_EQ(order_orig, order_new);
}

TEST(ApplyTransform, SingularMatrixThrows)
{
    Program p = ir::gallery::gemm();
    IntMatrix sing{{1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
    EXPECT_THROW(applyTransform(p, sing), MathError);
}

TEST(ApplyTransform, InterchangeReordersIterations)
{
    Program p = ir::gallery::gemm();
    TransformedNest tn = applyTransform(p, interchange(3, 0, 2));
    expectBijective(p, tn, {3});
    // First visited iteration must be (i, j, k) = (0, 0, 0); second, in
    // the transformed order, varies i last... new order is (k, j, i).
    std::vector<IntVec> order;
    tn.forEachIteration({2}, [&](const IntVec &u) {
        order.push_back(tn.oldIteration(u));
    });
    ASSERT_EQ(order.size(), 8u);
    EXPECT_EQ(order[0], (IntVec{0, 0, 0}));
    EXPECT_EQ(order[1], (IntVec{1, 0, 0})); // i fastest now
}

TEST(ApplyTransform, ReversalRunsBackwards)
{
    Program p = ir::gallery::scalingExample();
    TransformedNest tn = applyTransform(p, reversal(1, 0));
    std::vector<Int> order;
    tn.forEachIteration({}, [&](const IntVec &u) {
        order.push_back(tn.oldIteration(u)[0]);
    });
    EXPECT_EQ(order, (std::vector<Int>{3, 2, 1}));
}

TEST(ApplyTransform, SkewedTriangularBounds)
{
    // Figure 1's program with the paper's transformation X: the new
    // outer loop must run over u = j - i in [0, b-1].
    Program p = ir::gallery::figure1();
    IntMatrix x{{-1, 1, 0}, {0, 1, 1}, {1, 0, 0}};
    TransformedNest tn = applyTransform(p, x);
    IntVec params{5, 4, 3}; // N1, N2, b
    expectBijective(p, tn, params);
    EXPECT_EQ(testutil::lowerAt(tn, 0, {0, 0, 0}, params), 0);
    EXPECT_EQ(testutil::upperAt(tn, 0, {0, 0, 0}, params), 2); // b - 1
    // Paper figure 1(c): v runs from u to u + N1 + N2 - 2 (the exact
    // outer range; inner w-bounds carve the interior).
    EXPECT_EQ(testutil::lowerAt(tn, 1, {0, 0, 0}, params), 0);
    EXPECT_EQ(testutil::upperAt(tn, 1, {0, 0, 0}, params), 7); // 0 + 5 + 4 - 2
}

TEST(ApplyTransform, BodyRewriteProducesIntegerSubscripts)
{
    Program p = ir::gallery::section3Example();
    TransformedNest tn = applyTransform(p, IntMatrix{{2, 4}, {1, 5}});
    // Every subscript evaluates to an integer at every lattice point.
    tn.forEachIteration({}, [&](const IntVec &u) {
        for (const ir::Statement &s : tn.body()) {
            for (const ir::AffineExpr &e : s.lhs.subscripts)
                EXPECT_NO_THROW(e.evaluateInt(u, {}));
        }
    });
}

TEST(ApplyTransform, LatticePointsOnly)
{
    Program p = ir::gallery::section3Example();
    IntMatrix t{{2, 4}, {1, 5}};
    TransformedNest tn = applyTransform(p, t);
    tn.forEachIteration({}, [&](const IntVec &u) {
        EXPECT_TRUE(tn.lattice().contains(u));
    });
}

TEST(TransformProperty, RandomInvertibleBijectivity)
{
    // For random invertible T (unimodular and not), the transformed
    // enumeration visits each source iteration exactly once.
    std::mt19937 rng(4321);
    Program p2 = ir::gallery::section3Example();
    for (int trial = 0; trial < 40; ++trial) {
        IntMatrix t = randomInvertibleMatrix(rng, 2, -3, 3);
        TransformedNest tn = applyTransform(p2, t);
        expectBijective(p2, tn, {});
    }
}

TEST(TransformProperty, RandomUnimodular3D)
{
    std::mt19937 rng(99);
    Program p = ir::gallery::figure1();
    IntVec params{4, 3, 3};
    for (int trial = 0; trial < 25; ++trial) {
        IntMatrix t = randomUnimodularMatrix(rng, 3);
        TransformedNest tn = applyTransform(p, t);
        EXPECT_EQ(tn.loops()[0].stride, 1);
        expectBijective(p, tn, params);
    }
}

TEST(TransformProperty, RandomScaledUnimodular3D)
{
    // Compose unimodular transformations with diagonal scalings: the
    // general invertible case on a triangular space.
    std::mt19937 rng(911);
    Program p = ir::gallery::syr2kBanded();
    IntVec params{6, 2};
    std::uniform_int_distribution<Int> sc(1, 3);
    for (int trial = 0; trial < 20; ++trial) {
        IntMatrix t = randomUnimodularMatrix(rng, 3);
        for (size_t k = 0; k < 3; ++k) {
            Int f = sc(rng);
            for (size_t j = 0; j < 3; ++j)
                t(k, j) = checkedMul(t(k, j), f);
        }
        TransformedNest tn = applyTransform(p, t);
        expectBijective(p, tn, params);
    }
}

TEST(TransformProperty, LexicographicOrderPreservedUnderLegalT)
{
    // When T maps every dependence to a lex-positive vector, the new
    // execution order must respect source order on dependent pairs; we
    // check the stronger structural fact that the enumeration is in lex
    // order of u.
    Program p = ir::gallery::gemm();
    TransformedNest tn = applyTransform(p, interchange(3, 0, 1));
    IntVec prev;
    bool first = true;
    tn.forEachIteration({3}, [&](const IntVec &u) {
        if (!first) {
            EXPECT_TRUE(std::lexicographical_compare(prev.begin(),
                                                     prev.end(), u.begin(),
                                                     u.end()));
        }
        prev = u;
        first = false;
    });
}

TEST(ExecutionProperty, LegalTransformsPreserveGemmResults)
{
    Program p = ir::gallery::gemm();
    IntMatrix dep = deps::analyzeDependences(p).matrix(3);
    std::mt19937 rng(31415);
    Int n = 5;

    ir::ArrayStorage ref_store(p, {n});
    ref_store.fillDeterministic(5);
    ir::run(p, {{n}, {}}, ref_store);

    int tested = 0;
    for (int trial = 0; trial < 60 && tested < 12; ++trial) {
        IntMatrix t = randomInvertibleMatrix(rng, 3, -2, 2);
        if (!deps::isLegalTransformation(t, dep))
            continue;
        ++tested;
        TransformedNest tn = applyTransform(p, t);
        ir::ArrayStorage store(p, {n});
        store.fillDeterministic(5);
        tn.run({{n}, {}}, store);
        EXPECT_EQ(store.data(0), ref_store.data(0)) << t.str();
    }
    EXPECT_GE(tested, 5);
}

TEST(ExecutionProperty, LegalTransformsPreserveSyr2kResults)
{
    Program p = ir::gallery::syr2kBanded();
    IntMatrix dep = deps::analyzeDependences(p).matrix(3);
    std::mt19937 rng(2718);
    IntVec params{7, 3};
    ir::Bindings binds{params, {1.0, 1.0}};

    ir::ArrayStorage ref_store(p, params);
    ref_store.fillDeterministic(9);
    ir::run(p, binds, ref_store);

    int tested = 0;
    for (int trial = 0; trial < 80 && tested < 10; ++trial) {
        IntMatrix t = randomInvertibleMatrix(rng, 3, -2, 2);
        if (!deps::isLegalTransformation(t, dep))
            continue;
        ++tested;
        TransformedNest tn = applyTransform(p, t);
        ir::ArrayStorage store(p, params);
        store.fillDeterministic(9);
        tn.run(binds, store);
        EXPECT_EQ(store.data(0), ref_store.data(0)) << t.str();
    }
    EXPECT_GE(tested, 5);
}

TEST(PrintTransformed, ShowsStepsAndBounds)
{
    Program p = ir::gallery::scalingExample();
    TransformedNest tn = applyTransform(p, scaling(1, 0, 2));
    std::string s = printTransformedNest(tn, p);
    EXPECT_NE(s.find("step 2"), std::string::npos) << s;
    EXPECT_NE(s.find("A[u]"), std::string::npos) << s;
    // The rewritten rhs is u/2.
    EXPECT_NE(s.find("1/2*u"), std::string::npos) << s;
}

TEST(LoopVarNames, Sequence)
{
    EXPECT_EQ(newLoopVarName(0), "u");
    EXPECT_EQ(newLoopVarName(1), "v");
    EXPECT_EQ(newLoopVarName(2), "w");
    EXPECT_EQ(newLoopVarName(3), "z");
    EXPECT_EQ(newLoopVarName(4), "u4");
}

} // namespace
} // namespace anc::xform
