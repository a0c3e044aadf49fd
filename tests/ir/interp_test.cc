/**
 * @file
 * Unit tests for the integer executor (ir/interp.h), with the
 * exact-rational interpreter as the oracle where the two must agree.
 */

#include <gtest/gtest.h>

#include <limits>

#include "interp_oracle.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "ir/interp.h"

namespace anc::ir {
namespace {

TEST(StorageTest, ExtentsAndBoundsChecks)
{
    Program p = gallery::gemm();
    ArrayStorage store(p, {4});
    EXPECT_EQ(store.numArrays(), 3u);
    EXPECT_EQ(store.extents(0), (IntVec{4, 4}));
    EXPECT_EQ(store.data(0).size(), 16u);
    store.at(0, {3, 3}) = 7.0;
    EXPECT_EQ(store.at(0, {3, 3}), 7.0);
    EXPECT_THROW(store.at(0, {4, 0}), UserError);
    EXPECT_THROW(store.at(0, {0, -1}), UserError);
    EXPECT_THROW(store.at(0, {0}), UserError);
    EXPECT_THROW(ArrayStorage(p, {0}), UserError);
}

TEST(StorageTest, FlattenRowMajor)
{
    Program p = gallery::gemm();
    ArrayStorage store(p, {4});
    EXPECT_EQ(store.flatten(0, {0, 0}), 0u);
    EXPECT_EQ(store.flatten(0, {0, 1}), 1u);
    EXPECT_EQ(store.flatten(0, {1, 0}), 4u);
    EXPECT_EQ(store.flatten(0, {2, 3}), 11u);
}

TEST(StorageTest, DeterministicFillIsReproducible)
{
    Program p = gallery::gemm();
    ArrayStorage a(p, {4}), b(p, {4});
    a.fillDeterministic(42);
    b.fillDeterministic(42);
    EXPECT_EQ(a.data(0), b.data(0));
    EXPECT_EQ(a.data(2), b.data(2));
    b.fillDeterministic(43);
    EXPECT_NE(a.data(0), b.data(0));
}

TEST(BoundsTest, MaxMinSemantics)
{
    // k loop of SYR2K: max of 3 lowers, min of 3 uppers.
    Program p = gallery::syr2kBanded();
    const Loop &k = p.nest.loops()[2];
    LoopBounds compiled(p.nest.loops(), {10, 3});
    // N = 10, b = 3; at (i, j) = (0, 2): k in [max(-2, 0, 0), min(2, 4, 9)].
    EXPECT_EQ(testutil::loopLowerBound(k, {0, 2, 0}, {10, 3}), 0);
    EXPECT_EQ(testutil::loopUpperBound(k, {0, 2, 0}, {10, 3}), 2);
    EXPECT_EQ(compiled.lower(2, {0, 2, 0}), 0);
    EXPECT_EQ(compiled.upper(2, {0, 2, 0}), 2);
    // At (i, j) = (9, 9): k in [max(7, 7, 0), min(11, 11, 9)].
    EXPECT_EQ(testutil::loopLowerBound(k, {9, 9, 0}, {10, 3}), 7);
    EXPECT_EQ(testutil::loopUpperBound(k, {9, 9, 0}, {10, 3}), 9);
    EXPECT_EQ(compiled.lower(2, {9, 9, 0}), 7);
    EXPECT_EQ(compiled.upper(2, {9, 9, 0}), 9);
}

TEST(IterationTest, CountsAndOrder)
{
    Program p = gallery::gemm();
    std::vector<IntVec> iters;
    uint64_t n = forEachIteration(p.nest, {2}, [&](const IntVec &v) {
        iters.push_back(v);
    });
    EXPECT_EQ(n, 8u);
    ASSERT_EQ(iters.size(), 8u);
    EXPECT_EQ(iters.front(), (IntVec{0, 0, 0}));
    EXPECT_EQ(iters.back(), (IntVec{1, 1, 1}));
    // Lexicographic order.
    for (size_t i = 1; i < iters.size(); ++i)
        EXPECT_TRUE(std::lexicographical_compare(
            iters[i - 1].begin(), iters[i - 1].end(), iters[i].begin(),
            iters[i].end()));
}

TEST(IterationTest, EmptyRangesSkipped)
{
    ProgramBuilder b(2);
    b.array("A", {b.cst(10), b.cst(10)});
    b.loop("i", b.cst(0), b.cst(3));
    // j from i to 1: empty when i > 1.
    b.loop("j", b.var(0), b.cst(1));
    b.assign(b.ref(0, {b.var(0), b.var(1)}), Expr::number_(1.0));
    Program p = b.build();
    uint64_t n = forEachIteration(p.nest, {}, [](const IntVec &) {});
    EXPECT_EQ(n, 3u); // (0,0) (0,1) (1,1)
}

TEST(RunTest, GemmMatchesDirectComputation)
{
    Program p = gallery::gemm();
    Int n = 5;
    ArrayStorage store(p, {n});
    store.fillDeterministic(7);
    std::vector<double> a = store.data(1), b = store.data(2);
    std::vector<double> c = store.data(0);

    Bindings binds{{n}, {}};
    uint64_t iters = run(p, binds, store);
    EXPECT_EQ(iters, uint64_t(n * n * n));

    for (Int i = 0; i < n; ++i) {
        for (Int j = 0; j < n; ++j) {
            double acc = c[i * n + j];
            for (Int k = 0; k < n; ++k)
                acc += a[i * n + k] * b[k * n + j];
            EXPECT_DOUBLE_EQ(store.at(0, {i, j}), acc) << i << "," << j;
        }
    }
}

TEST(RunTest, ScalarsAreBound)
{
    Program p = gallery::syr2kBanded();
    ArrayStorage store(p, {8, 3});
    store.fillDeterministic(3);
    Bindings binds{{8, 3}, {2.0, 0.5}};
    EXPECT_NO_THROW(run(p, binds, store));
    // Wrong binding arity is rejected.
    Bindings bad{{8, 3}, {2.0}};
    EXPECT_THROW(run(p, bad, store), UserError);
    Bindings bad2{{8}, {2.0, 0.5}};
    EXPECT_THROW(run(p, bad2, store), UserError);
}

TEST(RunTest, TraceObservesAccessesInOrder)
{
    Program p = gallery::gemm();
    ArrayStorage store(p, {2});
    Bindings binds{{2}, {}};
    std::vector<AccessEvent> events;
    run(p, binds, store, [&](const AccessEvent &e) {
        events.push_back(e);
    });
    // Per iteration: read C, read A, read B, write C.
    ASSERT_EQ(events.size(), 4u * 8u);
    EXPECT_EQ(events[0].arrayId, 0u);
    EXPECT_FALSE(events[0].isWrite);
    EXPECT_EQ(events[1].arrayId, 1u);
    EXPECT_EQ(events[2].arrayId, 2u);
    EXPECT_EQ(events[3].arrayId, 0u);
    EXPECT_TRUE(events[3].isWrite);
    EXPECT_EQ(events[3].subscript, (IntVec{0, 0}));
}

TEST(RunTest, IndexExpressionValue)
{
    // A[2i] = i from the scaling example: check stored values.
    Program p = gallery::scalingExample();
    ArrayStorage store(p, {});
    Bindings binds{{}, {}};
    run(p, binds, store);
    EXPECT_EQ(store.at(0, {2}), 1.0);
    EXPECT_EQ(store.at(0, {4}), 2.0);
    EXPECT_EQ(store.at(0, {6}), 3.0);
    EXPECT_EQ(store.at(0, {3}), 0.0);
}

TEST(RunTest, DivisionAndSubtraction)
{
    ProgramBuilder b(1);
    b.array("A", {b.cst(4)});
    b.array("B", {b.cst(4)});
    b.loop("i", b.cst(0), b.cst(3));
    auto vi = b.var(0);
    // A[i] = (B[i] - 1) / 2
    b.assign(b.ref(0, {vi}),
             Expr::binary('/',
                          Expr::binary('-', Expr::arrayRead(b.ref(1, {vi})),
                                       Expr::number_(1.0)),
                          Expr::number_(2.0)));
    Program p = b.build();
    ArrayStorage store(p, {});
    for (Int i = 0; i < 4; ++i)
        store.at(1, {i}) = double(2 * i + 1);
    run(p, {{}, {}}, store);
    for (Int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(store.at(0, {i}), double(i));
}

TEST(CompiledAffineTest, FloorAndCeilOfFractionalValues)
{
    // (3u - 2v + 1) / 4 at a few points of both signs.
    CompiledAffine ca;
    ca.num = {3, -2};
    ca.cst = 1;
    ca.den = 4;
    EXPECT_EQ(ca.floorAt({1, 0}), 1);  //  4/4
    EXPECT_EQ(ca.ceilAt({1, 0}), 1);
    EXPECT_EQ(ca.floorAt({2, 0}), 1);  //  7/4
    EXPECT_EQ(ca.ceilAt({2, 0}), 2);
    EXPECT_EQ(ca.floorAt({0, 2}), -1); // -3/4
    EXPECT_EQ(ca.ceilAt({0, 2}), 0);
    EXPECT_EQ(ca.floorAt({-3, 0}), -2); // -8/4
    EXPECT_EQ(ca.ceilAt({-3, 0}), -2);
}

TEST(CompiledAffineTest, AdversarialCoefficientsThrowInsteadOfWrapping)
{
    // Two terms of 2^126 each: their sum leaves the 128-bit range, so
    // an unchecked accumulate would wrap to a wrong value.
    const Int big = std::numeric_limits<Int>::max();
    const Int small = std::numeric_limits<Int>::min();
    CompiledAffine pos;
    pos.num = {big, big};
    EXPECT_THROW(pos.eval({big, big}), OverflowError);
    EXPECT_THROW(pos.floorAt({big, big}), OverflowError);
    EXPECT_THROW(pos.ceilAt({big, big}), OverflowError);

    CompiledAffine neg;
    neg.num = {small, small};
    EXPECT_THROW(neg.eval({small, small}), OverflowError);
    EXPECT_THROW(neg.numerator({small, small}), OverflowError);

    // Fits in 128 bits but not in 64: still an error, never a value.
    CompiledAffine wide;
    wide.num = {big};
    EXPECT_THROW(wide.eval({4}), OverflowError);
    EXPECT_THROW(wide.floorAt({4}), OverflowError);
    // ... unless the division brings the bound back into range.
    wide.den = 8;
    EXPECT_EQ(wide.floorAt({4}), big / 2);
    EXPECT_EQ(wide.ceilAt({4}), big / 2 + 1);
}

} // namespace
} // namespace anc::ir
