/**
 * @file
 * Unit tests for loop nests, programs, the builder, and validation.
 */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/gallery.h"

namespace anc::ir {
namespace {

TEST(BuilderTest, GemmShape)
{
    Program p = gallery::gemm();
    EXPECT_EQ(p.nest.depth(), 3u);
    EXPECT_EQ(p.params.size(), 1u);
    EXPECT_EQ(p.arrays.size(), 3u);
    EXPECT_EQ(p.nest.body().size(), 1u);
    EXPECT_EQ(p.arrayIndex("C"), 0u);
    EXPECT_EQ(p.arrayIndex("B"), 2u);
    EXPECT_EQ(p.paramIndex("N"), 0u);
    EXPECT_THROW(p.arrayIndex("nope"), UserError);
    EXPECT_THROW(p.paramIndex("nope"), UserError);
    EXPECT_THROW(p.scalarIndex("nope"), UserError);
}

TEST(BuilderTest, Syr2kBoundsAndScalars)
{
    Program p = gallery::syr2kBanded();
    EXPECT_EQ(p.nest.depth(), 3u);
    EXPECT_EQ(p.scalars.size(), 2u);
    EXPECT_EQ(p.scalarIndex("beta"), 1u);
    // The k loop has 3 lower and 3 upper bounds (max/min in the paper).
    EXPECT_EQ(p.nest.loops()[2].lower.size(), 3u);
    EXPECT_EQ(p.nest.loops()[2].upper.size(), 3u);
}

TEST(BuilderTest, ExtentEvaluation)
{
    Program p = gallery::syr2kBanded();
    // Cb is N x (2b-1).
    IntVec ext = p.arrays[0].evalExtents({40, 6});
    EXPECT_EQ(ext, (IntVec{40, 11}));
}

TEST(ConstraintsTest, GemmConstraintCount)
{
    Program p = gallery::gemm();
    auto cons = p.nest.constraints(p.params.size());
    // 3 loops x (1 lower + 1 upper).
    EXPECT_EQ(cons.size(), 6u);
    // First constraint: i - 0 >= 0.
    EXPECT_EQ(cons[0].varCoeff(0), Rational(1));
    EXPECT_EQ(cons[0].constantTerm(), Rational(0));
    // Second: (N - 1) - i >= 0.
    EXPECT_EQ(cons[1].varCoeff(0), Rational(-1));
    EXPECT_EQ(cons[1].paramCoeff(0), Rational(1));
    EXPECT_EQ(cons[1].constantTerm(), Rational(-1));
}

TEST(ValidationTest, GalleryProgramsValidate)
{
    EXPECT_NO_THROW(gallery::figure1().validate());
    EXPECT_NO_THROW(gallery::gemm().validate());
    EXPECT_NO_THROW(gallery::syr2kBanded().validate());
    EXPECT_NO_THROW(gallery::section3Example().validate());
    EXPECT_NO_THROW(gallery::section5Example().validate());
    EXPECT_NO_THROW(gallery::scalingExample().validate());
}

TEST(ValidationTest, BoundReferencingInnerVariableRejected)
{
    ProgramBuilder b(2);
    b.array("A", {b.cst(10)});
    b.loop("i", b.cst(0), b.var(1)); // upper bound uses inner j
    b.loop("j", b.cst(0), b.cst(5));
    b.assign(b.ref(0, {b.var(0)}), Expr::number_(1.0));
    EXPECT_THROW(b.build(), UserError);
}

TEST(ValidationTest, SelfReferencingBoundRejected)
{
    ProgramBuilder b(1);
    b.array("A", {b.cst(10)});
    b.loop("i", b.var(0), b.cst(5));
    b.assign(b.ref(0, {b.var(0)}), Expr::number_(1.0));
    EXPECT_THROW(b.build(), UserError);
}

TEST(ValidationTest, WrongSubscriptCountRejected)
{
    ProgramBuilder b(1);
    b.array("A", {b.cst(10), b.cst(10)});
    b.loop("i", b.cst(0), b.cst(5));
    b.assign(b.ref(0, {b.var(0)}), Expr::number_(1.0));
    EXPECT_THROW(b.build(), UserError);
}

TEST(ValidationTest, BadDistributionDimensionRejected)
{
    ProgramBuilder b(1);
    b.array("A", {b.cst(10)}, DistributionSpec::wrapped(3));
    b.loop("i", b.cst(0), b.cst(5));
    b.assign(b.ref(0, {b.var(0)}), Expr::number_(1.0));
    EXPECT_THROW(b.build(), UserError);
}

TEST(DistributionSpecTest, Factories)
{
    auto w = DistributionSpec::wrapped(1);
    EXPECT_EQ(w.kind, DistKind::Wrapped);
    EXPECT_TRUE(w.isDistributionDim(1));
    EXPECT_FALSE(w.isDistributionDim(0));

    auto b2 = DistributionSpec::block2d(0, 1);
    EXPECT_EQ(b2.dims.size(), 2u);
    EXPECT_TRUE(b2.isDistributionDim(0));
    EXPECT_TRUE(b2.isDistributionDim(1));

    auto r = DistributionSpec::replicated();
    EXPECT_TRUE(r.dims.empty());
}

TEST(StatementTest, FlopCountAndRefVisit)
{
    Program p = gallery::gemm();
    const Statement &s = p.nest.body()[0];
    // C = C + A*B: one + and one *.
    EXPECT_EQ(s.flopCount(), 2u);
    size_t writes = 0, reads = 0;
    s.forEachRef([&](const ArrayRef &, bool is_write) {
        (is_write ? writes : reads) += 1;
    });
    EXPECT_EQ(writes, 1u);
    EXPECT_EQ(reads, 3u);
}

TEST(StatementTest, Syr2kFlopCount)
{
    Program p = gallery::syr2kBanded();
    // Cb + alpha*Ab*Bb + beta*Ab*Bb: 2 adds + 4 muls.
    EXPECT_EQ(p.nest.body()[0].flopCount(), 6u);
}

} // namespace
} // namespace anc::ir
