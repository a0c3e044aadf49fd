/**
 * @file
 * Round-trip property: printDsl(p) parses back to a structurally and
 * semantically identical program, for every gallery workload and for
 * derived programs (suggested layouts).
 */

#include <gtest/gtest.h>

#include "dsl/parser.h"
#include "dsl/printer.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "ir/interp.h"
#include "ir/printer.h"
#include "xform/suggest.h"

namespace anc::dsl {
namespace {

void
expectRoundTrip(const ir::Program &p, const IntVec &params,
                std::vector<double> scalars = {})
{
    std::string src = printDsl(p);
    ir::Program q;
    ASSERT_NO_THROW(q = parseProgram(src)) << src;
    // Structural identity through the canonical printer.
    EXPECT_EQ(ir::printProgram(q), ir::printProgram(p)) << src;
    // Semantic identity on real data.
    ir::Bindings binds{params, scalars};
    ir::ArrayStorage s1(p, params), s2(q, params);
    s1.fillDeterministic(42);
    s2.fillDeterministic(42);
    ir::run(p, binds, s1);
    ir::run(q, binds, s2);
    for (size_t a = 0; a < s1.numArrays(); ++a)
        EXPECT_EQ(s1.data(a), s2.data(a));
}

TEST(RoundTrip, Gemm)
{
    expectRoundTrip(ir::gallery::gemm(), {6});
}

TEST(RoundTrip, Syr2kWithScalarsAndMaxMin)
{
    expectRoundTrip(ir::gallery::syr2kBanded(), {8, 3}, {1.5, -0.5});
}

TEST(RoundTrip, Figure1)
{
    expectRoundTrip(ir::gallery::figure1(), {6, 4, 3});
}

TEST(RoundTrip, Section3NonTrivialSubscripts)
{
    expectRoundTrip(ir::gallery::section3Example(), {});
}

TEST(RoundTrip, ScalingAndSection5)
{
    expectRoundTrip(ir::gallery::scalingExample(), {});
    expectRoundTrip(ir::gallery::section5Example(), {});
}

TEST(RoundTrip, NewWorkloads)
{
    expectRoundTrip(ir::gallery::gemv(), {8});
    expectRoundTrip(ir::gallery::ger(), {8});
    expectRoundTrip(ir::gallery::jacobi2d(), {8});
    expectRoundTrip(ir::gallery::gaussSeidel(), {8});
}

TEST(RoundTrip, SuggestedLayoutSurvivesSerialization)
{
    // Derive a layout, serialize, re-parse: the distributions survive.
    ir::Program p = ir::gallery::gemm();
    for (ir::ArrayDecl &a : p.arrays)
        a.dist = ir::DistributionSpec::replicated();
    xform::DistributionSuggestion s = xform::suggestDistributions(p);
    ir::Program laid_out = s.applyTo(p);
    ir::Program q = parseProgram(printDsl(laid_out));
    for (size_t a = 0; a < q.arrays.size(); ++a) {
        EXPECT_EQ(q.arrays[a].dist.kind, laid_out.arrays[a].dist.kind);
        EXPECT_EQ(q.arrays[a].dist.dims, laid_out.arrays[a].dist.dims);
    }
}

TEST(RoundTrip, Block2DDistributionsPrinted)
{
    ir::ProgramBuilder b(2);
    b.array("A", {b.cst(8), b.cst(8)},
            ir::DistributionSpec::block2d(0, 1));
    b.loop("i", b.cst(0), b.cst(7));
    b.loop("j", b.cst(0), b.cst(7));
    b.assign(b.ref(0, {b.var(0), b.var(1)}), ir::Expr::number_(2.5));
    ir::Program p = b.build();
    std::string src = printDsl(p);
    EXPECT_NE(src.find("distribute block2d(0, 1)"), std::string::npos)
        << src;
    expectRoundTrip(p, {});
}

TEST(RoundTrip, DoubleRoundTripIsFixedPoint)
{
    ir::Program p = ir::gallery::syr2kBanded();
    std::string once = printDsl(p);
    std::string twice = printDsl(parseProgram(once));
    EXPECT_EQ(once, twice);
}

TEST(RoundTrip, LiteralsReadBackExactly)
{
    // A literal renders as the shortest fixed-notation decimal that
    // reads back to the same double: no digit is lost, and no exponent
    // or 64-bit-overflowing integer the lexer cannot read is written.
    const std::pair<double, const char *> cases[] = {
        {1.0000001, "1.0000001"},
        {1e6, "1000000"},
        {1e20, "100000000000000000000.0"},
        {0.25, "0.25"},
        {1e-7, "0.0000001"},
    };
    for (auto [v, text] : cases) {
        ir::ProgramBuilder b(1);
        b.array("A", {b.cst(4)});
        b.loop("i", b.cst(0), b.cst(3));
        ir::ArrayRef a = b.ref(0, {b.var(0)});
        b.assign(a, ir::Expr::binary('*', ir::Expr::arrayRead(a),
                                     ir::Expr::number_(v)));
        ir::Program p = b.build();
        std::string src = printDsl(p);
        EXPECT_NE(src.find(std::string("] * ") + text + "\n"),
                  std::string::npos)
            << src;
        ir::Program q;
        ASSERT_NO_THROW(q = parseProgram(src)) << src;
        EXPECT_EQ(q.nest.body()[0].rhs.kids[1].number, v) << src;
        EXPECT_EQ(printDsl(q), src);
    }
}

} // namespace
} // namespace anc::dsl
