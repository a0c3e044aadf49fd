/**
 * @file
 * Validation with the compile's dependence facts decides exactly as
 * validation with a fresh dependence analysis (dependence_oracle.h).
 *
 * Inputs: every fixed input of tests/svc/golden_inputs.h (gallery,
 * samples, examples, corpus seeds), validated on the served nest and
 * on every search candidate's nest whose bounds solve. The time-boxed
 * fuzz smoke (tests/integration/fuzz_pipeline_test.cc) runs the same
 * comparison on its random nests. A tampered T that keeps every dependence column
 * positive but reverses a member of an imprecise family must FAIL on
 * both sides.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "dependence_oracle.h"
#include "golden_inputs.h"
#include "ir/builder.h"
#include "xform/search.h"

namespace anc::golden {
namespace {

/** What the comparisons over a set of nests exercised. */
struct Tally
{
    size_t compared = 0;
    size_t familyChecked = 0; //!< imprecise facts and T != I
    size_t failed = 0;        //!< both sides FAIL
};

void
expectAgree(const std::string &name, const ir::Program &prog,
            const xform::TransformedNest &nest,
            const xform::NormalizeResult &norm, Tally &tally)
{
    oracle::DependenceDifferential d;
    try {
        d = oracle::dependenceDifferential(prog, nest, norm.depMatrix,
                                           norm.depFamilies,
                                           norm.depsImprecise);
    } catch (const Error &) {
        return; // coefficients past 64 bits: neither side decides
    }
    EXPECT_EQ(d.mismatch, "") << name;
    // The two runs read the same families under the same flag, so they
    // also spend the same steps.
    EXPECT_EQ(d.passedSteps, d.freshSteps) << name;
    ++tally.compared;
    size_t n = nest.depth();
    tally.familyChecked += norm.depsImprecise &&
                           !(nest.transform() == IntMatrix::identity(n));
    tally.failed += !d.passed.passed();
}

TEST(DependenceFacts, FixedInputsAndSearchCandidatesAgreeWithAFreshAnalysis)
{
    Tally tally;
    for (const Input &in : fixedInputs()) {
        std::optional<ir::Program> prog = programOf(in);
        if (!prog)
            continue;
        core::ResilientOptions o;
        core::Compilation c;
        try {
            c = core::compileResilient(*prog, o);
        } catch (const Error &) {
            continue;
        }
        expectAgree(in.name + " served", c.program, c.nest(),
                    c.normalization, tally);
        if (c.tier != core::CompileTier::Full)
            continue;
        std::vector<xform::SearchCandidate> cands;
        try {
            cands = xform::enumerateSearchCandidates(
                c.program, c.normalization, o.base.search);
        } catch (const Error &) {
            continue;
        }
        for (const xform::SearchCandidate &cand : cands) {
            std::optional<xform::TransformedNest> nest;
            try {
                nest = xform::applyTransform(c.program, cand.transform);
            } catch (const Error &) {
                continue; // bounds do not solve
            }
            expectAgree(in.name + " candidate " + cand.origin, c.program,
                        *nest, c.normalization, tally);
        }
    }
    // The family check ran on restructured nests, not only on the
    // identity, which needs no family, and rejected some on both sides.
    EXPECT_GT(tally.compared, 200u);
    EXPECT_GT(tally.familyChecked, 0u);
    EXPECT_GT(tally.failed, 0u);
}

/**
 * Columns (1,2,-1) and (0,1,0) generate an imprecise family; T keeps
 * both columns lexicographically positive but maps their difference
 * (1,1,-1), an anti-dependence, to (0,-1,0).
 */
ir::Program
imprecisePair()
{
    ir::ProgramBuilder b(3);
    size_t ax = b.array("X", {b.cst(17), b.cst(13)},
                        ir::DistributionSpec::blocked(1));
    size_t ay = b.array("Y", {b.cst(17), b.cst(11)},
                        ir::DistributionSpec::wrapped(1));
    auto i0 = b.var(0), i1 = b.var(1), i2 = b.var(2);
    b.loop("i0", b.cst(0), b.cst(6));
    b.loop("i1", i0, b.cst(4));
    b.loop("i2", i1, b.cst(5));
    b.assign(b.ref(ax, {i0 - i1 - i2 + b.cst(9), i0 + i2}),
             ir::Expr::binary(
                 '+',
                 ir::Expr::arrayRead(
                     b.ref(ax, {i0 - i1 - i2 + b.cst(10), i0 + i2})),
                 ir::Expr::arrayRead(
                     b.ref(ay, {b.cst(10) - i0 - i1 + i2,
                                b.cst(9) - i1 - i2}))));
    return b.build();
}

TEST(DependenceFacts, TamperedTransformReversingAFamilyFailsOnBothSides)
{
    ir::Program prog = imprecisePair();
    IntMatrix t(3, 3);
    t(0, 0) = 1, t(0, 2) = 1;
    t(1, 0) = -1, t(1, 1) = 1, t(1, 2) = 1;
    t(2, 1) = 1, t(2, 2) = 1;
    xform::TransformedNest nest = xform::applyTransform(prog, t);
    core::Compilation c = core::compile(prog);
    const xform::NormalizeResult &norm = c.normalization;
    ASSERT_TRUE(norm.depsImprecise);
    ASSERT_TRUE(deps::isLegalTransformation(t, norm.depMatrix))
        << "want a T that every dependence column allows";

    oracle::DependenceDifferential d = oracle::dependenceDifferential(
        prog, nest, norm.depMatrix, norm.depFamilies, norm.depsImprecise);
    EXPECT_EQ(d.mismatch, "");
    EXPECT_FALSE(d.passed.passed());
    EXPECT_FALSE(d.fresh.passed());
    EXPECT_EQ(d.passed.firstFailure().rfind("dependence-preservation: ", 0),
              0u)
        << d.passed.firstFailure();
    // The families decide it: the columns alone let T through.
    EXPECT_TRUE(
        verify::validate(prog, nest, norm.depMatrix, {}, false).passed());
}

} // namespace
} // namespace anc::golden
