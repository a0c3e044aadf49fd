/**
 * @file
 * The translation validator against known-good and deliberately broken
 * compilations: clean gallery programs must pass all three checks, a
 * tampered bound must be caught by lattice equivalence with a concrete
 * counterexample point (the ISSUE 5 acceptance criterion), an illegal
 * loop order by dependence preservation, and a tampered body -- which
 * leaves the iteration space intact -- by the body-equivalence check,
 * proving the checks are independent. Every verdict is pass or fail:
 * spaces far too large to enumerate are proven symbolically, never
 * skipped, and the report has no "incomplete" state.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "deps/dependence.h"
#include "enumeration_oracle.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "verify/symbolic.h"
#include "verify/verify.h"
#include "xform/transform.h"

namespace anc::verify {
namespace {

ValidationReport
validateCompilation(const core::Compilation &c,
                    core::CancelToken *cancel = nullptr)
{
    return validate(c.program, c.nest(), c.normalization.depMatrix,
                    c.normalization.depFamilies,
                    c.normalization.depsImprecise, cancel);
}

const CheckResult &
check(const ValidationReport &r, CheckKind kind)
{
    for (const CheckResult &c : r.checks)
        if (c.kind == kind)
            return c;
    throw std::logic_error("check kind missing from report");
}

/** GEMM with a concrete trip count M per level: M^3 iterations. */
ir::Program
scaledGemm(Int m)
{
    ir::ProgramBuilder b(3);
    auto M = b.cst(m);
    auto c1 = b.cst(1);
    size_t arr_c = b.array("C", {M, M}, ir::DistributionSpec::wrapped(1));
    size_t arr_a = b.array("A", {M, M}, ir::DistributionSpec::wrapped(1));
    size_t arr_b = b.array("B", {M, M}, ir::DistributionSpec::wrapped(1));
    b.loop("i", b.cst(0), M - c1);
    b.loop("j", b.cst(0), M - c1);
    b.loop("k", b.cst(0), M - c1);
    auto vi = b.var(0), vj = b.var(1), vk = b.var(2);
    ir::Expr rhs = ir::Expr::binary(
        '+', ir::Expr::arrayRead(b.ref(arr_c, {vi, vj})),
        ir::Expr::binary('*', ir::Expr::arrayRead(b.ref(arr_a, {vi, vk})),
                         ir::Expr::arrayRead(b.ref(arr_b, {vk, vj}))));
    b.assign(b.ref(arr_c, {vi, vj}), rhs);
    return b.build();
}

/** Rebuild a nest with mutated loops/body through the public ctor. */
xform::TransformedNest
rebuild(const xform::TransformedNest &nest,
        std::vector<xform::TransformedLoop> loops,
        std::vector<ir::Statement> body)
{
    return xform::TransformedNest(nest.transform(),
                                  nest.inverseTransform(), nest.lattice(),
                                  std::move(loops), std::move(body));
}

TEST(ValidateTest, CleanGalleryProgramsPassEveryCheck)
{
    for (auto make :
         {ir::gallery::gemm, ir::gallery::figure1,
          ir::gallery::section3Example, ir::gallery::syr2kBanded}) {
        core::Compilation c = core::compile(make());
        ValidationReport r = validateCompilation(c);
        EXPECT_TRUE(r.passed()) << r.render(c.program);
        for (const CheckResult &cr : r.checks) {
            EXPECT_TRUE(cr.passed) << checkName(cr.kind) << ": "
                                   << cr.detail;
        }
        EXPECT_EQ(r.firstFailure(), "");
        EXPECT_NE(r.render(c.program).find("PASS"), std::string::npos);
        EXPECT_EQ(r.render(c.program).find("skipped"), std::string::npos)
            << r.render(c.program);
    }
}

TEST(ValidateTest, TamperedLowerBoundCaughtWithCounterexamplePoint)
{
    // The acceptance criterion: inject a wrong offset into an otherwise
    // correct plan (shift one lower bound by +1) and require the
    // lattice-equivalence check to name a concrete missed point.
    core::Compilation c = core::compile(ir::gallery::section3Example());
    ASSERT_FALSE(c.normalization.unimodular)
        << "want the non-unimodular machinery under test";

    std::vector<xform::TransformedLoop> loops = c.nest().loops();
    ASSERT_FALSE(loops.back().lower.empty());
    loops.back().lower[0].constantTerm() =
        loops.back().lower[0].constantTerm() + Rational(1);
    xform::TransformedNest bad = rebuild(c.nest(), std::move(loops),
                                         c.nest().body());

    ValidationReport r =
        validate(c.program, bad, c.normalization.depMatrix,
                 c.normalization.depFamilies, c.normalization.depsImprecise);
    EXPECT_FALSE(r.passed()) << r.render(c.program);
    const CheckResult &lat = check(r, CheckKind::LatticeEquivalence);
    EXPECT_FALSE(lat.passed);
    // A concrete counterexample point, "(a, b)", in the diagnostic.
    EXPECT_NE(lat.detail.find("counterexample"), std::string::npos)
        << lat.detail;
    EXPECT_NE(lat.detail.find("("), std::string::npos) << lat.detail;
    EXPECT_NE(lat.detail.find(","), std::string::npos) << lat.detail;
    EXPECT_NE(r.firstFailure().find("lattice-equivalence"),
              std::string::npos);
}

TEST(ValidateTest, TamperedUpperBoundInventedPointCaught)
{
    // Widening an upper bound makes the emitted nest enumerate points
    // that are the image of no source iteration.
    core::Compilation c = core::compile(ir::gallery::gemm());
    std::vector<xform::TransformedLoop> loops = c.nest().loops();
    ASSERT_FALSE(loops.back().upper.empty());
    loops.back().upper[0].constantTerm() =
        loops.back().upper[0].constantTerm() + Rational(1);
    xform::TransformedNest bad = rebuild(c.nest(), std::move(loops),
                                         c.nest().body());

    ValidationReport r =
        validate(c.program, bad, c.normalization.depMatrix,
                 c.normalization.depFamilies, c.normalization.depsImprecise);
    const CheckResult &lat = check(r, CheckKind::LatticeEquivalence);
    EXPECT_FALSE(lat.passed);
    EXPECT_NE(lat.detail.find("image of no source iteration"),
              std::string::npos)
        << lat.detail;
}

TEST(ValidateTest, IllegalLoopOrderCaughtByDependenceCheck)
{
    // Reversing the outer loop of Gauss-Seidel flips its (1,0)
    // dependence to lexicographically negative. applyTransform does not
    // check legality, so this builds a bijective (lattice-equivalent!)
    // nest that runs iterations in a dependence-violating order: only
    // the dependence check can catch it.
    ir::Program prog = ir::gallery::gaussSeidel();
    IntMatrix rev(2, 2);
    rev(0, 0) = -1;
    rev(1, 1) = 1;
    xform::TransformedNest nest = xform::applyTransform(prog, rev);
    deps::DependenceInfo dinfo = deps::analyzeDependences(prog);

    ValidationReport r =
        validate(prog, nest, dinfo.matrix(2), dinfo.families, dinfo.imprecise);
    const CheckResult &lat = check(r, CheckKind::LatticeEquivalence);
    EXPECT_TRUE(lat.passed) << lat.detail;
    const CheckResult &dep = check(r, CheckKind::DependencePreservation);
    EXPECT_FALSE(dep.passed);
    EXPECT_NE(dep.detail.find("column"), std::string::npos) << dep.detail;
    EXPECT_NE(dep.detail.find("T*d"), std::string::npos) << dep.detail;
}

TEST(ValidateTest, TamperedBodyCaughtByDifferentialCheckAlone)
{
    // Swapping the write's subscripts (C[u][v] -> C[v][u]) keeps the
    // iteration space and the loop order intact; only the body check
    // can tell them apart.
    core::Compilation c = core::compile(ir::gallery::gemm());
    std::vector<ir::Statement> body = c.nest().body();
    ASSERT_GE(body[0].lhs.subscripts.size(), 2u);
    std::swap(body[0].lhs.subscripts[0], body[0].lhs.subscripts[1]);
    xform::TransformedNest bad =
        rebuild(c.nest(), c.nest().loops(), std::move(body));

    ValidationReport r =
        validate(c.program, bad, c.normalization.depMatrix,
                 c.normalization.depFamilies, c.normalization.depsImprecise);
    EXPECT_TRUE(check(r, CheckKind::LatticeEquivalence).passed);
    EXPECT_TRUE(check(r, CheckKind::DependencePreservation).passed);
    const CheckResult &diff = check(r, CheckKind::DifferentialExecution);
    EXPECT_FALSE(diff.passed);
    EXPECT_NE(diff.detail.find("footprint"), std::string::npos)
        << diff.detail;
}

TEST(ValidateTest, OversizedSpaceIsProvenSymbolicallyNeverSkipped)
{
    // A space far over any enumeration budget still gets a real
    // verdict: GEMM at M = 10^9 has 10^27 iterations, which the
    // enumeration oracle refuses to walk. The symbolic proof must still
    // PASS every check, and the report must never say "skipped".
    core::Compilation c = core::compile(scaledGemm(1000000000));
    oracle::EnumerationOracle o =
        oracle::enumerationOracle(c.program, c.nest());
    ASSERT_FALSE(o.feasible) << "want a space enumeration cannot reach";
    ValidationReport r = validateCompilation(c);
    EXPECT_TRUE(r.passed()) << r.render(c.program);
    ASSERT_EQ(r.checks.size(), 3u);
    for (const CheckResult &cr : r.checks)
        EXPECT_TRUE(cr.passed) << checkName(cr.kind) << ": " << cr.detail;
    EXPECT_EQ(r.render(c.program).find("skipped"), std::string::npos)
        << r.render(c.program);
}

TEST(ValidateTest, TamperedPlanFailsEvenWhenEnumerationIsImpossible)
{
    // The serving-path guarantee: a miscompiled plan for a space too
    // big to enumerate must FAIL, not slip through as skipped, and the
    // failure must name a concrete point and the binding it holds at.
    core::Compilation c = core::compile(scaledGemm(1000000000));
    std::vector<xform::TransformedLoop> loops = c.nest().loops();
    loops.back().upper[0].constantTerm() =
        loops.back().upper[0].constantTerm() + Rational(1);
    xform::TransformedNest bad = rebuild(c.nest(), std::move(loops),
                                         c.nest().body());
    ASSERT_FALSE(oracle::enumerationOracle(c.program, bad).feasible);
    ValidationReport r =
        validate(c.program, bad, c.normalization.depMatrix,
                 c.normalization.depFamilies, c.normalization.depsImprecise);
    EXPECT_FALSE(r.passed()) << r.render(c.program);
    const CheckResult &lat = check(r, CheckKind::LatticeEquivalence);
    EXPECT_FALSE(lat.passed);
    EXPECT_NE(lat.detail.find("counterexample"), std::string::npos)
        << lat.detail;
    // Concrete bounds: the binding is the empty one, named as such.
    EXPECT_NE(lat.detail.find("(no parameters)"), std::string::npos)
        << lat.detail;
    EXPECT_NE(lat.detail.find("1000000000"), std::string::npos)
        << lat.detail;
}

TEST(ValidateTest, SymbolicCounterexampleNamesParameterBinding)
{
    // The symbolic prover's witness search must report the parameter
    // value it found the violation under, so a failed large-space
    // validation is still actionable.
    core::Compilation c = core::compile(ir::gallery::gemm());
    std::vector<xform::TransformedLoop> loops = c.nest().loops();
    loops.back().upper[0].constantTerm() =
        loops.back().upper[0].constantTerm() + Rational(1);
    xform::TransformedNest bad = rebuild(c.nest(), std::move(loops),
                                         c.nest().body());
    ValidationReport r =
        validate(c.program, bad, c.normalization.depMatrix,
                 c.normalization.depFamilies, c.normalization.depsImprecise);
    const CheckResult &lat = check(r, CheckKind::LatticeEquivalence);
    ASSERT_FALSE(lat.passed);
    EXPECT_NE(lat.detail.find("N="), std::string::npos) << lat.detail;
}

TEST(ValidateTest, CompileWithValidateSetsReportAndFlag)
{
    core::CompileOptions opts;
    opts.validate = true;
    core::Compilation c = core::compile(ir::gallery::gemm(), opts);
    EXPECT_TRUE(c.validated);
    EXPECT_EQ(c.validation.checks.size(), 3u);
    EXPECT_TRUE(c.validation.passed());
    EXPECT_NE(c.report().find("translation validation"),
              std::string::npos);
}

TEST(ValidateTest, ResilientLadderRunsValidationWhenRequested)
{
    core::ResilientOptions ropts;
    ropts.base.validate = true;
    core::Compilation c =
        core::compileResilient(ir::gallery::syr2kBanded(), ropts);
    EXPECT_TRUE(c.validated) << c.validation.render(c.program);
    EXPECT_TRUE(c.diagnostics.mentionsStage(
        core::Stage::TranslationValidate))
        << c.diagnostics.render();
    EXPECT_TRUE(c.validation.passed());
}

TEST(ValidateTest, IdentityTierValidatesToo)
{
    core::ResilientOptions ropts;
    ropts.base.validate = true;
    ropts.base.identityTransform = true;
    core::Compilation c =
        core::compileResilient(ir::gallery::jacobi2d(), ropts);
    EXPECT_EQ(c.tier, core::CompileTier::Identity);
    EXPECT_TRUE(c.validation.passed()) << c.validation.render(c.program);
}

TEST(ValidateTest, ValidationChargesTheCancelToken)
{
    // Validation work must be charged to the request deadline: a
    // token with a tiny budget must abort validation with
    // DeadlineExceeded rather than returning a free verdict.
    core::Compilation c = core::compile(ir::gallery::gemm());
    core::CancelToken token(3);
    EXPECT_THROW(validateCompilation(c, &token), core::DeadlineExceeded);

    core::CancelToken roomy(1u << 20);
    ValidationReport r = validateCompilation(c, &roomy);
    EXPECT_TRUE(r.passed()) << r.render(c.program);
    EXPECT_GT(roomy.steps(), 0u);
}

TEST(ValidateTest, OverflowInTheProjectionPropagates)
{
    // A[K*i + (K-1)*j, i + j, k] with K just below sqrt(2^63): T = [K K-1
    // 0; 1 1 0; 0 0 1] rewrites the body and solves its bounds within 64
    // bits, but proving a bound implication by projection combines rows
    // whose products leave 64 bits. The plan itself validates without a
    // projection: its certificates, checked by multiply, add and
    // compare, stay within 64 bits.
    const Int k = 3037000499;
    ir::ProgramBuilder b(3);
    auto n = b.par(b.param("N"));
    size_t arr = b.array("A", {n, n, n}, ir::DistributionSpec::wrapped(0));
    for (const char *v : {"i", "j", "k"})
        b.loop(v, b.cst(0), n - b.cst(1));
    ir::ArrayRef ref =
        b.ref(arr, {b.var(0).scaled(Rational(k)) +
                        b.var(1).scaled(Rational(k - 1)),
                    b.var(0) + b.var(1), b.var(2)});
    b.assign(ref, ir::Expr::binary('+', ir::Expr::arrayRead(ref),
                                   ir::Expr::number_(1.0)));
    ir::Program prog = b.build();
    IntMatrix t{{k, k - 1, 0}, {1, 1, 0}, {0, 0, 1}};
    xform::TransformedNest nest = xform::applyTransform(prog, t);
    deps::DependenceInfo dinfo = deps::analyzeDependences(prog);
    IntMatrix deps = dinfo.matrix(3);
    EXPECT_TRUE(
        validate(prog, nest, deps, dinfo.families, dinfo.imprecise).passed());
    EXPECT_EQ(checkLatticeSymbolic(prog, nest).byProver, 0u);
    // Widening the middle level's upper bound by one leaves a source
    // bound with no emitted row as tight, so the prover must decide it
    // by projection. The fault must escape validate(), never become a
    // verdict.
    std::vector<xform::TransformedLoop> loops = nest.loops();
    loops[1].upper[0].constantTerm() =
        loops[1].upper[0].constantTerm() + Rational(1);
    xform::TransformedNest widened(nest.transform(),
                                   nest.inverseTransform(), nest.lattice(),
                                   std::move(loops), nest.body());
    EXPECT_THROW(
        validate(prog, widened, deps, dinfo.families, dinfo.imprecise),
        OverflowError);
    // The validating ladder serves the solved plan at the full tier.
    core::ResilientOptions o;
    o.base.validate = true;
    core::Compilation c = core::compileResilient(prog, o);
    EXPECT_EQ(c.tier, core::CompileTier::Full);
    EXPECT_TRUE(c.validated);
}

} // namespace
} // namespace anc::verify
