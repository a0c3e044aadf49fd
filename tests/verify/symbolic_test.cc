/**
 * @file
 * Property tests for the symbolic prover, differential against the
 * point-by-point enumeration oracle (tests/oracle/, built only for the
 * tests; validate() itself enumerates nothing). The contract under
 * test: on every program whose iteration space is small enough to
 * enumerate, the symbolic verdict (computed with parameters as free
 * symbols, never looking at a single concrete point) must agree with
 * the oracle -- both on clean compilations (everything passes) and on
 * deliberately miscompiled plans (both sides must refuse). Where the
 * two disagree by design -- the oracle has no dependence-preservation
 * check -- the test pins down that the symbolic layer is strictly
 * stronger.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "core/compiler.h"
#include "deps/dependence.h"
#include "certificate_oracle.h"
#include "enumeration_oracle.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "ir/interp.h"
#include "ratmath/linalg.h"
#include "verify/symbolic.h"
#include "verify/verify.h"
#include "xform/transform.h"

namespace anc::verify {
namespace {

using oracle::EnumerationOracle;
using oracle::enumerationOracle;

Rational
rat(Int n, Int d = 1)
{
    return Rational(n, d);
}

SymConstraint
con(IntVec var, IntVec param, Int cst, std::string origin)
{
    SymConstraint c;
    c.var = std::move(var);
    c.param = std::move(param);
    c.cst = cst;
    c.origin = std::move(origin);
    return c;
}

const CheckResult &
check(const ValidationReport &r, CheckKind kind)
{
    for (const CheckResult &c : r.checks)
        if (c.kind == kind)
            return c;
    throw std::logic_error("check kind missing from report");
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

TEST(SymbolicTest, ProverProvesAndRefutesBoxImplications)
{
    // {x >= 0, 4 - x >= 0}: the goal 6 - x >= 0 is a consequence, the
    // goal x - 1 >= 0 is not (x = 0 violates it).
    std::vector<SymConstraint> sys = {con({1}, {}, 0, "x >= 0"),
                                      con({-1}, {}, 4, "x <= 4")};
    ProofResult ok = proveImplies(sys, con({-1}, {}, 6, "x <= 6"));
    EXPECT_EQ(ok.status, ProofStatus::Proven) << ok.note;

    SymConstraint goal = con({1}, {}, -1, "x >= 1");
    ProofResult bad = proveImplies(sys, goal);
    ASSERT_EQ(bad.status, ProofStatus::Refuted) << bad.note;
    ASSERT_EQ(bad.witnessVars.size(), 1u);
    // The witness must actually satisfy the system and violate the
    // goal -- the prover's report is checkable, not just an opinion.
    for (const SymConstraint &c : sys)
        EXPECT_GE(c.evaluate(bad.witnessVars, bad.witnessParams), 0)
            << c.origin;
    EXPECT_LT(goal.evaluate(bad.witnessVars, bad.witnessParams), 0);
}

TEST(SymbolicTest, ProverCoversEveryParameterValue)
{
    // {x >= 0, x <= N - 1} implies 2N - x - 1 >= 0 for EVERY integer N
    // (a nonempty system forces N >= 1). The converse goal x >= N is
    // refutable, and the witness must name the parameter binding.
    std::vector<SymConstraint> sys = {con({1}, {0}, 0, "x >= 0"),
                                      con({-1}, {1}, -1, "x <= N-1")};
    ProofResult ok =
        proveImplies(sys, con({-1}, {2}, -1, "x <= 2N - 1"));
    EXPECT_EQ(ok.status, ProofStatus::Proven) << ok.note;

    SymConstraint goal = con({1}, {-1}, 0, "x >= N");
    ProofResult bad = proveImplies(sys, goal);
    ASSERT_EQ(bad.status, ProofStatus::Refuted) << bad.note;
    ASSERT_EQ(bad.witnessVars.size(), 1u);
    ASSERT_EQ(bad.witnessParams.size(), 1u);
    for (const SymConstraint &c : sys)
        EXPECT_GE(c.evaluate(bad.witnessVars, bad.witnessParams), 0)
            << c.origin;
    EXPECT_LT(goal.evaluate(bad.witnessVars, bad.witnessParams), 0);
}

/** Every bound implication checkLatticeSymbolic discharges for c, as
 * (system, goal) pairs: the source system against each emitted bound
 * (composed through u = T x), then the emitted system against each
 * source bound. */
std::vector<std::pair<std::vector<SymConstraint>, SymConstraint>>
boundImplications(const core::Compilation &c)
{
    const ir::Program &prog = c.program;
    size_t n = prog.nest.depth(), m = prog.params.size();
    std::vector<SymConstraint> source, emitted;
    for (const ir::AffineExpr &e : prog.nest.constraints(m))
        source.push_back(makeConstraint(e, "source"));
    RatMatrix t = toRational(c.nest().transform());
    for (size_t k = 0; k < n; ++k) {
        ir::AffineExpr uk = ir::AffineExpr::variable(k, n, m);
        for (const ir::AffineExpr &b : c.nest().loops()[k].lower)
            emitted.push_back(
                makeConstraint((uk - b).composeWithVarMap(t), "lower"));
        for (const ir::AffineExpr &b : c.nest().loops()[k].upper)
            emitted.push_back(
                makeConstraint((b - uk).composeWithVarMap(t), "upper"));
    }
    std::vector<std::pair<std::vector<SymConstraint>, SymConstraint>> out;
    for (const SymConstraint &e : emitted)
        out.push_back({source, e});
    for (const SymConstraint &s : source)
        out.push_back({emitted, s});
    return out;
}

TEST(SymbolicTest, RowCapNeverFlipsAVerdict)
{
    // A cap of 1-3 rows per level drops almost every projected row. That
    // may cost a proof (Unknown) but must never prove a false
    // implication or refute a true one. Each GEMM and SYR2K bound
    // implication runs as is and tampered (the goal tightened by one),
    // and the uncapped verdict says which of them hold.
    size_t proven = 0, refuted = 0, lost = 0;
    for (auto make : {ir::gallery::gemm, ir::gallery::syr2kBanded}) {
        core::Compilation c = core::compile(make());
        for (auto [sys, goal] : boundImplications(c)) {
            for (Int shift : {0, 1}) {
                SymConstraint g = goal;
                g.cst -= shift;
                ProofStatus truth = proveImplies(sys, g).status;
                ASSERT_NE(truth, ProofStatus::Unknown) << g.origin;
                (truth == ProofStatus::Proven ? proven : refuted)++;
                for (size_t cap = 1; cap <= 3; ++cap) {
                    ProverOptions opts;
                    opts.maxRows = cap;
                    ProofResult r = proveImplies(sys, g, opts);
                    if (truth == ProofStatus::Proven) {
                        EXPECT_NE(r.status, ProofStatus::Refuted)
                            << g.origin << " cap " << cap;
                    } else {
                        EXPECT_NE(r.status, ProofStatus::Proven)
                            << g.origin << " cap " << cap;
                    }
                    lost += r.status != truth;
                }
            }
        }
    }
    // Both kinds occur, and the cap really bites.
    EXPECT_GT(proven, 0u);
    EXPECT_GT(refuted, 0u);
    EXPECT_GT(lost, 0u);
}

TEST(SymbolicTest, ProverClosesIntegerGapsWithGomoryCuts)
{
    // 1 <= 2x <= 1 has the rational solution x = 1/2 and no integer
    // one, so over the integers it implies anything. Only the floored
    // constants (x >= 1 and x <= 0) expose the contradiction: rational
    // elimination leaves 0 >= 0, and the witness search finds no point
    // but cannot prove there is none.
    std::vector<SymConstraint> sys = {con({2}, {}, -1, "2x >= 1"),
                                      con({-2}, {}, 1, "2x <= 1")};
    ProofResult r = proveImplies(sys, con({1}, {}, -5, "x >= 5"));
    EXPECT_EQ(r.status, ProofStatus::Proven) << r.note;
}

TEST(SymbolicTest, CertificateCheckTakesOneGomoryRound)
{
    // 2x + 2y - 1 >= 0 has no integer point with x + y = 0, so it
    // implies x + y - 1 >= 0 over the integers: the certificate {1}
    // sums to g = 2 times the goal's coefficients with constant -1, and
    // the goal's constant -1 >= floor(-1 / 2). Rounding -1/2 toward 0
    // instead would lose this; x + y - 2 >= 0 does not follow at all.
    std::vector<SymConstraint> sys = {con({2, 2}, {}, -1, "2x + 2y >= 1")};
    SymConstraint goal = con({1, 1}, {}, -1, "x + y >= 1");
    EXPECT_TRUE(checkCertificate(sys, {1}, goal));
    EXPECT_TRUE(checkCertificate(sys, {3}, goal));
    EXPECT_EQ(proveImplies(sys, goal).status, ProofStatus::Proven);
    SymConstraint far = con({1, 1}, {}, -2, "x + y >= 2");
    EXPECT_FALSE(checkCertificate(sys, {1}, far));
    EXPECT_EQ(proveImplies(sys, far).status, ProofStatus::Refuted);
    // The goal's direction with the opposite sign is no multiple.
    EXPECT_FALSE(checkCertificate(sys, {1}, con({-1, -1}, {}, 5, "")));
    // A unit certificate: the same coefficients, a constant as tight.
    std::vector<SymConstraint> rows = {con({1, 0}, {}, 0, ""),
                                       con({1, 1}, {}, -1, "")};
    EXPECT_EQ(unitCertificate(rows, goal), 1u);
    EXPECT_EQ(unitCertificate(rows, con({1, 1}, {}, 0, "")), 1u);
    EXPECT_EQ(unitCertificate(rows, far), rows.size());
}

TEST(SymbolicTest, GalleryVerdictsAgreeWithTheEnumerationOracle)
{
    // Every gallery kernel: the symbolic verdict (no enumeration
    // anywhere in the decision) and the independent point-by-point
    // oracle must both come back clean.
    using ir::Program;
    const std::pair<const char *, Program (*)()> kernels[] = {
        {"figure1", ir::gallery::figure1},
        {"section3Example", ir::gallery::section3Example},
        {"scalingExample", ir::gallery::scalingExample},
        {"section5Example", ir::gallery::section5Example},
        {"gemm", ir::gallery::gemm},
        {"gemv", ir::gallery::gemv},
        {"ger", ir::gallery::ger},
        {"jacobi2d", ir::gallery::jacobi2d},
        {"gaussSeidel", ir::gallery::gaussSeidel},
        {"syr2kBanded", ir::gallery::syr2kBanded},
    };
    int oracle_feasible = 0;
    for (const auto &[name, make] : kernels) {
        SCOPED_TRACE(name);
        core::Compilation c = core::compile(make());
        ValidationReport r =
            validate(c.program, c.nest(), c.normalization.depMatrix);
        EXPECT_TRUE(r.passed()) << r.render();

        EnumerationOracle o = enumerationOracle(c.program, c.nest());
        if (!o.feasible)
            continue;
        ++oracle_feasible;
        EXPECT_TRUE(o.latticeOk) << o.latticeDetail;
        EXPECT_TRUE(o.orderOk) << o.orderDetail;
        if (o.differentialRan)
            EXPECT_TRUE(o.differentialOk) << o.differentialDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
    // The gallery kernels all have small feasible bindings.
    EXPECT_EQ(oracle_feasible, 10);
}

TEST(SymbolicTest, SymbolicTripCountsMatchEnumeration)
{
    // Where a polynomial closed form exists it must count exactly what
    // the interpreter enumerates, at several parameter bindings; the
    // banded SYR2K (min/max bounds) must honestly decline.
    using ir::Program;
    const std::pair<const char *, Program (*)()> closed[] = {
        {"figure1", ir::gallery::figure1},
        {"section3Example", ir::gallery::section3Example},
        {"scalingExample", ir::gallery::scalingExample},
        {"section5Example", ir::gallery::section5Example},
        {"gemm", ir::gallery::gemm},
        {"gemv", ir::gallery::gemv},
        {"ger", ir::gallery::ger},
        {"jacobi2d", ir::gallery::jacobi2d},
        {"gaussSeidel", ir::gallery::gaussSeidel},
    };
    for (const auto &[name, make] : closed) {
        SCOPED_TRACE(name);
        ir::Program prog = make();
        std::optional<Polynomial> tc = symbolicTripCount(prog);
        ASSERT_TRUE(tc.has_value());
        size_t m = prog.params.size();
        for (Int v : {3, 4, 6}) {
            IntVec binding(m, v);
            uint64_t count = ir::forEachIteration(
                prog.nest, binding, [](const IntVec &) {});
            RatVec at(m, rat(v));
            EXPECT_EQ(tc->evaluate(at), rat(Int(count)))
                << "params=" << v << " poly " << tc->str(prog.params);
        }
    }
    EXPECT_FALSE(
        symbolicTripCount(ir::gallery::syr2kBanded()).has_value());
}

/**
 * A compact copy of the integration fuzzer's program generator:
 * concrete bounds 3..6 keep every space enumerable, 2-D arrays X and Y
 * get extents computed so all subscripts stay in range, loops are box
 * or triangular, and the statement X[s] = X[s'] + Y[t] with a 0/1
 * shift creates constant-distance dependences.
 */
ir::Program
generate(std::mt19937 &rng, size_t depth)
{
    std::uniform_int_distribution<Int> extent(3, 6);
    std::uniform_int_distribution<Int> coef(-1, 1);
    std::uniform_int_distribution<Int> shift(0, 1);
    std::uniform_int_distribution<int> kind(0, 2);

    IntVec hi(depth);
    for (size_t k = 0; k < depth; ++k)
        hi[k] = extent(rng);

    ir::ProgramBuilder b(depth);

    auto random_sub = [&](bool force_var, size_t var) {
        IntVec row(depth, 0);
        bool nonzero = false;
        for (size_t k = 0; k < depth; ++k) {
            row[k] = coef(rng);
            nonzero = nonzero || row[k] != 0;
        }
        if (force_var || !nonzero)
            row[var] = 1;
        return row;
    };
    size_t nsubs = 2;
    std::vector<IntVec> xrows, yrows;
    for (size_t d = 0; d < nsubs; ++d) {
        xrows.push_back(random_sub(d == 0, d % depth));
        yrows.push_back(random_sub(false, (d + 1) % depth));
    }
    Int xshift = shift(rng), yshift = shift(rng);

    auto range_of = [&](const IntVec &row) {
        Int lo = 0, up = 0;
        for (size_t k = 0; k < depth; ++k) {
            if (row[k] > 0)
                up += row[k] * hi[k];
            else
                lo += row[k] * hi[k];
        }
        return std::pair<Int, Int>(lo, up);
    };

    std::vector<ir::AffineExpr> xext, yext;
    IntVec xoff, yoff;
    for (size_t d = 0; d < nsubs; ++d) {
        auto [lo, up] = range_of(xrows[d]);
        xoff.push_back(-lo);
        xext.push_back(ir::AffineExpr::constant(
            Rational(up - lo + 1 + xshift), 0, 0));
        auto [lo2, up2] = range_of(yrows[d]);
        yoff.push_back(-lo2);
        yext.push_back(ir::AffineExpr::constant(
            Rational(up2 - lo2 + 1 + yshift), 0, 0));
    }
    ir::DistributionSpec dist =
        kind(rng) == 0 ? ir::DistributionSpec::wrapped(1)
                       : (kind(rng) == 1 ? ir::DistributionSpec::blocked(1)
                                         : ir::DistributionSpec::wrapped(0));
    size_t ax = b.array("X", xext, dist);
    size_t ay = b.array("Y", yext, ir::DistributionSpec::wrapped(1));

    for (size_t k = 0; k < depth; ++k) {
        if (k > 0 && kind(rng) == 0)
            b.loop("i" + std::to_string(k), b.var(k - 1), b.cst(hi[k]));
        else
            b.loop("i" + std::to_string(k), b.cst(0), b.cst(hi[k]));
    }

    auto make_ref = [&](size_t arr, const std::vector<IntVec> &rows,
                        const IntVec &off, Int extra) {
        std::vector<ir::AffineExpr> subs;
        for (size_t d = 0; d < rows.size(); ++d) {
            ir::AffineExpr e = b.cst(off[d] + (d == 0 ? extra : 0));
            for (size_t k = 0; k < depth; ++k)
                if (rows[d][k] != 0)
                    e = e + b.var(k).scaled(Rational(rows[d][k]));
            subs.push_back(e);
        }
        return b.ref(arr, subs);
    };

    ir::ArrayRef lhs = make_ref(ax, xrows, xoff, 0);
    ir::Expr rhs = ir::Expr::binary(
        '+', ir::Expr::arrayRead(make_ref(ax, xrows, xoff, xshift)),
        ir::Expr::arrayRead(make_ref(ay, yrows, yoff, 0)));
    b.assign(lhs, rhs);
    return b.build();
}

TEST(SymbolicTest, FuzzedProgramsSymbolicAndOracleVerdictsAgree)
{
    // 40 random programs, every space enumerable: the symbolic
    // verdict and the oracle must independently come back clean and
    // therefore agree -- no divergence on any check, ever.
    std::mt19937 rng(20260808);
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        ir::Program prog = generate(rng, 2 + size_t(trial % 2));
        core::Compilation c = core::compile(prog);

        ValidationReport r =
            validate(c.program, c.nest(), c.normalization.depMatrix);
        EXPECT_TRUE(r.passed()) << r.render();

        EnumerationOracle o = enumerationOracle(c.program, c.nest());
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_TRUE(o.allOk())
            << o.latticeDetail << " | " << o.orderDetail << " | "
            << o.differentialDetail;
        EXPECT_EQ(r.passed(), o.allOk());

        // The certificate check against the full prover, implication
        // by implication: every certificate it accepts is a proof.
        oracle::CertificateDifferential d =
            oracle::certificateDifferential(c.program, c.nest());
        for (const std::string &why : d.disagreements)
            ADD_FAILURE() << why;
        EXPECT_EQ(d.accepted, d.implications);
        EXPECT_EQ(d.proven, d.implications);
    }
}

TEST(SymbolicTest, FuzzedMiscompiledPlansFailOnBothSides)
{
    // Widening the emitted innermost upper bound by one stride step
    // always admits at least one point that is the image of no source
    // iteration. Both the symbolic prover (with no enumeration budget
    // at all) and the oracle must refuse the plan -- miscompiled plans
    // never pass, and the two verdicts must agree on WHY (lattice).
    std::mt19937 rng(0x5eedf00d);
    int tampered = 0;
    for (int trial = 0; trial < 200 && tampered < 40; ++trial) {
        ir::Program prog = generate(rng, 2 + size_t(trial % 2));
        core::Compilation c = core::compile(prog);
        std::vector<xform::TransformedLoop> loops = c.nest().loops();
        if (loops.back().upper.size() != 1)
            continue; // a min-bound could still bind; skip the trial
        SCOPED_TRACE("trial " + std::to_string(trial));
        ++tampered;
        loops.back().upper[0].constantTerm() =
            loops.back().upper[0].constantTerm() +
            Rational(loops.back().stride);
        xform::TransformedNest bad =
            rebuild(c.nest(), std::move(loops), c.nest().body());

        ValidationReport r =
            validate(c.program, bad, c.normalization.depMatrix);
        EXPECT_FALSE(r.passed()) << r.render();
        EXPECT_FALSE(check(r, CheckKind::LatticeEquivalence).passed);

        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.latticeOk) << o.latticeDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
    EXPECT_EQ(tampered, 40);
}

TEST(SymbolicTest, GalleryTamperShapesFailOnBothSides)
{
    // Independent tamper shapes on gallery kernels; for each, the
    // symbolic verdict and the oracle must agree that the plan is
    // wrong, through the check that owns the breakage.
    {
        // Shifted lower bound: the emitted nest misses points.
        core::Compilation c =
            core::compile(ir::gallery::section3Example());
        std::vector<xform::TransformedLoop> loops = c.nest().loops();
        loops.back().lower[0].constantTerm() =
            loops.back().lower[0].constantTerm() + Rational(1);
        xform::TransformedNest bad =
            rebuild(c.nest(), std::move(loops), c.nest().body());
        ValidationReport r =
            validate(c.program, bad, c.normalization.depMatrix);
        EXPECT_FALSE(check(r, CheckKind::LatticeEquivalence).passed);
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.latticeOk);
        EXPECT_EQ(r.passed(), o.allOk());
    }
    {
        // Perturbed transform entry: the nest no longer describes
        // T(source space), and T * T^-1 != I.
        core::Compilation c = core::compile(ir::gallery::gemm());
        IntMatrix t2 = c.nest().transform();
        t2(0, 0) = t2(0, 0) + 1;
        xform::TransformedNest bad(
            t2, c.nest().inverseTransform(), c.nest().lattice(),
            c.nest().loops(), c.nest().body());
        ValidationReport r =
            validate(c.program, bad, c.normalization.depMatrix);
        EXPECT_FALSE(r.passed()) << r.render();
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.allOk());
        EXPECT_EQ(r.passed(), o.allOk());
    }
    {
        // Swapped write subscripts: space and order intact, footprints
        // differ -- both sides must catch it in the body check alone.
        core::Compilation c = core::compile(ir::gallery::gemm());
        std::vector<ir::Statement> body = c.nest().body();
        ASSERT_GE(body[0].lhs.subscripts.size(), 2u);
        std::swap(body[0].lhs.subscripts[0], body[0].lhs.subscripts[1]);
        xform::TransformedNest bad =
            rebuild(c.nest(), c.nest().loops(), std::move(body));
        ValidationReport r =
            validate(c.program, bad, c.normalization.depMatrix);
        EXPECT_TRUE(check(r, CheckKind::LatticeEquivalence).passed);
        EXPECT_FALSE(
            check(r, CheckKind::DifferentialExecution).passed);
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_TRUE(o.latticeOk) << o.latticeDetail;
        ASSERT_TRUE(o.differentialRan);
        EXPECT_FALSE(o.differentialOk);
        EXPECT_EQ(r.passed(), o.allOk());
    }
    {
        // Doubled innermost stride, lattice kept: the loop as written
        // steps over every other point of T.Z^n.
        core::Compilation c =
            core::compile(ir::gallery::section3Example());
        std::vector<xform::TransformedLoop> loops = c.nest().loops();
        loops.back().stride *= 2;
        xform::TransformedNest bad =
            rebuild(c.nest(), std::move(loops), c.nest().body());
        ValidationReport r =
            validate(c.program, bad, c.normalization.depMatrix);
        const CheckResult &lat = check(r, CheckKind::LatticeEquivalence);
        EXPECT_FALSE(lat.passed);
        EXPECT_NE(lat.detail.find("declares stride"), std::string::npos)
            << lat.detail;
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.latticeOk) << o.latticeDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
    {
        // A lattice taken from a different T: T' is T's HNF with one
        // anchor entry moved, so the strides and the index agree but
        // the emitted walk scans another coset pattern.
        core::Compilation c =
            core::compile(ir::gallery::section3Example());
        IntMatrix h = c.nest().lattice().hnf();
        size_t k = h.rows() - 1;
        ASSERT_GT(h(k, k), 1) << "want a level with a nontrivial anchor";
        h(k, 0) = (h(k, 0) + 1) % h(k, k);
        xform::TransformedNest bad(
            c.nest().transform(), c.nest().inverseTransform(), Lattice(h),
            c.nest().loops(), c.nest().body());
        ASSERT_FALSE(bad.lattice().hnf() == c.nest().lattice().hnf());
        ValidationReport r =
            validate(c.program, bad, c.normalization.depMatrix);
        const CheckResult &lat = check(r, CheckKind::LatticeEquivalence);
        EXPECT_FALSE(lat.passed);
        EXPECT_NE(lat.detail.find("differs from the column HNF of T"),
                  std::string::npos)
            << lat.detail;
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.latticeOk) << o.latticeDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
    {
        // An outer bound that references an inner variable: the scan
        // order is no longer defined by the outer prefix alone.
        core::Compilation c = core::compile(ir::gallery::gemm());
        std::vector<xform::TransformedLoop> loops = c.nest().loops();
        ir::AffineExpr &up = loops.front().upper[0];
        up = up - ir::AffineExpr::variable(1, up.numVars(), up.numParams());
        xform::TransformedNest bad =
            rebuild(c.nest(), std::move(loops), c.nest().body());
        ValidationReport r =
            validate(c.program, bad, c.normalization.depMatrix);
        const CheckResult &dep =
            check(r, CheckKind::DependencePreservation);
        EXPECT_FALSE(dep.passed);
        EXPECT_NE(dep.detail.find("scan order premise"), std::string::npos)
            << dep.detail;
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.orderOk) << o.orderDetail;
        EXPECT_NE(o.orderDetail.find("ill-defined"), std::string::npos)
            << o.orderDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
}

/** The nest with every bound's certificate dropped: forward
 * implications go to the prover, as in a nest built by hand. */
xform::TransformedNest
withoutCertificates(const xform::TransformedNest &nest)
{
    std::vector<xform::TransformedLoop> loops = nest.loops();
    for (xform::TransformedLoop &l : loops)
        l.lowerCert = l.upperCert = {};
    return rebuild(nest, std::move(loops), nest.body());
}

/** Validating (prog, nest) gives the verdict and first failure of the
 * run without certificates. Returns whether it passed. */
bool
expectProverVerdict(const ir::Program &prog,
                    const xform::TransformedNest &nest,
                    const IntMatrix &deps, const std::string &what)
{
    ValidationReport r = validate(prog, nest, deps);
    ValidationReport p = validate(prog, withoutCertificates(nest), deps);
    EXPECT_EQ(r.passed(), p.passed()) << what << "\n" << r.render();
    EXPECT_EQ(r.firstFailure(), p.firstFailure()) << what;
    return p.passed();
}

/** Every emitted bound's certificate, in emission order (level, then
 * lower before upper). */
std::vector<IntVec *>
certificatesOf(std::vector<xform::TransformedLoop> &loops)
{
    std::vector<IntVec *> out;
    for (xform::TransformedLoop &l : loops) {
        for (IntVec &c : l.lowerCert)
            out.push_back(&c);
        for (IntVec &c : l.upperCert)
            out.push_back(&c);
    }
    return out;
}

TEST(SymbolicTest, CorruptCertificatesNeverChangeAVerdict)
{
    // A certificate is a witness the validator recomputes from its own
    // rows: a corrupt one can only fail the check and send the
    // implication to the prover. Every corruption below, on every
    // emitted bound of a clean gallery plan, must leave the verdict
    // and firstFailure() of a run without certificates.
    size_t corrupted = 0;
    for (auto make : {ir::gallery::gemm, ir::gallery::section3Example,
                      ir::gallery::syr2kBanded, ir::gallery::figure1}) {
        core::Compilation c = core::compile(make());
        const IntMatrix &deps = c.normalization.depMatrix;
        ASSERT_TRUE(expectProverVerdict(c.program, c.nest(), deps, "clean"));
        std::vector<xform::TransformedLoop> clean = c.nest().loops();
        size_t bounds = certificatesOf(clean).size();
        for (size_t j = 0; j < bounds; ++j) {
            ASSERT_FALSE(certificatesOf(clean)[j]->empty());
            std::vector<std::pair<std::string,
                                  std::function<void(IntVec &, const IntVec &)>>>
                kinds = {
                    {"negative multiplier",
                     [](IntVec &m, const IntVec &) {
                         auto z = std::find(m.begin(), m.end(), Int(0));
                         if (z != m.end())
                             *z = -1;
                         else
                             m[0] = -m[0];
                     }},
                    {"index out of range",
                     [](IntVec &m, const IntVec &) { m.push_back(1); }},
                    {"wrong length",
                     [](IntVec &m, const IntVec &) { m.pop_back(); }},
                    {"one multiplier doubled",
                     [](IntVec &m, const IntVec &) {
                         *std::find_if(m.begin(), m.end(),
                                       [](Int v) { return v != 0; }) *= 2;
                     }},
                    {"another bound's certificate",
                     [](IntVec &m, const IntVec &other) { m = other; }},
                };
            for (const auto &[kind, corrupt] : kinds) {
                std::vector<xform::TransformedLoop> loops = clean;
                std::vector<IntVec *> certs = certificatesOf(loops);
                corrupt(*certs[j], *certificatesOf(clean)[(j + 1) % bounds]);
                ++corrupted;
                expectProverVerdict(
                    c.program, rebuild(c.nest(), loops, c.nest().body()),
                    deps, kind + " on bound " + std::to_string(j));
            }
        }
    }
    EXPECT_GT(corrupted, 100u);
}

TEST(SymbolicTest, CertificatesOfTamperedBoundsFallBackToTheProver)
{
    // Tampered plans whose certificates would "prove" the tamper if
    // the checker skipped a step: the verdict must still be the
    // prover's refutation. GEMM under the identity emits u >= 0 and
    // u <= N - 1 with the certificates e_0 and e_1 over the source
    // rows (i >= 0, N - 1 - i >= 0, ...).
    ir::Program prog = ir::gallery::gemm();
    IntMatrix deps = deps::analyzeDependences(prog).matrix(3);
    xform::TransformedNest nest =
        xform::applyTransform(prog, IntMatrix::identity(3));
    ASSERT_EQ(nest.loops()[0].lowerCert.size(), 1u);
    ASSERT_EQ(nest.loops()[0].upperCert.size(), 1u);
    auto tampered = [&](Int upper_shift, bool constant_upper,
                        std::optional<IntVec> cert) {
        std::vector<xform::TransformedLoop> loops = nest.loops();
        ir::AffineExpr &up = loops[0].upper[0];
        if (constant_upper)
            up = ir::AffineExpr::constant(Rational(0), up.numVars(),
                                          up.numParams());
        up.constantTerm() = up.constantTerm() + Rational(upper_shift);
        if (cert)
            loops[0].upperCert[0] = *cert;
        return rebuild(nest, std::move(loops), nest.body());
    };
    IntVec stale = nest.loops()[0].upperCert[0];
    // u <= N - 2 under the stale certificate of u <= N - 1: right
    // coefficients, constant one too tight.
    EXPECT_FALSE(expectProverVerdict(prog, tampered(-1, false, stale), deps,
                                     "stale certificate, tightened"));
    // u <= N under the stale certificate: the forward implication
    // holds, and the source row N - 1 - i >= 0 has no emitted row as
    // tight, so the backward implication goes to the prover.
    EXPECT_FALSE(expectProverVerdict(prog, tampered(1, false, stale), deps,
                                     "stale certificate, widened"));
    // u <= 0 under -1 * (i >= 0), which sums to -i >= 0: a negative
    // multiplier would certify any upper bound of i.
    IntVec negative(stale.size(), 0);
    negative[0] = -1;
    EXPECT_FALSE(expectProverVerdict(prog, tampered(0, true, negative), deps,
                                     "negative multiplier"));
}

TEST(SymbolicTest, DependenceViolationIsCaughtOnlySymbolically)
{
    // The oracle checks the scan set, the scan order, and the concrete
    // footprints -- it has no dependence-distance check. Reversing the
    // outer Gauss-Seidel loop builds a bijective nest that enumerates
    // the right points in (its own) lexicographic order, so the only
    // layer that can reject it for every parameter value is the
    // symbolic dependence-preservation check: the symbolic side is
    // strictly stronger than enumeration here.
    ir::Program prog = ir::gallery::gaussSeidel();
    IntMatrix rev(2, 2);
    rev(0, 0) = -1;
    rev(1, 1) = 1;
    xform::TransformedNest nest = xform::applyTransform(prog, rev);
    deps::DependenceInfo dinfo = deps::analyzeDependences(prog);

    ValidationReport r =
        validate(prog, nest, dinfo.matrix(2));
    EXPECT_TRUE(check(r, CheckKind::LatticeEquivalence).passed);
    EXPECT_FALSE(check(r, CheckKind::DependencePreservation).passed);

    EnumerationOracle o = enumerationOracle(prog, nest);
    ASSERT_TRUE(o.feasible) << o.reason;
    EXPECT_TRUE(o.latticeOk) << o.latticeDetail;
    EXPECT_TRUE(o.orderOk) << o.orderDetail;
}

TEST(SymbolicTest, DependenceFamilyViolationFailsOnBothSides)
{
    // X[i0-i1-i2+9, i0+i2] = X[i0-i1-i2+10, i0+i2] + Y[...] over a
    // triangular space: the flow distances form the family
    // (a, 2a+1, -a), so the analysis is imprecise and the dependence
    // matrix holds only the columns (1,2,-1) and (0,1,0). T below keeps
    // both columns lexicographically positive but maps their
    // difference (1,1,-1), an anti-dependence, to (0,-1,0). The
    // symbolic check must decide the family as a whole, and the
    // oracle's concrete run must see the wrong values.
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
    ir::Program prog = b.build();
    deps::DependenceInfo dinfo = deps::analyzeDependences(prog);
    ASSERT_TRUE(dinfo.imprecise);
    IntMatrix t(3, 3);
    t(0, 0) = 1, t(0, 2) = 1;
    t(1, 0) = -1, t(1, 1) = 1, t(1, 2) = 1;
    t(2, 1) = 1, t(2, 2) = 1;
    ASSERT_TRUE(deps::isLegalTransformation(t, dinfo.matrix(3)))
        << "want a T that every dependence column allows";
    xform::TransformedNest nest = xform::applyTransform(prog, t);

    ValidationReport r = validate(prog, nest, dinfo.matrix(3));
    EXPECT_TRUE(check(r, CheckKind::LatticeEquivalence).passed);
    const CheckResult &dep = check(r, CheckKind::DependencePreservation);
    EXPECT_FALSE(dep.passed);
    EXPECT_NE(dep.detail.find("reverses its lexicographic sign"),
              std::string::npos)
        << dep.detail;
    EXPECT_TRUE(check(r, CheckKind::DifferentialExecution).passed);

    EnumerationOracle o = enumerationOracle(prog, nest);
    ASSERT_TRUE(o.feasible) << o.reason;
    EXPECT_TRUE(o.latticeOk) << o.latticeDetail;
    ASSERT_TRUE(o.differentialRan);
    EXPECT_FALSE(o.differentialOk) << o.differentialDetail;
    EXPECT_EQ(r.passed(), o.allOk());

    // The plan search proposes this T (it filters candidates by the
    // columns alone); validation must keep it from winning.
    core::ResilientOptions ropts;
    ropts.base.search.enabled = true;
    ropts.base.search.hostThreads = 1;
    core::Compilation c = core::compileResilient(prog, ropts);
    ASSERT_TRUE(c.search.ran);
    bool rejected = false;
    for (const xform::SearchScore &s : c.search.trail)
        if (s.transform == "[1 0 1; -1 1 1; 0 1 1]")
            rejected = rejected || s.verdict == "failed-validation";
    EXPECT_TRUE(rejected);
    EXPECT_FALSE(c.nest().transform() == t);
}

} // namespace
} // namespace anc::verify
