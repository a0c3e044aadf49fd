/**
 * @file
 * The never-crash guarantee of core::compileResilient(), driven by the
 * deterministic fault injector: with a fault forced at EVERY checked
 * arithmetic operation reachable from the GEMM and SYR2K programs, the
 * driver never throws, every run lands on some ladder tier, diagnostics
 * name the failing stage, and every degraded result passes translation
 * validation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/compiler.h"
#include "ir/gallery.h"
#include "ratmath/fault.h"
#include "ratmath/linalg.h"
#include "svc/service.h"
#include "xform/normalize.h"

namespace anc::core {
namespace {

class ResilientTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }

    /** Checked-operation count of one clean resilient compile. */
    static uint64_t
    countOps(const ir::Program &prog)
    {
        fault::startCounting();
        compileResilient(prog);
        uint64_t n = fault::opCount();
        fault::disarm();
        return n;
    }

    /** Same, with translation validation enabled on every rung. */
    static uint64_t
    countOpsValidated(const ir::Program &prog)
    {
        ResilientOptions ropts;
        ropts.base.validate = true;
        fault::startCounting();
        compileResilient(prog, ropts);
        uint64_t n = fault::opCount();
        fault::disarm();
        return n;
    }
};

TEST_F(ResilientTest, CleanRunMatchesPlainCompile)
{
    // Both drivers run the same stage sequence; on a fault-free compile
    // of every gallery kernel, under every plan-changing mode, they must
    // agree on the tier, the node program and the explain record.
    const std::pair<const char *, ir::Program (*)()> kernels[] = {
        {"figure1", ir::gallery::figure1},
        {"section3", ir::gallery::section3Example},
        {"scaling", ir::gallery::scalingExample},
        {"section5", ir::gallery::section5Example},
        {"gemm", ir::gallery::gemm},
        {"gemv", ir::gallery::gemv},
        {"ger", ir::gallery::ger},
        {"jacobi2d", ir::gallery::jacobi2d},
        {"gaussSeidel", ir::gallery::gaussSeidel},
        {"syr2kBanded", ir::gallery::syr2kBanded},
        {"skewedScatter", ir::gallery::skewedScatter},
    };
    const std::pair<const char *, void (*)(CompileOptions &)> modes[] = {
        {"default", [](CompileOptions &) {}},
        {"identity", [](CompileOptions &o) { o.identityTransform = true; }},
        {"search", [](CompileOptions &o) { o.search.enabled = true; }},
        {"validate", [](CompileOptions &o) { o.validate = true; }},
    };
    for (const auto &[kernel, make] : kernels) {
        for (const auto &[mode, apply] : modes) {
            SCOPED_TRACE(std::string(kernel) + " / " + mode);
            ResilientOptions ropts;
            apply(ropts.base);
            Compilation plain = compile(make(), ropts.base);
            Compilation res = compileResilient(make(), ropts);
            EXPECT_EQ(res.tier, plain.tier);
            EXPECT_EQ(res.nodeProgram, plain.nodeProgram);
            EXPECT_EQ(explain(res).renderJson(),
                      explain(plain).renderJson());
        }
    }
    Compilation gemm = compileResilient(ir::gallery::gemm());
    EXPECT_EQ(gemm.tier, CompileTier::Full);
    EXPECT_FALSE(gemm.degraded());
    EXPECT_TRUE(gemm.diagnostics.empty());
}

/** The acceptance sweep: arm a fault at every checked-arithmetic index
 * reachable from `prog` and require graceful degradation each time. */
void
sweepEveryFaultSite(const ir::Program &prog, uint64_t total)
{
    ASSERT_GT(total, 0u);
    size_t degraded = 0;
    for (uint64_t k = 1; k <= total; ++k) {
        fault::armAt(k);
        Compilation c;
        ASSERT_NO_THROW(c = compileResilient(prog))
            << "fault at checked operation #" << k;
        fault::disarm();

        // Some ladder tier was reached and recorded.
        EXPECT_TRUE(c.tier == CompileTier::Full ||
                    c.tier == CompileTier::Unimodular ||
                    c.tier == CompileTier::Identity);
        if (!c.degraded())
            continue;
        ++degraded;

        // The diagnostics name the stage that failed: at least one
        // warning originates from a pipeline stage, not the driver.
        bool stage_named = false;
        for (const Diagnostic &d : c.diagnostics.all())
            if (d.severity == Severity::Warning &&
                d.stage != Stage::Driver)
                stage_named = true;
        EXPECT_TRUE(stage_named)
            << "fault #" << k << ":\n" << c.diagnostics.render();

        // The degraded result was translation-validated and passed.
        EXPECT_TRUE(c.validated)
            << "fault #" << k << ":\n" << c.diagnostics.render();
    }
    // A one-shot fault during compilation always costs something.
    EXPECT_EQ(degraded, total);
}

TEST_F(ResilientTest, GemmSurvivesFaultAtEveryCheckedOperation)
{
    ir::Program gemm = ir::gallery::gemm();
    sweepEveryFaultSite(gemm, countOps(gemm));
}

TEST_F(ResilientTest, Syr2kSurvivesFaultAtEveryCheckedOperation)
{
    ir::Program syr2k = ir::gallery::syr2kBanded();
    sweepEveryFaultSite(syr2k, countOps(syr2k));
}

TEST_F(ResilientTest, MathErrorsDegradeLikeOverflows)
{
    ir::Program gemm = ir::gallery::gemm();
    uint64_t total = countOps(gemm);
    for (uint64_t k = 1; k <= total; k += 37) {
        fault::armAt(k, fault::Kind::Math);
        Compilation c;
        ASSERT_NO_THROW(c = compileResilient(gemm)) << "math fault #" << k;
        fault::disarm();
        EXPECT_TRUE(c.degraded());
    }
}

TEST_F(ResilientTest, RepeatedFaultsWalkDownToIdentity)
{
    // Find a fault index that knocks out only the full rung (the run
    // lands on the unimodular tier), then pair it with a second fault
    // just after it so the unimodular rung fails too and the ladder
    // bottoms out at the identity transform.
    ir::Program gemm = ir::gallery::gemm();
    uint64_t total = countOps(gemm);
    uint64_t k_uni = 0;
    for (uint64_t k = 1; k <= total && !k_uni; ++k) {
        fault::armAt(k);
        Compilation c = compileResilient(gemm);
        fault::disarm();
        if (c.tier == CompileTier::Unimodular)
            k_uni = k;
    }
    ASSERT_NE(k_uni, 0u) << "no single fault produced the middle tier";

    bool reached_identity = false;
    for (uint64_t m = k_uni + 1; m <= k_uni + 600 && !reached_identity;
         ++m) {
        fault::arm({k_uni, m});
        Compilation c;
        ASSERT_NO_THROW(c = compileResilient(gemm));
        fault::disarm();
        if (c.tier == CompileTier::Identity) {
            reached_identity = true;
            EXPECT_TRUE(c.validated) << c.diagnostics.render();
            // Both failing rungs are explained.
            EXPECT_TRUE(c.diagnostics.hasWarnings());
        }
    }
    EXPECT_TRUE(reached_identity);
}

TEST_F(ResilientTest, ExhaustedLadderThrowsInternalErrorWithReport)
{
    // Fault EVERY checked operation: all rungs (including identity)
    // fail, which is the only path allowed to throw -- and it must be
    // InternalError carrying the diagnostic report, not a raw
    // OverflowError escaping a recovery boundary.
    ir::Program gemm = ir::gallery::gemm();
    uint64_t total = countOps(gemm);
    std::vector<uint64_t> everything;
    for (uint64_t k = 1; k <= 4 * total; ++k)
        everything.push_back(k);
    fault::arm(std::move(everything));
    try {
        compileResilient(gemm);
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("identity"), std::string::npos) << what;
        EXPECT_NE(what.find("diagnostics"), std::string::npos) << what;
    }
    fault::disarm();
}

TEST_F(ResilientTest, UserErrorStillPropagates)
{
    // Malformed input is the caller's problem, never swallowed by the
    // ladder: an array with no dimensions fails validation.
    ir::Program bad = ir::gallery::gemm();
    bad.arrays[0].extents.clear();
    EXPECT_THROW(compileResilient(bad), UserError);
}

TEST_F(ResilientTest, UnimodularOnlyModeYieldsUnimodularTransform)
{
    // The middle rung in isolation: section 3's example normally needs
    // a non-unimodular transformation; the unimodular restriction trades
    // the dropped basis rows for a determinant of +/-1.
    ir::Program prog = ir::gallery::section3Example();
    xform::AccessMatrixInfo access = xform::buildAccessMatrix(prog);
    deps::DependenceInfo dinfo = deps::analyzeDependences(prog);
    xform::NormalizeResult full =
        xform::normalize(prog, access, dinfo, {}, /*unimodular=*/false);
    ASSERT_FALSE(full.unimodular);
    EXPECT_EQ(full.transform,
              xform::accessNormalize(prog).transform);

    xform::NormalizeResult uni =
        xform::normalize(prog, access, dinfo, {}, /*unimodular=*/true);
    EXPECT_TRUE(uni.unimodular);
    EXPECT_TRUE(isUnimodular(uni.transform));
    EXPECT_GT(uni.unimodularDropped, 0u);
}

TEST_F(ResilientTest, DegradedReportNamesTierAndDiagnostics)
{
    ir::Program gemm = ir::gallery::gemm();
    fault::armAt(50);
    Compilation c = compileResilient(gemm);
    fault::disarm();
    ASSERT_TRUE(c.degraded());
    std::string report = c.report();
    EXPECT_NE(report.find("=== diagnostics ==="), std::string::npos);
    EXPECT_NE(report.find("tier: "), std::string::npos);
    EXPECT_NE(report.find("injected fault"), std::string::npos);
}

/**
 * The service stack (canonicalization, plan-key hashing, cache size
 * accounting, retry/backoff bookkeeping) added new checked-arithmetic
 * sites on top of the compiler pipeline. The never-crash sweep must
 * cover them the same way: a fault at EVERY site reachable from a cold
 * Service::serve() ends in a definite verdict, never an escaped
 * exception -- and when the verdict still delivers a plan, the request
 * is intact (key present, tier named).
 */
TEST_F(ResilientTest, ServiceSitesSurviveFaultAtEveryCheckedOperation)
{
    ir::Program prog = ir::gallery::section3Example();
    fault::startCounting();
    svc::Service(svc::ServiceOptions{}).serve("count", prog);
    uint64_t total = fault::opCount();
    fault::disarm();
    ASSERT_GT(total, 0u);

    for (uint64_t k = 1; k <= total; ++k) {
        fault::ScopedFault f(k);
        svc::Service s((svc::ServiceOptions()));
        svc::Response r;
        ASSERT_NO_THROW(r = s.serve("victim", prog)) << "fault #" << k;
        if (r.verdict == svc::Verdict::Compiled ||
            r.verdict == svc::Verdict::Cached ||
            r.verdict == svc::Verdict::Degraded) {
            EXPECT_TRUE(r.hasKey) << "fault #" << k;
            EXPECT_FALSE(r.tier.empty()) << "fault #" << k;
        } else {
            EXPECT_FALSE(r.diagnostics.empty()) << "fault #" << k;
        }
    }
}

/** Math-kind faults walk the same svc sites as overflows. */
TEST_F(ResilientTest, ServiceSitesSurviveMathFaults)
{
    ir::Program prog = ir::gallery::scalingExample();
    fault::startCounting();
    svc::Service(svc::ServiceOptions{}).serve("count", prog);
    uint64_t total = fault::opCount();
    fault::disarm();
    for (uint64_t k = 1; k <= total; k += 13) {
        fault::ScopedFault f(k, fault::Kind::Math);
        svc::Service s((svc::ServiceOptions()));
        svc::Response r;
        ASSERT_NO_THROW(r = s.serve("victim", prog))
            << "math fault #" << k;
    }
}

/**
 * ISSUE 8: the symbolic prover joined the serving path, so its checked
 * arithmetic (rational FM elimination, HNF/Smith/Diophantine lattice
 * algebra, Faulhaber polynomials) is now reachable from every compile
 * with validation on. A fault in the prover must degrade the ladder
 * tier -- never crash, and never let an unproven plan through as
 * validated. The sweep arms every site the validated compile adds on
 * top of the plain pipeline (that difference IS the prover).
 */
void
sweepValidationFaultSites(const ir::Program &prog, uint64_t plain,
                          uint64_t total)
{
    ASSERT_GT(total, plain)
        << "validation must add reachable checked-arithmetic sites";
    ResilientOptions ropts;
    ropts.base.validate = true;
    uint64_t span = total - plain;
    // Dense sweeps of the whole prover tail would take minutes; a
    // fixed-stride sample (first and last site always included) keeps
    // the sweep deterministic and the suite fast.
    uint64_t step = std::max<uint64_t>(1, span / 1500);
    size_t degraded = 0, swept = 0;
    for (uint64_t k = plain + 1; k <= total;
         k = (k == total ? total + 1
                         : std::min(total, k + step))) {
        ++swept;
        fault::armAt(k);
        Compilation c;
        ASSERT_NO_THROW(c = compileResilient(prog, ropts))
            << "validation fault at checked operation #" << k;
        fault::disarm();

        // Never a false pass: whatever tier the ladder lands on, the
        // delivered plan carries a full validation verdict that truly
        // passed -- the faulted rung was abandoned, not trusted.
        EXPECT_TRUE(c.validated) << "fault #" << k << ":\n"
                                 << c.diagnostics.render();
        EXPECT_TRUE(c.validation.passed()) << "fault #" << k;
        EXPECT_EQ(c.validation.checks.size(), 3u) << "fault #" << k;
        EXPECT_EQ(c.validation.render(c.program).find("skipped"),
                  std::string::npos)
            << "fault #" << k;
        if (c.degraded())
            ++degraded;
        else
            EXPECT_EQ(c.tier, CompileTier::Full) << "fault #" << k;
    }
    // A fault costs the rung it interrupted. Validation computes no
    // trip count (only a rendered report does), so no checked
    // operation of validation is caught and absorbed: every swept site
    // degrades.
    EXPECT_EQ(degraded, swept);
}

TEST_F(ResilientTest, GemmValidationSurvivesFaultAtEverySite)
{
    ir::Program gemm = ir::gallery::gemm();
    sweepValidationFaultSites(gemm, countOps(gemm),
                              countOpsValidated(gemm));
}

TEST_F(ResilientTest, Syr2kValidationSurvivesFaultAtEverySite)
{
    ir::Program syr2k = ir::gallery::syr2kBanded();
    sweepValidationFaultSites(syr2k, countOps(syr2k),
                              countOpsValidated(syr2k));
}

TEST_F(ResilientTest, ValidationMathFaultsDegradeLikeOverflows)
{
    ir::Program gemm = ir::gallery::gemm();
    uint64_t plain = countOps(gemm);
    uint64_t total = countOpsValidated(gemm);
    ResilientOptions ropts;
    ropts.base.validate = true;
    size_t degraded = 0, swept = 0;
    for (uint64_t k = plain + 1; k <= total; k += 41) {
        ++swept;
        fault::armAt(k, fault::Kind::Math);
        Compilation c;
        ASSERT_NO_THROW(c = compileResilient(gemm, ropts))
            << "math fault #" << k;
        fault::disarm();
        EXPECT_TRUE(c.validated && c.validation.passed())
            << "math fault #" << k;
        if (c.degraded())
            ++degraded;
        else
            EXPECT_EQ(c.tier, CompileTier::Full) << "math fault #" << k;
    }
    // No catch in validation absorbs a MathError.
    EXPECT_EQ(degraded, swept);
}

} // namespace
} // namespace anc::core
