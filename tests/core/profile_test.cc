/**
 * @file
 * Tests for the profile layer: phase wall-time recording in compile()
 * / compileResilient() and the derived metrics / tables.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/profile.h"
#include "ir/gallery.h"

namespace anc::core {
namespace {

bool
hasPhase(const Compilation &c, const std::string &name)
{
    for (const obs::PhaseTime &p : c.phaseTimes)
        if (p.name == name)
            return true;
    return false;
}

TEST(Profile, CompileRecordsPipelinePhases)
{
    Compilation c = compile(ir::gallery::gemm());
    EXPECT_TRUE(hasPhase(c, "basis-matrix"));
    EXPECT_TRUE(hasPhase(c, "apply-transform"));
    EXPECT_TRUE(hasPhase(c, "plan"));
    EXPECT_TRUE(hasPhase(c, "emit"));
    for (const obs::PhaseTime &p : c.phaseTimes)
        EXPECT_GE(p.us, 0.0) << p.name;
}

TEST(Profile, ResilientCompileRecordsNormalizationPhases)
{
    Compilation c = compileResilient(ir::gallery::gemm());
    EXPECT_EQ(c.tier, CompileTier::Full);
    EXPECT_TRUE(hasPhase(c, "validate"));
    EXPECT_TRUE(hasPhase(c, "access-matrix"));
    EXPECT_TRUE(hasPhase(c, "dependence"));
    EXPECT_TRUE(hasPhase(c, "basis-matrix"));
    EXPECT_TRUE(hasPhase(c, "legal-basis"));
    EXPECT_TRUE(hasPhase(c, "legal-invertible"));
    EXPECT_TRUE(hasPhase(c, "apply-transform"));
    EXPECT_TRUE(hasPhase(c, "strength-reduce"));
    for (const obs::PhaseTime &p : c.phaseTimes)
        if (p.name != "validate" && p.name != "access-matrix" &&
            p.name != "dependence")
            EXPECT_EQ(p.tier, "full") << p.name;
}

TEST(Profile, IdentityTierAnnotatesPhases)
{
    ResilientOptions ropts;
    ropts.base.identityTransform = true;
    Compilation c = compileResilient(ir::gallery::gemm(), ropts);
    EXPECT_EQ(c.tier, CompileTier::Identity);
    bool saw_identity = false;
    for (const obs::PhaseTime &p : c.phaseTimes)
        if (p.tier == "identity")
            saw_identity = true;
    EXPECT_TRUE(saw_identity);
}

TEST(Profile, CompileTraceEmitsWallSpans)
{
    obs::Trace trace;
    CompileOptions opts;
    opts.trace = &trace;
    opts.tracePid = trace.process("compile");
    Compilation c = compile(ir::gallery::gemm(), opts);
    ASSERT_FALSE(c.phaseTimes.empty());
    size_t spans = 0;
    for (const obs::TraceEvent &e : trace.events())
        if (e.ph == 'X')
            ++spans;
    EXPECT_EQ(spans, c.phaseTimes.size());
}

TEST(Profile, PhaseTableListsEveryPhaseAndTotal)
{
    Compilation c = compile(ir::gallery::gemm());
    std::string table = phaseTable(c);
    for (const obs::PhaseTime &p : c.phaseTimes)
        EXPECT_NE(table.find(p.name), std::string::npos) << p.name;
    EXPECT_NE(table.find("total"), std::string::npos);
    EXPECT_NE(table.find("tier 'full'"), std::string::npos);
}

TEST(Profile, RecordCompileMetricsCoversPhasesAndTier)
{
    Compilation c = compile(ir::gallery::gemm());
    obs::MetricsRegistry reg;
    recordCompileMetrics(reg, c);
    EXPECT_EQ(reg.value("compile.phases"), c.phaseTimes.size());
    EXPECT_EQ(reg.value("compile.tier.full"), 1u);
    EXPECT_EQ(reg.value("compile.degraded"), 0u);
    EXPECT_TRUE(reg.hasCounter("compile.phase_us.emit"));
}

TEST(Profile, RefTableEmptyWithoutPerReferenceRun)
{
    numa::SimStats s;
    EXPECT_EQ(refTable(s), "");
}

} // namespace
} // namespace anc::core
