/**
 * @file
 * Golden-format tests for the machine-readable diagnostics renderings.
 * The JSON shape is a compatibility contract: ancd batch responses and
 * the CI benchmark artifacts embed Diagnostics::renderJson() verbatim,
 * so the field set, field order, and escaping are pinned here byte for
 * byte -- a change to any of them is a deliberate format break, not a
 * refactor.
 */

#include <gtest/gtest.h>

#include "core/diagnostics.h"

namespace anc::core {
namespace {

TEST(DiagnosticsJsonTest, GoldenObjectShape)
{
    Diagnostic d;
    d.severity = Severity::Warning;
    d.stage = Stage::Legality;
    d.line = 7;
    d.message = "family dropped";
    d.detail = "row 2 not representable";
    EXPECT_EQ(d.renderJson(),
              "{\"severity\": \"warning\", \"stage\": \"legality\", "
              "\"line\": 7, \"message\": \"family dropped\", "
              "\"detail\": \"row 2 not representable\", "
              "\"origin\": \"\"}");
}

TEST(DiagnosticsJsonTest, AllFieldsPresentEvenWhenDefaulted)
{
    // Unknown line renders as -1 and empty detail as "" -- consumers
    // never need existence checks.
    Diagnostic d;
    d.message = "tier: full";
    EXPECT_EQ(d.renderJson(),
              "{\"severity\": \"note\", \"stage\": \"driver\", "
              "\"line\": -1, \"message\": \"tier: full\", "
              "\"detail\": \"\", \"origin\": \"\"}");
}

TEST(DiagnosticsJsonTest, EscapesQuotesBackslashesAndControlChars)
{
    Diagnostic d;
    d.severity = Severity::Error;
    d.stage = Stage::Parse;
    d.message = "bad \"token\" a\\b";
    d.detail = "line1\nline2\ttabbed\rcr \x01"
               "bell";
    EXPECT_EQ(d.renderJson(),
              "{\"severity\": \"error\", \"stage\": \"parse\", "
              "\"line\": -1, "
              "\"message\": \"bad \\\"token\\\" a\\\\b\", "
              "\"detail\": \"line1\\nline2\\ttabbed\\rcr \\u0001bell\", "
              "\"origin\": \"\"}");
}

TEST(DiagnosticsJsonTest, GoldenArrayShape)
{
    Diagnostics list;
    EXPECT_EQ(list.renderJson(), "[]");
    list.note(Stage::Driver, "served from plan cache");
    list.warning(Stage::Normalize, "overflow", "injected fault");
    EXPECT_EQ(
        list.renderJson(),
        "[{\"severity\": \"note\", \"stage\": \"driver\", \"line\": -1, "
        "\"message\": \"served from plan cache\", \"detail\": \"\", "
        "\"origin\": \"\"}, "
        "{\"severity\": \"warning\", \"stage\": \"normalization\", "
        "\"line\": -1, \"message\": \"overflow\", "
        "\"detail\": \"injected fault\", \"origin\": \"\"}]");
}

TEST(DiagnosticsJsonTest, EverySeverityAndStageNameIsStable)
{
    EXPECT_STREQ(severityName(Severity::Note), "note");
    EXPECT_STREQ(severityName(Severity::Warning), "warning");
    EXPECT_STREQ(severityName(Severity::Error), "error");
    // Stage names feed both renderJson and renderMachine; pin them all.
    const std::pair<Stage, const char *> stages[] = {
        {Stage::Parse, "parse"},
        {Stage::Validate, "validate"},
        {Stage::Dependence, "dependence-analysis"},
        {Stage::Normalize, "normalization"},
        {Stage::Legality, "legality"},
        {Stage::Transform, "transform"},
        {Stage::Plan, "codegen-planning"},
        {Stage::StrengthReduce, "strength-reduction"},
        {Stage::Emit, "emit"},
        {Stage::TranslationValidate, "translation-validate"},
        {Stage::Driver, "driver"},
    };
    for (const auto &[stage, name] : stages)
        EXPECT_STREQ(stageName(stage), name);
}

TEST(DiagnosticsJsonTest, OriginCarriesRequestProvenance)
{
    Diagnostic d;
    d.message = "tier: full";
    d.origin = "req-gemm-0";
    EXPECT_EQ(d.renderJson(),
              "{\"severity\": \"note\", \"stage\": \"driver\", "
              "\"line\": -1, \"message\": \"tier: full\", "
              "\"detail\": \"\", \"origin\": \"req-gemm-0\"}");
    EXPECT_NE(d.render().find("[request req-gemm-0]"), std::string::npos)
        << d.render();
    EXPECT_NE(d.renderMachine().find("origin=\"req-gemm-0\""),
              std::string::npos)
        << d.renderMachine();

    // stampOrigin fills only the blanks: merged diagnostics keep the
    // request they were originally produced for.
    Diagnostics list;
    list.note(Stage::Driver, "first");
    Diagnostic merged;
    merged.message = "merged";
    merged.origin = "other-request";
    list.add(merged);
    list.stampOrigin("this-request");
    EXPECT_EQ(list[0].origin, "this-request");
    EXPECT_EQ(list[1].origin, "other-request");
}

TEST(DiagnosticsJsonTest, MachineRenderingEscapesTooAndNamesEveryField)
{
    Diagnostic d;
    d.severity = Severity::Error;
    d.stage = Stage::Emit;
    d.line = 3;
    d.message = "say \"hi\"";
    std::string line = d.renderMachine();
    EXPECT_NE(line.find("severity=error"), std::string::npos) << line;
    EXPECT_NE(line.find("stage=emit"), std::string::npos) << line;
    EXPECT_NE(line.find("line=3"), std::string::npos) << line;
    EXPECT_NE(line.find("\\\"hi\\\""), std::string::npos) << line;
}

} // namespace
} // namespace anc::core
