/**
 * @file
 * Golden validation reports: every fixed input's rendered translation
 * validation report is byte-identical to golden_reports.txt.
 *
 * The report's differential-execution line names the source's symbolic
 * trip count, which ValidationReport::render computes from the program
 * (the verdict never reads it). Each fixed input of
 * tests/svc/golden_inputs.h (gallery, samples, examples, corpus seeds),
 * and a GEMM whose trip count leaves 64 bits, compiles with validation
 * on under the identity, normalized and searched options, and one
 * block per (input, mode) records:
 *
 *   == <name>/<mode>
 *   <ValidationReport::render, verbatim>
 *   report <fletcher64 of Compilation::report()>
 *
 * An input that does not parse records "shed"; one whose compile
 * throws records "compile-error" and the fletcher64 of the message.
 *
 * To regenerate the file after an intended change:
 *   ANC_WRITE_GOLDEN=tests/verify/golden_reports.txt \
 *       build/tests/verify/golden_report_test
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/compiler.h"
#include "golden_inputs.h"

namespace anc::golden {
namespace {

const char *const kGoldenFile =
    ANC_SOURCE_DIR "/tests/verify/golden_reports.txt";

core::ResilientOptions
optionsFor(const std::string &mode)
{
    core::ResilientOptions o;
    o.base.validate = true;
    o.base.identityTransform = mode == "identity";
    o.base.search.enabled = mode == "searched";
    o.base.search.hostThreads = 1;
    return o;
}

/** The fixed inputs, plus a GEMM whose trip count (10^27) leaves 64
 * bits, for the report's out-of-range wording. */
std::vector<Input>
inputs()
{
    std::vector<Input> out = fixedInputs();
    out.push_back({"gemm-1e9", std::nullopt,
                   "array C(1000000000, 1000000000) distribute wrapped(1)\n"
                   "array A(1000000000, 1000000000) distribute wrapped(1)\n"
                   "array B(1000000000, 1000000000) distribute wrapped(1)\n"
                   "for i = 0, 999999999\n"
                   "  for j = 0, 999999999\n"
                   "    for k = 0, 999999999\n"
                   "      C[i, j] = C[i, j] + A[i, k] * B[k, j]\n"});
    return out;
}

/** The golden text, and every validated compile for further checks. */
std::string
reports(std::vector<core::Compilation> *validated)
{
    std::string out;
    for (const Input &in : inputs()) {
        std::optional<ir::Program> prog = programOf(in);
        for (const char *mode : {"identity", "normalized", "searched"}) {
            out += "== " + in.name + "/" + mode + "\n";
            if (!prog) {
                out += "shed\n";
                continue;
            }
            core::Compilation c;
            try {
                c = core::compileResilient(*prog, optionsFor(mode));
            } catch (const Error &e) {
                out += "compile-error " + hex16(fletcher64(e.what())) + "\n";
                continue;
            }
            out += c.validation.render(c.program);
            out += "report " + hex16(fletcher64(c.report())) + "\n";
            if (validated)
                validated->push_back(std::move(c));
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string l; std::getline(in, l);)
        out.push_back(l);
    return out;
}

TEST(GoldenReports, EveryInputRendersItsReportAsRecorded)
{
    std::vector<core::Compilation> validated;
    std::string now = reports(&validated);
    if (const char *path = std::getenv("ANC_WRITE_GOLDEN")) {
        std::ofstream(path) << now;
        GTEST_SKIP() << "wrote " << path;
    }
    std::ifstream in(kGoldenFile);
    ASSERT_TRUE(in) << kGoldenFile;
    std::vector<std::string> want = splitLines(readFile(kGoldenFile));
    std::vector<std::string> got = splitLines(now);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "line " << i + 1;

    // The trip count lives in the rendered report only: validation
    // computes no count, so no check's detail carries one.
    size_t checks = 0;
    for (const core::Compilation &c : validated)
        for (const verify::CheckResult &r : c.validation.checks) {
            ++checks;
            EXPECT_EQ(r.detail.find("trip count"), std::string::npos)
                << r.detail;
            EXPECT_EQ(r.detail.find("trip-count"), std::string::npos)
                << r.detail;
        }
    EXPECT_GT(checks, 0u);
}

} // namespace
} // namespace anc::golden
