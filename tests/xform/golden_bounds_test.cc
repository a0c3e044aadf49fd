/**
 * @file
 * Golden loop bounds: every pinned input compiles to the transformed
 * nests, search-candidate bounds and validation verdicts recorded in
 * golden_bounds.txt.
 *
 * Fourier-Motzkin elimination writes the emitted loop bounds and the
 * validator proves them, so a change to the elimination engine must
 * leave both sides byte-identical. Each fixed input of
 * tests/svc/golden_inputs.h (gallery, samples, examples, corpus seeds)
 * compiles under the identity, normalized and searched options, and
 * one line per (input, mode) records:
 *
 *   <name>/<mode> <nest> <candidates> <passed> <failure> <steps>
 *
 * where <nest> is the fletcher64 of printTransformedNest for the served
 * nest; <candidates> the fletcher64 over every search candidate's
 * printed nest, or "unsolved" when its bounds do not solve (empty in
 * the identity and normalized modes, which do not search); <passed> is
 * validate()'s verdict on the served nest, <failure> the fletcher64 of
 * its firstFailure() and <steps> the deadline steps validation spent.
 * An input that does not parse is "shed"; one whose compile or
 * validation throws records the fletcher64 of the message instead.
 *
 * To regenerate the file after an intended change:
 *   ANC_WRITE_GOLDEN=tests/xform/golden_bounds.txt \
 *       build/tests/xform/golden_bounds_test
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/compiler.h"
#include "golden_inputs.h"
#include "xform/normalize.h"
#include "xform/search.h"
#include "xform/transform.h"

namespace anc::golden {
namespace {

const char *const kGoldenFile =
    ANC_SOURCE_DIR "/tests/xform/golden_bounds.txt";

std::optional<ir::Program>
programOf(const Input &in)
{
    if (in.program)
        return in.program;
    try {
        return dsl::parseProgramRecovering(in.source).program;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

/** Every enumerated candidate's printed nest, concatenated. */
std::string
candidateBounds(const ir::Program &prog, const core::ResilientOptions &o)
{
    xform::NormalizeResult norm =
        xform::accessNormalize(prog, o.base.normalize);
    std::string out;
    for (const xform::SearchCandidate &cand :
         xform::enumerateSearchCandidates(prog, norm, o.base.search)) {
        try {
            out += xform::printTransformedNest(
                xform::applyTransform(prog, cand.transform), prog);
        } catch (const Error &) {
            out += "unsolved\n";
        }
    }
    return out;
}

std::string
line(const ir::Program &prog, const char *mode)
{
    core::ResilientOptions o;
    o.base.identityTransform = std::string(mode) == "identity";
    o.base.search.enabled = std::string(mode) == "searched";
    o.base.search.hostThreads = 1;
    core::Compilation c;
    try {
        c = core::compileResilient(prog, o);
    } catch (const Error &e) {
        return "compile-error " + hex16(fletcher64(e.what()));
    }
    std::string cands = c.search.ran ? candidateBounds(c.program, o) : "";
    std::string out = hex16(fletcher64(
                          xform::printTransformedNest(c.nest(), c.program))) +
                      " " + hex16(fletcher64(cands));
    core::CancelToken token;
    try {
        verify::ValidationReport r = verify::validate(
            c.program, c.nest(), c.normalization.depMatrix, &token);
        out += std::string(r.passed() ? " 1 " : " 0 ") +
               hex16(fletcher64(r.firstFailure()));
    } catch (const Error &e) {
        out += " throws " + hex16(fletcher64(e.what()));
    }
    return out + " " + std::to_string(token.steps());
}

std::vector<std::string>
boundLines()
{
    std::vector<std::string> out;
    for (const Input &in : fixedInputs()) {
        std::optional<ir::Program> prog = programOf(in);
        for (const char *mode : {"identity", "normalized", "searched"}) {
            std::string name = in.name + "/" + mode;
            out.push_back(name + " " + (prog ? line(*prog, mode) : "shed"));
        }
    }
    return out;
}

TEST(GoldenBounds, EveryInputSolvesAndValidatesAsRecorded)
{
    std::vector<std::string> now = boundLines();
    if (const char *path = std::getenv("ANC_WRITE_GOLDEN")) {
        std::ofstream out(path);
        for (const std::string &l : now)
            out << l << "\n";
        GTEST_SKIP() << "wrote " << now.size() << " lines to " << path;
    }
    std::ifstream in(kGoldenFile);
    ASSERT_TRUE(in) << kGoldenFile;
    std::vector<std::string> want;
    for (std::string l; std::getline(in, l);)
        want.push_back(l);
    ASSERT_EQ(now.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(now[i], want[i]) << "line " << i + 1;
}

} // namespace
} // namespace anc::golden
