/**
 * @file
 * Certificate coverage: every bound implication of a plan the pipeline
 * produces is discharged by a Farkas certificate, so validating it
 * makes no prover call.
 *
 * solveBounds records, for every emitted bound, the nonnegative
 * combination of source constraints that produced it, and every
 * source constraint is emitted or dominated at its innermost new
 * variable. checkLatticeSymbolic checks those witnesses and falls back
 * to the Fourier-Motzkin prover only where one fails. The fallback
 * keeps the verdict right either way, so a regression in the
 * bookkeeping would show only as lost speed; this test pins it. Inputs:
 * every fixed input of tests/svc/golden_inputs.h under the identity,
 * normalized and searched options, and every search candidate whose
 * bounds solve.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/compiler.h"
#include "golden_inputs.h"
#include "verify/symbolic.h"
#include "xform/normalize.h"
#include "xform/search.h"

namespace anc::golden {
namespace {

/** Passing plans whose validation still calls the prover, with why. */
const std::map<std::string, std::string> kProverNeeded = {};

/** Validate the lattice part of (prog, nest); record a passing plan
 * that called the prover under `name`. */
void
expectCertified(const std::string &name, const ir::Program &prog,
                const xform::TransformedNest &nest,
                std::map<std::string, size_t> &proverCalls, size_t &passed)
{
    verify::SymbolicVerdict v = verify::checkLatticeSymbolic(prog, nest);
    if (!v.passed)
        return;
    ++passed;
    // One implication per emitted bound and one per source constraint.
    size_t implications = prog.nest.constraints(prog.params.size()).size();
    for (const xform::TransformedLoop &l : nest.loops())
        implications += l.lower.size() + l.upper.size();
    EXPECT_EQ(v.byCertificate + v.byProver, implications) << name;
    if (v.byProver > 0)
        proverCalls[name] = v.byProver;
}

TEST(CertificateCoverage, PassingPlansMakeNoProverCalls)
{
    std::map<std::string, size_t> proverCalls;
    size_t passed = 0;
    for (const Input &in : fixedInputs()) {
        std::optional<ir::Program> prog = programOf(in);
        if (!prog)
            continue;
        for (const char *mode : {"identity", "normalized", "searched"}) {
            std::string name = in.name + "/" + mode;
            core::ResilientOptions o;
            o.base.identityTransform = std::string(mode) == "identity";
            o.base.search.enabled = std::string(mode) == "searched";
            o.base.search.hostThreads = 1;
            core::Compilation c;
            try {
                c = core::compileResilient(*prog, o);
            } catch (const Error &) {
                continue;
            }
            expectCertified(name, c.program, c.nest(), proverCalls, passed);
            if (!c.search.ran)
                continue;
            xform::NormalizeResult norm =
                xform::accessNormalize(c.program, o.base.normalize);
            size_t i = 0;
            for (const xform::SearchCandidate &cand :
                 xform::enumerateSearchCandidates(c.program, norm,
                                                  o.base.search)) {
                std::string cname = name + "#" + std::to_string(i++);
                try {
                    expectCertified(cname, c.program,
                                    xform::applyTransform(c.program,
                                                          cand.transform),
                                    proverCalls, passed);
                } catch (const Error &) {
                    // Bounds that do not solve have nothing to validate.
                }
            }
        }
    }
    EXPECT_GT(passed, 1000u);
    for (const auto &[name, calls] : proverCalls)
        EXPECT_TRUE(kProverNeeded.count(name))
            << name << ": " << calls << " prover call(s)";
    for (const auto &[name, why] : kProverNeeded)
        EXPECT_TRUE(proverCalls.count(name))
            << name << " is listed (" << why
            << ") but validates without the prover";
}

} // namespace
} // namespace anc::golden
