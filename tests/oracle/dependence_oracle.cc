#include "dependence_oracle.h"

namespace anc::oracle {

DependenceDifferential
dependenceDifferential(const ir::Program &prog,
                       const xform::TransformedNest &nest,
                       const IntMatrix &dep_matrix,
                       const std::vector<deps::DependenceFamily> &families,
                       bool imprecise)
{
    DependenceDifferential out;
    core::CancelToken given, again;
    out.passed =
        verify::validate(prog, nest, dep_matrix, families, imprecise, &given);
    deps::DependenceInfo fresh = deps::analyzeDependences(prog);
    out.fresh = verify::validate(prog, nest, dep_matrix, fresh.families,
                                 fresh.imprecise, &again);
    out.passedSteps = given.steps();
    out.freshSteps = again.steps();
    if (out.passed.passed() != out.fresh.passed())
        out.mismatch = std::string("verdict: ") +
                       (out.passed.passed() ? "PASS" : "FAIL") +
                       " with the passed facts, " +
                       (out.fresh.passed() ? "PASS" : "FAIL") +
                       " with a fresh analysis";
    else if (out.passed.firstFailure() != out.fresh.firstFailure())
        out.mismatch = "first failure: '" + out.passed.firstFailure() +
                       "' with the passed facts, '" +
                       out.fresh.firstFailure() + "' with a fresh analysis";
    return out;
}

} // namespace anc::oracle
