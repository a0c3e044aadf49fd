/**
 * @file
 * Validation with the compile's dependence facts against validation
 * with a fresh dependence analysis.
 *
 * verify::validate takes the dependence columns, the distance families
 * and the imprecise flag from the compile's one deps::analyzeDependences
 * run (xform::NormalizeResult). Before it did, the dependence check
 * re-ran deps::analyzeDependences(prog) itself (input dependences
 * excluded) for the families and the flag. This helper validates one
 * nest both ways, with the same columns, and reports where the verdicts
 * or the first failures differ.
 */

#ifndef ANC_TESTS_ORACLE_DEPENDENCE_ORACLE_H
#define ANC_TESTS_ORACLE_DEPENDENCE_ORACLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "verify/verify.h"

namespace anc::oracle {

/** Both sides' reports and deadline steps, and where they differ. */
struct DependenceDifferential
{
    verify::ValidationReport passed; //!< with the facts handed in
    verify::ValidationReport fresh;  //!< with a fresh analysis
    uint64_t passedSteps = 0;
    uint64_t freshSteps = 0;
    /** "" when the verdicts and firstFailure() texts agree, else what
     * differs. */
    std::string mismatch;
};

/** Validate (prog, nest) against `dep_matrix` once with `families` and
 * `imprecise` and once with those of deps::analyzeDependences(prog).
 * Arithmetic faults of either side propagate. */
DependenceDifferential
dependenceDifferential(const ir::Program &prog,
                       const xform::TransformedNest &nest,
                       const IntMatrix &dep_matrix,
                       const std::vector<deps::DependenceFamily> &families,
                       bool imprecise);

} // namespace anc::oracle

#endif // ANC_TESTS_ORACLE_DEPENDENCE_ORACLE_H
