/**
 * @file
 * Translation validation for compiled plans.
 *
 * The paper's central claim is that invertible (including
 * non-unimodular) transformations are *exact*: the HNF-derived strides
 * and congruence anchors of a transformed nest scan precisely the image
 * lattice T.Z^n intersected with the image polyhedron, in
 * lexicographic order, and every dependence stays lexicographically
 * non-negative. This module proves that claim for one concrete
 * Compilation after the fact, the way a translation validator checks a
 * production compiler: it never trusts the pipeline that produced the
 * nest, only the source program, the matrix T, and the emitted loops.
 *
 * Three independent checks, decided SYMBOLICALLY (verify/symbolic.h):
 * parameters stay free symbols, so the verdict covers every parameter
 * value and the cost is independent of iteration-space size.
 *
 *  1. Lattice equivalence -- HNF/Smith/Diophantine agreement between
 *     T.Z^n and the emitted stride lattice, plus one implication per
 *     bound in each direction (source covers emitted, emitted covers
 *     source) over integer points, discharged by checking the bound's
 *     Farkas certificate against the validator's own rows, or where
 *     that fails by a Fourier-Motzkin proof. The proofs project with
 *     the same engine that solved the emitted bounds (xform/fm.h), so
 *     a fault in that engine is caught by the test suite's enumeration
 *     oracle, not by validation.
 *
 *  2. Dependence preservation -- the leading nonzero of T*d must be
 *     positive for every dependence column and, where the source's
 *     dependence analysis is imprecise, keep its sign for every member
 *     of every distance family (deps::preservesLexSign); the premise
 *     that the emitted nest scans lexicographically is re-derived
 *     symbolically (triangular bounds, positive strides).
 *
 *  3. Differential execution -- T*T^-1 == I exactly and the emitted
 *     body equals the source body with every affine composed through
 *     x = T^-1 u, so both executions touch identical footprints;
 *     closed-form trip counts via abstract acceleration where they
 *     exist.
 *
 * Every check returns pass or fail -- there is no skipped verdict and
 * no "incomplete" escape hatch. An obligation the prover can neither
 * prove nor refute is a conservative FAIL with the reason in the
 * detail. The point-by-point enumeration oracle that agrees with these
 * proofs lives with the tests (tests/oracle/), not in this decision.
 * Internal arithmetic faults are NOT swallowed: they propagate as
 * anc::Error so a serving path can degrade the request rather than
 * cache an unvalidated plan.
 */

#ifndef ANC_VERIFY_VERIFY_H
#define ANC_VERIFY_VERIFY_H

#include <string>
#include <vector>

#include "core/cancel.h"
#include "xform/transform.h"

namespace anc::verify {

/** The three independent validation checks. */
enum class CheckKind
{
    LatticeEquivalence,     //!< emitted points == T * (source lattice)
    DependencePreservation, //!< T*d lex-positive, emitted order lex
    DifferentialExecution,  //!< body footprints identical
};

const char *checkName(CheckKind k);

/** Outcome of one check: always a verdict, never a skip. */
struct CheckResult
{
    CheckKind kind = CheckKind::LatticeEquivalence;
    /** The check found no violation. */
    bool passed = false;
    /** Explanation; on failure, includes a concrete counterexample
     * (a point with its parameter binding, a dependence column, or
     * the offending bound/subscript). */
    std::string detail;
};

/** The full validation verdict for one compiled nest. */
struct ValidationReport
{
    std::vector<CheckResult> checks;

    /** Every check passed. */
    bool passed() const;
    /** Detail of the first failed check, or "" when none failed. */
    std::string firstFailure() const;
    /** Human-readable multi-line report. */
    std::string render() const;
};

/**
 * Validate that `nest` is an exact restructuring of `prog` under the
 * transformation it carries, and that it respects every dependence
 * column of `dep_matrix` (source-space distance vectors, one per
 * column, as produced by deps::DependenceInfo::matrix()). Validation
 * work is charged to `cancel` when given: the serving path passes the
 * request's token so validation cannot outlive the request budget.
 *
 * Never throws for a wrong nest -- wrongness is the verdict. Internal
 * arithmetic faults and deadline exhaustion DO propagate (anc::Error /
 * core::DeadlineExceeded): a caller that cannot finish validating must
 * not treat the plan as validated.
 */
ValidationReport validate(const ir::Program &prog,
                          const xform::TransformedNest &nest,
                          const IntMatrix &dep_matrix,
                          core::CancelToken *cancel = nullptr);

} // namespace anc::verify

#endif // ANC_VERIFY_VERIFY_H
