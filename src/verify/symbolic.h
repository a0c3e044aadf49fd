/**
 * @file
 * The symbolic translation-validation prover.
 *
 * Enumeration-based validation degrades with iteration-space size: the
 * nests production traffic cares about are exactly the ones a
 * point-by-point oracle cannot afford. This module proves the same
 * three claims symbolically, treating the loop bounds' parameters as
 * free symbols, so the cost depends only on nest depth and constraint
 * count — never on trip count:
 *
 *  1. Lattice equivalence. The emitted nest scans T(P) ∩ T·Zⁿ. The
 *     lattice part is decided exactly: the column Hermite normal form
 *     of T must equal the emitted stride/anchor lattice (HNF is a
 *     canonical form), the Smith invariant factors must multiply to
 *     the same index, and Diophantine solves re-prove generator
 *     membership in both directions through independent code. The
 *     polyhedron part substitutes u = T·x so both bound systems live
 *     in source space over integer points, then discharges one
 *     implication per bound: source system ⟹ each emitted bound
 *     (nothing is lost) and emitted system ⟹ each source bound
 *     (nothing is invented). A forward implication is discharged by
 *     the Farkas certificate solveBounds recorded for the bound
 *     (TransformedLoop::lowerCert): the checker combines its OWN
 *     source rows with the certificate's nonnegative multipliers and
 *     accepts when the sum is a positive multiple g of the emitted
 *     row's coefficients with a constant C such that the emitted
 *     constant is >= floor(C / g) — multiply, add, compare. A
 *     backward implication is discharged by a unit certificate the
 *     checker finds itself: an emitted row with the source row's
 *     coefficients and a constant at least as tight. Every step of
 *     either check is a sound integer inference from rows the checker
 *     built, so a wrong certificate can only fail the check, never
 *     pass a wrong bound. Where a certificate is missing or fails,
 *     the implication is proved by Fourier-Motzkin refutation over
 *     variables AND parameters — a rational contradiction of
 *     {system, ¬bound} is a proof valid for every parameter value.
 *     The projection is xform/fm.h, the engine that also solves the
 *     emitted bounds, run with floored constants (Gomory cuts). A
 *     failed proof triggers an integer witness search down the
 *     elimination cascade; a witness is a concrete counterexample
 *     iteration, reported with its parameter binding. Every
 *     refutation and failure detail comes from the prover.
 *
 *  2. Dependence preservation. T·d lex-positive per column (already
 *     symbolic). When the source's dependence analysis is imprecise,
 *     the columns only generate the distance families, and T may keep
 *     every column positive while reversing a combination of them, so
 *     each family is decided whole (deps::preservesLexSign, the exact
 *     test normalization uses). Plus a symbolic re-derivation of the
 *     premise that the emitted nest really scans in lexicographic
 *     order: bounds at level k may reference only outer variables, and
 *     the lattice HNF is lower-triangular with positive diagonal, which
 *     makes the per-level ascending stride walk lexicographic by
 *     construction.
 *
 *  3. Body equivalence. T·T⁻¹ == I exactly, and every emitted
 *     statement must equal the source statement with each affine
 *     (subscripts, index expressions) composed through x = T⁻¹u —
 *     coefficient-exact, so together with (1) and (2) the executions
 *     write identical footprints. Closed-form trip counts via abstract
 *     acceleration (Faulhaber sums over the bound polynomials) are
 *     attached where a closed form exists.
 *
 * Verdicts are pass or fail only. An obligation that can neither be
 * proved nor refuted within budget is a FAIL (conservative), never a
 * skip; for pipeline-produced nests every obligation is rationally
 * provable by construction, because Fourier-Motzkin emits bounds that
 * are nonnegative combinations of source constraints and vice versa,
 * and solveBounds hands over exactly those combinations.
 */

#ifndef ANC_VERIFY_SYMBOLIC_H
#define ANC_VERIFY_SYMBOLIC_H

#include <optional>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "ratmath/polynomial.h"
#include "xform/transform.h"

namespace anc::verify {

/**
 * One integer linear inequality  var·x + param·N + cst >= 0 with
 * primitive integer coefficients, plus an optional human-readable
 * provenance (checkLatticeSymbolic renders its own only for a failure
 * report).
 */
struct SymConstraint
{
    IntVec var;
    IntVec param;
    Int cst = 0;
    std::string origin;

    /** Exact evaluation at an integer point. */
    Int evaluate(const IntVec &x, const IntVec &p) const;
};

/** Build the primitive-integer form of `e >= 0`. A constraint with no
 * variable or parameter coefficients keeps its sign as a pure
 * constant (trivially true or false). */
SymConstraint makeConstraint(const ir::AffineExpr &e,
                             std::string origin = {});

/** Verdict of one implication query. */
enum class ProofStatus
{
    Proven,  //!< holds for every integer point and parameter value
    Refuted, //!< witness found: sys holds, goal violated
    Unknown, //!< neither; callers must treat this as a failure
};

struct ProofResult
{
    ProofStatus status = ProofStatus::Unknown;
    IntVec witnessVars;   //!< Refuted: the violating iteration
    IntVec witnessParams; //!< Refuted: the parameter binding
    std::string note;
};

/** Budgets for one prover run. */
struct ProverOptions
{
    /** Working-set cap per Fourier-Motzkin level (fm::System): the
     * elimination keeps the first maxRows row directions in insertion
     * order -- at each level the rows without the eliminated unknown,
     * then the combinations, lower-major -- each at its tightest
     * constant, and drops rows in any further direction. Soundness is
     * unaffected: kept rows are consequences, so Proven stays a proof,
     * and a witness is checked against the original rows, so Refuted
     * stays a counterexample. A cap that drops a needed row turns a
     * provable implication into Unknown. */
    size_t maxRows = 4096;
    /** Integer candidates tried per level of the witness search. */
    Int candidateSpan = 24;
    /** Total witness-search nodes before giving up (Unknown). */
    uint64_t maxNodes = 20000;
    /** Deadline the proof work is charged to (may be null). */
    core::CancelToken *cancel = nullptr;
};

/**
 * Decide  sys ⟹ goal >= 0  over integer assignments of the variables
 * with the parameters universally quantified (they are eliminated like
 * variables, so a proof covers every parameter value).
 */
ProofResult proveImplies(const std::vector<SymConstraint> &sys,
                         const SymConstraint &goal,
                         const ProverOptions &opts = {});

/**
 * Check a Farkas certificate for  sys ⟹ goal >= 0  over integer
 * points: with C = sum_i lambda[i]·sys[i], C's coefficients must be a
 * positive multiple g of goal's and goal.cst >= floor(C.cst / g) (one
 * Chvátal–Gomory round, which covers goals whose constant was
 * floored). False — never a refutation — for a certificate that is
 * malformed (wrong length, a negative multiplier) or fails the check.
 * Arithmetic is checked: an overflow throws like any validation fault.
 */
bool checkCertificate(const std::vector<SymConstraint> &sys,
                      const IntVec &lambda, const SymConstraint &goal);

/** The unit certificate of  sys ⟹ goal >= 0: the index of the first
 * row of sys with goal's coefficients and a constant no larger than
 * goal's, or sys.size() when there is none. */
size_t unitCertificate(const std::vector<SymConstraint> &sys,
                       const SymConstraint &goal);

/** Outcome of one whole symbolic check. */
struct SymbolicVerdict
{
    bool passed = false;
    std::string detail;
    /** checkLatticeSymbolic: implications discharged by a certificate,
     * and proveImplies calls made (for a passing plan, the
     * implications the prover discharged). */
    size_t byCertificate = 0;
    size_t byProver = 0;
};

/** Check 1: emitted scan set == T(source space), for all parameters. */
SymbolicVerdict checkLatticeSymbolic(const ir::Program &prog,
                                     const xform::TransformedNest &nest,
                                     const ProverOptions &opts = {});

/** Check 2: T·d lex-positive for every column (and every member of an
 * imprecise distance family) and the scan order premise re-derived. */
SymbolicVerdict
checkDependencesSymbolic(const ir::Program &prog,
                         const xform::TransformedNest &nest,
                         const IntMatrix &dep_matrix,
                         const ProverOptions &opts = {});

/** Check 3: emitted body == source body composed through T⁻¹. */
SymbolicVerdict checkBodySymbolic(const ir::Program &prog,
                                  const xform::TransformedNest &nest,
                                  const ProverOptions &opts = {});

/**
 * Closed-form symbolic trip count of the source nest over its
 * parameters, via abstract acceleration (Faulhaber summation level by
 * level, innermost first). Exact on the domain where every level is
 * nonempty; std::nullopt when a level has multiple lower or upper
 * bounds (e.g. banded SYR2K), where no polynomial closed form exists.
 */
std::optional<Polynomial> symbolicTripCount(const ir::Program &prog);

} // namespace anc::verify

#endif // ANC_VERIFY_SYMBOLIC_H
