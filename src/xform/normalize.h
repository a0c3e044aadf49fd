/**
 * @file
 * The access normalization driver: the paper's full pipeline.
 *
 *   data access matrix  (Section 2.2, ordered by importance)
 *     -> BasisMatrix    (Section 5.1, first row basis)
 *     -> LegalBasis     (Section 6.1, dependence filtering/reversal)
 *     -> LegalInvt      (Section 6.2, legality-preserving padding)
 *     -> applyTransform (Section 3, lattice-based restructuring)
 *
 * When the data access matrix is itself invertible and legal, it is used
 * directly (Section 4).
 */

#ifndef ANC_XFORM_NORMALIZE_H
#define ANC_XFORM_NORMALIZE_H

#include <functional>
#include <optional>

#include "deps/dependence.h"
#include "xform/access_matrix.h"
#include "xform/legal.h"
#include "xform/transform.h"

namespace anc::xform {

/** Options controlling the normalization pipeline. */
struct NormalizeOptions
{
    /** Enforce dependence legality (LegalBasis / LegalInvt). Disabling
     * this reproduces the Section 4/5 construction without Section 6,
     * for study only. */
    bool enforceLegality = true;
    /** Also report input (read-read) dependences in the result. */
    bool includeInputDeps = false;
    /** Use the paper's Section 2.2 ordering heuristic (distribution
     * dimensions first). Disable only to ablate the heuristic. */
    bool useDistributionHint = true;
};

/** Which normalized subscript, if any, a transformed loop exposes. */
struct NormalizedLoop
{
    size_t loopLevel;  //!< row of T / level of the new nest
    size_t accessRow;  //!< index into AccessMatrixInfo::rows
    bool distDim;      //!< the subscript is in a distribution dimension
};

/** Full record of one access-normalization run. */
struct NormalizeResult
{
    AccessMatrixInfo access;   //!< the ordered data access matrix
    IntMatrix depMatrix;       //!< distance vectors (columns)
    /** The analysis's distance families and imprecise flag, from the
     * same deps::DependenceInfo as depMatrix (translation validation
     * decides imprecise families whole from these). */
    std::vector<deps::DependenceFamily> depFamilies;
    bool depsImprecise = false;
    IntMatrix basis;           //!< after BasisMatrix
    IntMatrix legal;           //!< after LegalBasis (== basis when legality
                               //!< is disabled)
    IntMatrix transform;       //!< the final invertible T
    std::vector<NormalizedLoop> normalized; //!< Definition 4.1 hits
    std::optional<TransformedNest> nest;    //!< the restructured nest

    /** True when T is unimodular (Banerjee's special case). */
    bool unimodular = false;
    /** Rows of the access matrix that survived into T. */
    size_t rowsRetained = 0;
    /**
     * Set when the dependence analysis could not represent some
     * distance family exactly AND the exact family check
     * (deps::preservesLexSign) rejected the candidate transformation:
     * the pipeline then falls back to the identity (no restructuring),
     * which is always legal.
     */
    bool conservativeFallback = false;
    /** Unimodular restriction only: basis rows dropped to reach a
     * unimodular transformation. */
    size_t unimodularDropped = 0;

    // --- Decision trail (for obs/explain.h; always recorded, the
    // bookkeeping is a few integers per access row).
    /** Access-matrix rows BasisMatrix kept (indices, in kept order);
     * rows absent here were linearly dependent on earlier ones. */
    std::vector<size_t> basisKeptRows;
    /** LegalBasis verdict per basis row (empty when legality
     * enforcement was disabled). */
    std::vector<LegalRowVerdict> legalTrail;
    /** Dependence-carrying projection rows LegalInvt appended; the
     * remaining synthesized rows of T are identity padding. */
    size_t projectionRows = 0;
};

/** The steps of normalize(), in execution order. */
enum class NormalizeStep
{
    Basis,           //!< BasisMatrix
    LegalBasis,      //!< LegalBasis (legality enforced)
    LegalInvertible, //!< LegalInvt and the exact-family check
    Padding,         //!< plain padding (legality not enforced)
    Apply,           //!< Definition 4.1 hits and applyTransform
};

/** Phase name of a step ("basis-matrix", "legal-basis", ...). */
const char *stepName(NormalizeStep s);

/** Called on entry to every step (phase timing, deadlines, provenance). */
using StepHook = std::function<void(NormalizeStep)>;

/**
 * The normalization steps proper, on analyses the caller already ran:
 * BasisMatrix -> LegalBasis -> LegalInvt (or plain padding when legality
 * is not enforced) -> Definition 4.1 -> applyTransform. With
 * `unimodular`, T is restricted to Banerjee's special case: trailing
 * basis rows are dropped until the padded matrix has determinant +/-1,
 * falling back to the identity when no prefix works. Unimodular
 * transformations need no image-lattice strides or strength-reduced
 * division code, which makes this the middle rung of
 * core::compileResilient()'s degradation ladder.
 */
NormalizeResult normalize(const ir::Program &prog,
                          const AccessMatrixInfo &access,
                          const deps::DependenceInfo &dinfo,
                          const NormalizeOptions &opts, bool unimodular,
                          const StepHook &onStep = {});

/**
 * Run the full pipeline on a program: analyses, then normalize(). The
 * returned transformation is always invertible and, unless legality
 * enforcement was disabled, respects every analyzed dependence.
 */
NormalizeResult accessNormalize(const ir::Program &prog,
                                const NormalizeOptions &opts = {});

/**
 * Make `t` the result's transformation T, with its unimodularity and
 * its Definition 4.1 hits: loop level l normalizes access-matrix row a
 * when row l of T equals that row, possibly negated (reversed). `r` is
 * left unchanged if this throws.
 */
void adoptTransform(NormalizeResult &r, IntMatrix t);

/** Human-readable report of a normalization run (matrices, choices). */
std::string describe(const NormalizeResult &r, const ir::Program &prog);

} // namespace anc::xform

#endif // ANC_XFORM_NORMALIZE_H
