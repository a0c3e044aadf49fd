/**
 * @file
 * Exact dependence analysis for affine loop nests.
 *
 * Dependences are represented by distance vectors, as in Section 6 of
 * the paper: each column of the dependence matrix D is the distance
 * vector of one dependence, and a legal transformation T must keep the
 * leading nonzero of every column of T*D positive.
 *
 * For a pair of conflicting references the subscript-equality system is
 * solved exactly over the integers (Diophantine): the solution set of
 * distances is a coset d0 + L of a lattice L. When the solution is a
 * single constant vector the distance is exact. When L is nontrivial we
 * emit the (sign-normalized) lattice generators as distance vectors —
 * exact when there is a single generator (the paper's GEMM and SYR2K
 * cases), conservative otherwise, in which case DependenceInfo::imprecise
 * is set and callers should double-check legality dynamically (the test
 * suite verifies trace order empirically).
 */

#ifndef ANC_DEPS_DEPENDENCE_H
#define ANC_DEPS_DEPENDENCE_H

#include <string>
#include <vector>

#include "ir/loop_nest.h"

namespace anc::deps {

/** Classification of a dependence by the access kinds at its endpoints. */
enum class DepKind
{
    Flow,   //!< write then read
    Anti,   //!< read then write
    Output, //!< write then write
};

/** One dependence between two references of the nest. */
struct Dependence
{
    size_t arrayId;
    size_t srcStmt;
    size_t dstStmt;
    DepKind kind;
    /** Lexicographically positive distance, or all-zero for a
     * loop-independent dependence between distinct statements. */
    IntVec distance;
    /** True when the distance is a uniquely determined constant or the
     * single generator of the distance lattice. */
    bool exact;

    /** Direction-vector rendering like "(=, =, <)". */
    std::string directionStr() const;
};

/**
 * The complete integer solution set of one conflicting reference pair:
 * distances d = d0 + gens * z for z in Z^k. The emitted Dependence
 * vectors are representatives of this family; exact legality questions
 * ("does T preserve the order of every instance?") must be asked of the
 * family itself via preservesLexSign().
 */
struct DependenceFamily
{
    IntVec d0;
    IntMatrix gens; //!< n x k; k == 0 means the constant distance d0
};

/** The result of analyzing a whole program. */
struct DependenceInfo
{
    std::vector<Dependence> deps;
    /** One family per conflicting pair (input-only pairs excluded). */
    std::vector<DependenceFamily> families;
    /** Set when some distance family could not be represented exactly;
     * transformations remain conservative but callers may want to
     * verify legality dynamically. */
    bool imprecise = false;

    /**
     * The paper's dependence matrix D: one column per distinct nonzero
     * distance vector (loop-independent zero distances do not constrain
     * a transformation and are excluded). depth x k.
     */
    IntMatrix matrix(size_t depth) const;

    /** Only the loop-carried (nonzero-distance) dependences. */
    std::vector<Dependence> carried() const;
};

/**
 * Analyze all conflicting reference pairs of the program's nest (at
 * least one of the two a write: read-read pairs never constrain
 * legality).
 */
DependenceInfo analyzeDependences(const ir::Program &prog);

/**
 * True if transformation t preserves every dependence: the leading
 * nonzero of t*d is positive for each nonzero distance d.
 */
bool isLegalTransformation(const IntMatrix &t, const IntMatrix &dep_matrix);

/**
 * Exact (slightly conservative) test that t preserves the
 * lexicographic sign of EVERY member of the dependence family:
 * for all z with d = d0 + gens*z != 0, lexsign(t*d) == lexsign(d).
 *
 * The test enumerates the possible leading-index pairs of d and t*d and
 * solves the resulting Diophantine systems; the final two-inequality
 * feasibility is decided over the rationals, so an integral-only "thin
 * slab" violation may be reported even though no integer point attains
 * it -- an error in the safe direction.
 */
bool preservesLexSign(const IntMatrix &t, const DependenceFamily &f);

/** preservesLexSign over all families of an analysis. */
bool preservesLexSign(const IntMatrix &t,
                      const std::vector<DependenceFamily> &families);

} // namespace anc::deps

#endif // ANC_DEPS_DEPENDENCE_H
