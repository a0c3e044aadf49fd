/**
 * @file
 * Application of invertible integer loop transformations (Section 3).
 *
 * Given a source nest and an invertible integer matrix T, the transformed
 * iteration space is  T(P) ∩ T.Z^n : the rational image polyhedron (whose
 * per-level bounds come from Fourier-Motzkin elimination of A T^{-1} u,
 * projected by the integer-row engine of xform/fm.h that the validator's
 * prover shares) intersected with the image lattice (whose strides and
 * congruence anchors come from the column HNF of T). The body's subscripts are
 * rewritten through x = T^{-1} u; their coefficients may become rational
 * but are integral at every enumerated point.
 *
 * For unimodular T the lattice is all of Z^n, every stride is 1, and the
 * machinery degenerates to Banerjee's framework, as the paper notes.
 */

#ifndef ANC_XFORM_TRANSFORM_H
#define ANC_XFORM_TRANSFORM_H

#include <cstdint>
#include <string>

#include "ir/interp.h"
#include "ratmath/lattice.h"

namespace anc::xform {

/** One loop level of a transformed nest. */
struct TransformedLoop
{
    std::string var;
    std::vector<ir::AffineExpr> lower; //!< over outer new vars + params
    std::vector<ir::AffineExpr> upper;
    Int stride; //!< H[k][k]; 1 for unimodular transformations
    /**
     * Farkas certificates of the bounds, parallel to lower and upper
     * (solveBounds fills them). lowerCert[i] holds nonnegative
     * multipliers m over the source constraints, in
     * prog.nest.constraints(m) order, each taken as its
     * primitive-coefficient row in source space: sum_j m_j * c_j is a
     * positive multiple of the emitted row  u_k - lower[i] >= 0
     * composed through u = T x (likewise b - u_k for upper bounds).
     * A certificate may be missing (an empty vector, or a vector
     * shorter than its bounds): from a nest built by hand, a level
     * cleared in an empty space, or bookkeeping that left 64 bits.
     * Only the validator reads them, and it recomputes every row
     * itself: a wrong certificate costs it one proof, never a false
     * pass.
     */
    std::vector<IntVec> lowerCert = {}, upperCert = {};
};

/** A restructured loop nest, executable and printable. */
class TransformedNest
{
  public:
    TransformedNest(IntMatrix t, RatMatrix t_inv, Lattice lattice,
                    std::vector<TransformedLoop> loops,
                    std::vector<ir::Statement> body);

    size_t depth() const { return loops_.size(); }
    const IntMatrix &transform() const { return t_; }
    const RatMatrix &inverseTransform() const { return tInv_; }
    const Lattice &lattice() const { return lattice_; }
    const std::vector<TransformedLoop> &loops() const { return loops_; }
    const std::vector<ir::Statement> &body() const { return body_; }

    /**
     * First admissible value >= the concrete lower bound at level k,
     * given the forward-substitution prefix y_0..y_{k-1}: the smallest
     * value congruent to the lattice anchor modulo the stride.
     */
    Int startAt(size_t k, Int lower, const IntVec &y_prefix) const;

    /** The source-space iteration corresponding to new-space point u. */
    IntVec oldIteration(const IntVec &u) const;

    /**
     * Enumerate the transformed iteration space in lexicographic order,
     * calling fn(u) at each point. Each visited point u corresponds to
     * exactly one source iteration T^{-1} u. Returns the iteration
     * count.
     */
    template <typename Fn>
    uint64_t
    forEachIteration(const IntVec &params, Fn &&fn) const
    {
        ir::LoopBounds bounds(loops_, params);
        IntVec u(depth(), 0);
        IntVec y;
        y.reserve(depth());
        return walk(bounds, u, y, 0, fn);
    }

    /**
     * Execute the (rewritten) body over the whole space; semantically
     * equal to running the source program when the transformation is
     * legal. Returns the iteration count.
     */
    uint64_t run(const ir::Bindings &binds, ir::ArrayStorage &store,
                 const ir::TraceFn &trace = nullptr) const;

  private:
    friend TransformedNest solveBounds(const ir::Program &prog,
                                       TransformedNest nest);

    template <typename Fn>
    uint64_t
    walk(const ir::LoopBounds &b, IntVec &u, IntVec &y, size_t k,
         Fn &fn) const
    {
        if (k == u.size()) {
            fn(static_cast<const IntVec &>(u));
            return 1;
        }
        Int lo = b.lower(k, u);
        Int hi = b.upper(k, u);
        if (lo > hi)
            return 0;
        Int s = lattice_.stride(k);
        uint64_t count = 0;
        for (Int v = startAt(k, lo, y); v <= hi; v += s) {
            u[k] = v;
            y.push_back(lattice_.solveY(k, v, y));
            count += walk(b, u, y, k + 1, fn);
            y.pop_back();
        }
        u[k] = 0;
        return count;
    }

    IntMatrix t_;
    RatMatrix tInv_;
    Lattice lattice_;
    std::vector<TransformedLoop> loops_;
    std::vector<ir::Statement> body_;
};

/**
 * The bound-free part of applyTransform: the inverse, the image lattice
 * and the body rewritten through x = T^{-1} u. Every loop has its name
 * and stride but no bounds. The planner and the stride analysis read
 * nothing else, so the plan search ranks candidates on this nest before
 * paying for Fourier-Motzkin.
 * Throws MathError if t is singular.
 */
TransformedNest transformBody(const ir::Program &prog, const IntMatrix &t);

/**
 * The bounds part of applyTransform: substitute the source constraints
 * through the nest's inverse and project them level by level
 * (xform/fm.h, exact constants), filling every loop's lower/upper bounds
 * of a transformBody nest and the Farkas certificate of each bound
 * (TransformedLoop::lowerCert). Throws UserError if the space is unbounded
 * and OverflowError if a projected row leaves 64 bits. In a provably
 * empty space a level missing one side is left without bounds.
 */
TransformedNest solveBounds(const ir::Program &prog, TransformedNest nest);

/**
 * Apply the invertible transformation t to the program's nest:
 * solveBounds(prog, transformBody(prog, t)).
 * Throws MathError if t is singular and UserError if the space is
 * unbounded.
 */
TransformedNest applyTransform(const ir::Program &prog, const IntMatrix &t);

/** Names u, v, w, z, u4, u5, ... for transformed loops. */
std::string newLoopVarName(size_t k);

/** Render the transformed nest in the paper's style (Figure 1(c)),
 * including strides and congruence anchors for non-unimodular T. */
std::string printTransformedNest(const TransformedNest &nest,
                                 const ir::Program &prog);

} // namespace anc::xform

#endif // ANC_XFORM_TRANSFORM_H
