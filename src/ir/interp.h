/**
 * @file
 * Sequential interpreter for Program IR.
 *
 * Gives the IR executable semantics: it walks the iteration space in
 * lexicographic order, evaluates bounds exactly (ceil of the max lower
 * bound, floor of the min upper bound), and executes the body against
 * dense double storage. A trace callback observes every array access in
 * program order; the transformation engine's correctness tests compare
 * these traces before and after restructuring.
 */

#ifndef ANC_IR_INTERP_H
#define ANC_IR_INTERP_H

#include <cstdint>
#include <functional>

#include "ir/loop_nest.h"

namespace anc::ir {

/** Runtime bindings for a program's symbols. */
struct Bindings
{
    IntVec paramValues;               //!< one per Program::params
    std::vector<double> scalarValues; //!< one per Program::scalars
};

/** Dense storage for every array of a program. */
class ArrayStorage
{
  public:
    ArrayStorage(const Program &prog, const IntVec &param_values);

    /** Element access with bounds checking. */
    double &at(size_t array_id, const IntVec &subs);
    double at(size_t array_id, const IntVec &subs) const;

    /** Row-major flat offset of an element; throws UserError if any
     * subscript is out of range. */
    size_t flatten(size_t array_id, const IntVec &subs) const;

    /** Concrete extents of an array. */
    const IntVec &extents(size_t array_id) const
    {
        return extents_[array_id];
    }

    /** Flat data of an array (e.g. to compare interpreter runs). */
    std::vector<double> &data(size_t array_id) { return data_[array_id]; }
    const std::vector<double> &
    data(size_t array_id) const
    {
        return data_[array_id];
    }

    size_t numArrays() const { return data_.size(); }

    /** Fill every array with a deterministic pseudo-random pattern so
     * that before/after comparisons are meaningful. */
    void fillDeterministic(uint64_t seed = 1);

  private:
    std::vector<IntVec> extents_;
    std::vector<std::vector<double>> data_;
    std::vector<std::string> names_;
};

/**
 * An affine subscript compiled to pure integer arithmetic against fixed
 * parameter bindings:
 *
 *   value(u) = (num . u + cst) / den
 *
 * Parameters and the constant are folded into cst, and all coefficients
 * are scaled by the common denominator den (1 for integer-coefficient
 * source subscripts; the inverse-transform rows of restructured nests
 * introduce rationals that are integral at every lattice point).
 *
 * Besides plain evaluation this carries the strength-reduction data the
 * simulator's hot loop needs: stepDelta gives the exact change in value
 * when one loop variable advances by its stride, so innermost iterations
 * can update subscript values incrementally instead of re-evaluating the
 * dot product.
 */
struct CompiledAffine
{
    IntVec num;  //!< scaled variable coefficients
    Int cst = 0; //!< parameters and constant, folded and scaled
    Int den = 1; //!< common denominator

    /** Compile e against concrete parameter values. */
    static CompiledAffine compile(const AffineExpr &e, const IntVec &params);

    /** Exact value at the point u; throws InternalError if the rational
     * value is not integral there and OverflowError if it does not fit
     * in 64 bits. */
    Int eval(const IntVec &u) const;

    /** floor / ceil of the (possibly fractional) value at u: the
     * integer forms of upper / lower loop bounds. Throw OverflowError
     * when the result does not fit in 64 bits. */
    Int floorAt(const IntVec &u) const;
    Int ceilAt(const IntVec &u) const;

    /** num . u + cst in 128 bits; throws OverflowError instead of
     * wrapping when the sum leaves the 128-bit range. */
    Int128 numerator(const IntVec &u) const;

    /**
     * Exact integer change in value when variable k advances by stride
     * with deeper variables unchanged. Returns false when the change is
     * not an integer (the caller must re-evaluate at each point); this
     * cannot happen between two consecutive enumerated lattice points,
     * but callers stay defensive.
     */
    bool stepDelta(size_t k, Int stride, Int *delta) const;

    /** True if variable k has a nonzero coefficient. */
    bool
    dependsOnVar(size_t k) const
    {
        return k < num.size() && num[k] != 0;
    }
};

/** One observed array access, reported in execution order. */
struct AccessEvent
{
    size_t arrayId;
    IntVec subscript;
    bool isWrite;
};

using TraceFn = std::function<void(const AccessEvent &)>;

/** Evaluate the concrete lower bound of a loop (ceil of max). */
Int loopLowerBound(const Loop &l, const IntVec &vars, const IntVec &params);

/** Evaluate the concrete upper bound of a loop (floor of min). */
Int loopUpperBound(const Loop &l, const IntVec &vars, const IntVec &params);

/**
 * Walk the nest's iteration space in lexicographic order, calling fn
 * with the full index vector of each iteration. Returns the number of
 * iterations visited.
 */
uint64_t forEachIteration(const LoopNest &nest, const IntVec &params,
                          const std::function<void(const IntVec &)> &fn);

/** Evaluate an rhs expression at one iteration point. */
double evalExpr(const Expr &e, const IntVec &vars, const Bindings &binds,
                const ArrayStorage &store, const TraceFn &trace);

/** Execute one statement at one iteration point. */
void execStatement(const Statement &s, const IntVec &vars,
                   const Bindings &binds, ArrayStorage &store,
                   const TraceFn &trace);

/**
 * Run a whole program sequentially. Returns the iteration count.
 * The trace callback, when given, sees every access (write after reads
 * within a statement, statements in body order).
 */
uint64_t run(const Program &prog, const Bindings &binds,
             ArrayStorage &store, const TraceFn &trace = nullptr);

} // namespace anc::ir

#endif // ANC_IR_INTERP_H
