/**
 * @file
 * Integer executor for Program IR.
 *
 * Gives the IR executable semantics. Everything a walk evaluates is
 * compiled once per parameter binding to integer forms: loop bounds
 * (LoopBounds, ceil of the max lower bound and floor of the min upper
 * bound), statement subscripts and index values (CompiledAffine rows),
 * and each rhs expression (flat postfix code, CompiledBody). The walkers
 * visit the iteration space in lexicographic order and call a visitor
 * template per point, and the body executes against dense double
 * storage through one reused subscript buffer. A trace callback observes
 * every array access in program order; the transformation engine's
 * correctness tests compare these traces before and after
 * restructuring.
 *
 * This is the only evaluation path in the library. The exact-rational
 * interpreter it replaced is the test oracle (tests/ir/interp_oracle.h):
 * both agree on iteration counts, traces, stored values and the class
 * of every error, except that a value whose rational evaluation
 * overflows an intermediate may still be computed here in 128 bits.
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
 * An affine expression compiled to pure integer arithmetic against fixed
 * parameter bindings:
 *
 *   value(u) = (num . u + cst) / den
 *
 * Parameters and the constant are folded into cst (in 128 bits), and all
 * coefficients are scaled by the common denominator den (1 for
 * integer-coefficient source subscripts; the inverse-transform rows of
 * restructured nests introduce rationals that are integral at every
 * lattice point).
 *
 * Besides plain evaluation this carries the strength-reduction data the
 * simulator's hot loop needs: stepDelta gives the exact change in value
 * when one loop variable advances by its stride, so innermost iterations
 * can update subscript values incrementally instead of re-evaluating the
 * dot product.
 */
struct CompiledAffine
{
    IntVec num;     //!< scaled variable coefficients
    Int128 cst = 0; //!< parameters and constant, folded and scaled
    Int den = 1;    //!< common denominator

    /** Compile e against concrete parameter values. */
    static CompiledAffine compile(const AffineExpr &e, const IntVec &params);

    /** Exact value at the point u. Throws InternalError (with the
     * rational evaluator's message) if the value is not integral there
     * and OverflowError if it does not fit in 64 bits. */
    Int eval(const IntVec &u) const;

    /** floor / ceil of the (possibly fractional) value at u: the
     * integer forms of upper / lower loop bounds. Throw OverflowError
     * when the result does not fit in 64 bits. */
    Int floorAt(const IntVec &u) const;
    Int ceilAt(const IntVec &u) const;

    /** num . u + cst in 128 bits; throws OverflowError instead of
     * wrapping when the sum leaves the 128-bit range. */
    Int128 numerator(const IntVec &u) const;

    /** eval / floorAt / ceilAt given the numerator at the point, for
     * walkers that keep numerators up to date incrementally. */
    Int valueOf(Int128 n) const;
    Int floorOf(Int128 n) const;
    Int ceilOf(Int128 n) const;

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

/**
 * A nest's loop bounds compiled against one parameter binding. Every
 * lower/upper AffineExpr becomes a CompiledAffine, so walkers take
 * ceil-of-max / floor-of-min bounds in checked integer arithmetic.
 * Built from any loop list whose elements carry `lower` and `upper`
 * expression vectors: source Loops and transformed loops alike.
 */
class LoopBounds
{
  public:
    LoopBounds() = default;

    template <typename Loops>
    LoopBounds(const Loops &loops, const IntVec &params)
    {
        for (const auto &l : loops)
            addLevel(l.lower, l.upper, params);
    }

    /** ceil of the max lower bound of level k at the point u (deeper
     * coordinates of u are ignored). */
    Int lower(size_t k, const IntVec &u) const;
    /** floor of the min upper bound of level k at the point u. */
    Int upper(size_t k, const IntVec &u) const;

    /** The compiled lower / upper bound forms of level k. */
    const std::vector<CompiledAffine> &
    lowers(size_t k) const
    {
        return levels_[k].lower;
    }
    const std::vector<CompiledAffine> &
    uppers(size_t k) const
    {
        return levels_[k].upper;
    }

  private:
    struct Level
    {
        std::vector<CompiledAffine> lower, upper;
    };
    std::vector<Level> levels_;

    void addLevel(const std::vector<AffineExpr> &lower,
                  const std::vector<AffineExpr> &upper,
                  const IntVec &params);
};

/** One observed array access, reported in execution order. */
struct AccessEvent
{
    size_t arrayId;
    IntVec subscript;
    bool isWrite;
};

using TraceFn = std::function<void(const AccessEvent &)>;

/**
 * A statement list compiled against one binding: every subscript and
 * index value becomes a CompiledAffine row, and every rhs flat postfix
 * code over a value stack. Executing a point evaluates exactly what the
 * expression tree would, in the same order (left operand first, a
 * read's subscripts before its access, the write after the rhs), so
 * traces and errors match the tree walk. Subscripts go through one
 * reused buffer and values through one reused stack, so after the first
 * point an access allocates nothing unless it is traced.
 */
class CompiledBody
{
  public:
    /** Compile body, whose affine parts range over `depth` loop
     * variables; throws InternalError when one has another shape. */
    CompiledBody(const std::vector<Statement> &body, size_t depth,
                 const Bindings &binds);

    /** Execute every statement at the point u, in body order. */
    void exec(const IntVec &u, ArrayStorage &store, const TraceFn &trace);

  private:
    enum class Op : uint8_t
    {
        Number, //!< push value
        Scalar, //!< push scalars_.at(arg)
        Index,  //!< push forms_[arg] at u
        Load,   //!< push the element refs_[arg] names
        Add,
        Sub,
        Mul,
        Div,
        Invalid, //!< an operator the tree walk would reject
    };
    struct Instr
    {
        Op op;
        size_t arg = 0;
        double value = 0.0;
    };
    /** An array reference: forms_[first, first + rank). */
    struct Ref
    {
        size_t arrayId;
        size_t first;
        size_t rank;
    };
    struct Stmt
    {
        size_t codeEnd; //!< code_[previous codeEnd, codeEnd)
        Ref lhs;
    };

    std::vector<CompiledAffine> forms_;
    std::vector<Ref> refs_;
    std::vector<Instr> code_;
    std::vector<Stmt> stmts_;
    std::vector<double> scalars_;
    IntVec subs_;               //!< the one subscript buffer
    std::vector<double> stack_; //!< postfix value stack

    size_t compileForm(const AffineExpr &e, size_t depth,
                       const IntVec &params);
    Ref compileRef(const ArrayRef &r, size_t depth, const IntVec &params);
    void compileExpr(const Expr &e, size_t depth, const IntVec &params);
    /** Evaluate r's subscripts at u into subs_. */
    void subscripts(const Ref &r, const IntVec &u);
};

namespace detail {

template <typename Fn>
uint64_t
walkSource(const LoopBounds &b, IntVec &v, size_t k, Fn &fn)
{
    if (k == v.size()) {
        fn(static_cast<const IntVec &>(v));
        return 1;
    }
    Int lo = b.lower(k, v);
    Int hi = b.upper(k, v);
    uint64_t count = 0;
    for (Int i = lo; i <= hi; ++i) {
        v[k] = i;
        count += walkSource(b, v, k + 1, fn);
    }
    v[k] = 0;
    return count;
}

} // namespace detail

/**
 * Walk the nest's iteration space in lexicographic order, calling fn
 * with the full index vector of each iteration. Returns the number of
 * iterations visited.
 */
template <typename Fn>
uint64_t
forEachIteration(const LoopNest &nest, const IntVec &params, Fn &&fn)
{
    LoopBounds bounds(nest.loops(), params);
    IntVec vars(nest.depth(), 0);
    return detail::walkSource(bounds, vars, 0, fn);
}

/**
 * Run a whole program sequentially. Returns the iteration count.
 * The trace callback, when given, sees every access (write after reads
 * within a statement, statements in body order).
 */
uint64_t run(const Program &prog, const Bindings &binds,
             ArrayStorage &store, const TraceFn &trace = nullptr);

} // namespace anc::ir

#endif // ANC_IR_INTERP_H
