/**
 * @file
 * Perfect loop nests with polyhedral bounds, and whole programs.
 *
 * A nest of depth n binds loop variables i_0 (outermost) .. i_{n-1}
 * (innermost). Each level carries a set of affine lower bounds (the loop
 * runs from their max) and upper bounds (to their min), which directly
 * expresses the max/min bounds of the paper's banded SYR2K. Bounds at
 * level k may reference only variables 0..k-1 and the parameters. All
 * source loops have step 1; non-unit steps arise only from non-unimodular
 * transformations and live in xform::TransformedNest.
 */

#ifndef ANC_IR_LOOP_NEST_H
#define ANC_IR_LOOP_NEST_H

#include <string>
#include <vector>

#include "ir/expr.h"

namespace anc::ir {

/** One loop level: variable name plus lower/upper affine bound sets. */
struct Loop
{
    std::string var;
    std::vector<AffineExpr> lower; //!< i >= max(lower...)
    std::vector<AffineExpr> upper; //!< i <= min(upper...)
};

/** A perfect loop nest with a list of body statements. */
class LoopNest
{
  public:
    LoopNest() = default;

    size_t depth() const { return loops_.size(); }

    std::vector<Loop> &loops() { return loops_; }
    const std::vector<Loop> &loops() const { return loops_; }
    std::vector<Statement> &body() { return body_; }
    const std::vector<Statement> &body() const { return body_; }

    /**
     * All bound inequalities of the nest as affine expressions e over
     * (loop variables, parameters), each meaning e >= 0:
     *   i_k - lb for every lower bound, ub - i_k for every upper bound.
     */
    std::vector<AffineExpr> constraints(size_t num_params) const;

    /**
     * Structural validation: bounds at level k reference only variables
     * 0..k-1; every statement's affine parts have the nest's shape.
     * Throws UserError on violation.
     */
    void validate(size_t num_params) const;

  private:
    std::vector<Loop> loops_;
    std::vector<Statement> body_;
};

/** A whole compilation unit: parameters, scalars, arrays, one nest. */
struct Program
{
    std::vector<std::string> params;  //!< symbolic sizes (N, b, ...)
    std::vector<std::string> scalars; //!< runtime doubles (alpha, ...)
    std::vector<ArrayDecl> arrays;
    LoopNest nest;

    /** Index of a parameter by name; throws UserError if unknown. */
    size_t paramIndex(const std::string &name) const;

    /** Index of an array by name; throws UserError if unknown. */
    size_t arrayIndex(const std::string &name) const;

    /** Index of a scalar by name; throws UserError if unknown. */
    size_t scalarIndex(const std::string &name) const;

    /** Name table for printing expressions of this program's nest. */
    NameTable
    names() const
    {
        NameTable t;
        for (const Loop &l : nest.loops())
            t.vars.push_back(l.var);
        t.params = params;
        return t;
    }

    /** Full structural validation; throws UserError on violation. */
    void validate() const;
};

} // namespace anc::ir

#endif // ANC_IR_LOOP_NEST_H
