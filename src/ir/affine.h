/**
 * @file
 * Affine expressions over loop variables and symbolic parameters.
 *
 * An AffineExpr represents  sum_k varCoeff[k] * i_k
 *                         + sum_p paramCoeff[p] * N_p
 *                         + constant
 * with exact rational coefficients. Source programs have integer
 * coefficients; transformed programs acquire rational coefficients of
 * the form (row of T^-1), which are guaranteed to evaluate to integers
 * at points of the transformed lattice.
 */

#ifndef ANC_IR_AFFINE_H
#define ANC_IR_AFFINE_H

#include <string>
#include <vector>

#include "ratmath/matrix.h"

namespace anc::ir {

/** Names used to render an expression; indices into these vectors match
 * coefficient indices. */
struct NameTable
{
    std::vector<std::string> vars;
    std::vector<std::string> params;
};

class AffineExpr
{
  public:
    /** Zero expression in a context with the given shape. */
    AffineExpr(size_t num_vars = 0, size_t num_params = 0)
        : var_(num_vars, Rational(0)), param_(num_params, Rational(0)),
          const_(0)
    {}

    /** The loop variable i_k. */
    static AffineExpr
    variable(size_t k, size_t num_vars, size_t num_params)
    {
        AffineExpr e(num_vars, num_params);
        e.var_[k] = Rational(1);
        return e;
    }

    /** The symbolic parameter N_p. */
    static AffineExpr
    parameter(size_t p, size_t num_vars, size_t num_params)
    {
        AffineExpr e(num_vars, num_params);
        e.param_[p] = Rational(1);
        return e;
    }

    /** The constant c. */
    static AffineExpr
    constant(Rational c, size_t num_vars, size_t num_params)
    {
        AffineExpr e(num_vars, num_params);
        e.const_ = c;
        return e;
    }

    size_t numVars() const { return var_.size(); }
    size_t numParams() const { return param_.size(); }

    const Rational &varCoeff(size_t k) const { return var_[k]; }
    Rational &varCoeff(size_t k) { return var_[k]; }
    const Rational &paramCoeff(size_t p) const { return param_[p]; }
    Rational &paramCoeff(size_t p) { return param_[p]; }
    const Rational &constantTerm() const { return const_; }
    Rational &constantTerm() { return const_; }

    const RatVec &varCoeffs() const { return var_; }
    const RatVec &paramCoeffs() const { return param_; }

    /** True if no loop variable or parameter has a nonzero coefficient. */
    bool
    isConstant() const
    {
        for (const Rational &c : var_)
            if (!c.isZero())
                return false;
        for (const Rational &c : param_)
            if (!c.isZero())
                return false;
        return true;
    }

    /** True if the expression does not mention any loop variable. */
    bool
    isLoopInvariant() const
    {
        for (const Rational &c : var_)
            if (!c.isZero())
                return false;
        return true;
    }

    /** True if loop variable k has a nonzero coefficient. */
    bool dependsOnVar(size_t k) const { return !var_[k].isZero(); }

    /**
     * Index of the innermost (largest-index) loop variable mentioned, or
     * -1 if the expression is loop invariant.
     */
    int
    innermostVar() const
    {
        for (size_t k = var_.size(); k > 0; --k)
            if (!var_[k - 1].isZero())
                return int(k - 1);
        return -1;
    }

    /** True if all coefficients and the constant are integers. */
    bool
    hasIntegerCoeffs() const
    {
        for (const Rational &c : var_)
            if (!c.isInteger())
                return false;
        for (const Rational &c : param_)
            if (!c.isInteger())
                return false;
        return const_.isInteger();
    }

    /** Exact evaluation with integer bindings. */
    Rational evaluate(const IntVec &vars, const IntVec &params) const;

    /** Evaluate and require an integral result. */
    Int evaluateInt(const IntVec &vars, const IntVec &params) const;

    /**
     * Rewrite the loop-variable part through a change of basis: if the
     * old variables are x = map * u, the result expresses the same value
     * in terms of u. Parameter and constant parts are unchanged.
     */
    AffineExpr composeWithVarMap(const RatMatrix &map) const;

    /** Multiply every coefficient by f. */
    AffineExpr scaled(const Rational &f) const;

    AffineExpr operator+(const AffineExpr &o) const;
    AffineExpr operator-(const AffineExpr &o) const;
    AffineExpr operator-() const;
    bool operator==(const AffineExpr &o) const;
    bool operator!=(const AffineExpr &o) const { return !(*this == o); }

    /** Append the rendering, e.g. "i + 2*j - N + 1", to out. Throws
     * OverflowError for a coefficient of INT64_MIN. */
    void appendTo(std::string &out, const NameTable &names) const;

    /** The rendering appendTo produces, as a string. */
    std::string str(const NameTable &names) const;

  private:
    RatVec var_;
    RatVec param_;
    Rational const_;

    void checkShape(const AffineExpr &o) const;
};

} // namespace anc::ir

#endif // ANC_IR_AFFINE_H
