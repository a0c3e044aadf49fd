#include "ir/affine.h"

#include <charconv>

#include "ratmath/error.h"

namespace anc::ir {

void
AffineExpr::checkShape(const AffineExpr &o) const
{
    if (var_.size() != o.var_.size() || param_.size() != o.param_.size())
        throw InternalError("affine expression shape mismatch");
}

Rational
AffineExpr::evaluate(const IntVec &vars, const IntVec &params) const
{
    if (vars.size() != var_.size() || params.size() != param_.size())
        throw InternalError("affine evaluate: binding shape mismatch");
    Rational acc = const_;
    for (size_t k = 0; k < var_.size(); ++k)
        if (!var_[k].isZero())
            acc += var_[k] * Rational(vars[k]);
    for (size_t p = 0; p < param_.size(); ++p)
        if (!param_[p].isZero())
            acc += param_[p] * Rational(params[p]);
    return acc;
}

Int
AffineExpr::evaluateInt(const IntVec &vars, const IntVec &params) const
{
    return evaluate(vars, params).asInteger();
}

AffineExpr
AffineExpr::composeWithVarMap(const RatMatrix &map) const
{
    if (map.rows() != var_.size())
        throw InternalError("composeWithVarMap: shape mismatch");
    AffineExpr out(map.cols(), param_.size());
    for (size_t u = 0; u < map.cols(); ++u) {
        Rational c(0);
        for (size_t x = 0; x < var_.size(); ++x)
            if (!var_[x].isZero())
                c += var_[x] * map(x, u);
        out.var_[u] = c;
    }
    out.param_ = param_;
    out.const_ = const_;
    return out;
}

AffineExpr
AffineExpr::scaled(const Rational &f) const
{
    AffineExpr out = *this;
    for (Rational &c : out.var_)
        c *= f;
    for (Rational &c : out.param_)
        c *= f;
    out.const_ *= f;
    return out;
}

AffineExpr
AffineExpr::operator+(const AffineExpr &o) const
{
    checkShape(o);
    AffineExpr out = *this;
    for (size_t k = 0; k < var_.size(); ++k)
        out.var_[k] += o.var_[k];
    for (size_t p = 0; p < param_.size(); ++p)
        out.param_[p] += o.param_[p];
    out.const_ += o.const_;
    return out;
}

AffineExpr
AffineExpr::operator-(const AffineExpr &o) const
{
    checkShape(o);
    AffineExpr out = *this;
    for (size_t k = 0; k < var_.size(); ++k)
        out.var_[k] -= o.var_[k];
    for (size_t p = 0; p < param_.size(); ++p)
        out.param_[p] -= o.param_[p];
    out.const_ -= o.const_;
    return out;
}

AffineExpr
AffineExpr::operator-() const
{
    return scaled(Rational(-1));
}

bool
AffineExpr::operator==(const AffineExpr &o) const
{
    return var_ == o.var_ && param_ == o.param_ && const_ == o.const_;
}

namespace {

void
appendInt(std::string &out, Int v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** Append "+ c name" (or "- ...") to out, eliding unit coefficients. */
void
appendTerm(std::string &out, bool &first, const Rational &c,
           const std::string &name)
{
    if (c.isZero())
        return;
    if (first) {
        if (c.isNegative())
            out += '-';
        first = false;
    } else {
        out += c.isNegative() ? " - " : " + ";
    }
    // |c| through checkedNeg: rendering INT64_MIN fails as arithmetic
    // does, with OverflowError.
    Int num = c.isNegative() ? checkedNeg(c.num()) : c.num();
    if (name.empty() || num != 1 || c.den() != 1) {
        appendInt(out, num);
        if (c.den() != 1) {
            out += '/';
            appendInt(out, c.den());
        }
        if (name.empty())
            return;
        out += '*';
    }
    out += name;
}

} // namespace

void
AffineExpr::appendTo(std::string &out, const NameTable &names) const
{
    if (names.vars.size() != var_.size() ||
        names.params.size() != param_.size()) {
        throw InternalError("affine str: name table shape mismatch");
    }
    bool first = true;
    for (size_t k = 0; k < var_.size(); ++k)
        appendTerm(out, first, var_[k], names.vars[k]);
    for (size_t p = 0; p < param_.size(); ++p)
        appendTerm(out, first, param_[p], names.params[p]);
    appendTerm(out, first, const_, "");
    if (first)
        out += '0';
}

std::string
AffineExpr::str(const NameTable &names) const
{
    std::string out;
    appendTo(out, names);
    return out;
}

} // namespace anc::ir
