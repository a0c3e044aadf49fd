#include "ir/interp.h"

#include <algorithm>

#include "ratmath/int_util.h"
#include "ratmath/rational.h"

namespace anc::ir {

ArrayStorage::ArrayStorage(const Program &prog, const IntVec &param_values)
{
    for (const ArrayDecl &a : prog.arrays) {
        IntVec ext = a.evalExtents(param_values);
        size_t total = 1;
        for (Int e : ext) {
            if (e <= 0)
                throw UserError("array '" + a.name +
                                "' has non-positive extent");
            total *= size_t(e);
        }
        extents_.push_back(std::move(ext));
        data_.emplace_back(total, 0.0);
        names_.push_back(a.name);
    }
}

size_t
ArrayStorage::flatten(size_t array_id, const IntVec &subs) const
{
    const IntVec &ext = extents_[array_id];
    if (subs.size() != ext.size())
        throw UserError("reference to '" + names_[array_id] +
                        "' has wrong rank");
    size_t off = 0;
    for (size_t d = 0; d < ext.size(); ++d) {
        if (subs[d] < 0 || subs[d] >= ext[d]) {
            throw UserError("subscript " + std::to_string(subs[d]) +
                            " out of range [0, " + std::to_string(ext[d]) +
                            ") in dimension " + std::to_string(d) +
                            " of '" + names_[array_id] + "'");
        }
        off = off * size_t(ext[d]) + size_t(subs[d]);
    }
    return off;
}

double &
ArrayStorage::at(size_t array_id, const IntVec &subs)
{
    return data_[array_id][flatten(array_id, subs)];
}

double
ArrayStorage::at(size_t array_id, const IntVec &subs) const
{
    return data_[array_id][flatten(array_id, subs)];
}

void
ArrayStorage::fillDeterministic(uint64_t seed)
{
    uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
    for (auto &arr : data_) {
        for (double &v : arr) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            // Small integers keep float arithmetic exact across
            // reorderings of additions in transformed code.
            v = double(Int(state >> 59)) - 16.0;
        }
    }
}


CompiledAffine
CompiledAffine::compile(const AffineExpr &e, const IntVec &params)
{
    if (params.size() != e.numParams())
        throw InternalError("affine compile: binding shape mismatch");
    // Scale every term by the common denominator, then fold the
    // parameters and the constant into one 128-bit integer.
    Int den = e.constantTerm().den();
    for (const Rational &c : e.varCoeffs())
        den = lcmInt(den, c.den());
    for (const Rational &c : e.paramCoeffs())
        den = lcmInt(den, c.den());
    auto scaled = [den](const Rational &c) {
        return checkedMul(c.num(), den / c.den());
    };
    CompiledAffine s;
    s.den = den;
    s.num.reserve(e.numVars());
    for (const Rational &c : e.varCoeffs())
        s.num.push_back(scaled(c));
    s.cst = scaled(e.constantTerm());
    for (size_t q = 0; q < e.numParams(); ++q) {
        Int128 term = Int128(scaled(e.paramCoeff(q))) * Int128(params[q]);
        if (__builtin_add_overflow(s.cst, term, &s.cst))
            throw OverflowError("affine value does not fit in 128 bits");
    }
    return s;
}

Int128
CompiledAffine::numerator(const IntVec &u) const
{
    Int128 acc = cst;
    for (size_t k = 0; k < num.size(); ++k) {
        // A 64 x 64-bit product always fits in 128 bits; the sum of two
        // near 2^126 does not.
        if (__builtin_add_overflow(acc, Int128(num[k]) * Int128(u[k]), &acc))
            throw OverflowError("affine value does not fit in 128 bits");
    }
    return acc;
}

Int
CompiledAffine::valueOf(Int128 n) const
{
    if (den != 1) {
        Int rem = Int(n % den);
        if (rem != 0) {
            // The exact-rational evaluator's error, on the reduced
            // fraction: gcd(n, den) == gcd(n mod den, den).
            Int g = gcdInt(rem, den);
            throw InternalError("asInteger on non-integer rational " +
                                Rational(narrow128(n / g), den / g).str());
        }
        n /= den;
    }
    return narrow128(n);
}

Int
CompiledAffine::floorOf(Int128 n) const
{
    return narrow128(floorDiv128(n, den));
}

Int
CompiledAffine::ceilOf(Int128 n) const
{
    return narrow128(ceilDiv128(n, den));
}

Int
CompiledAffine::eval(const IntVec &u) const
{
    return valueOf(numerator(u));
}

Int
CompiledAffine::floorAt(const IntVec &u) const
{
    return floorOf(numerator(u));
}

Int
CompiledAffine::ceilAt(const IntVec &u) const
{
    return ceilOf(numerator(u));
}

bool
CompiledAffine::stepDelta(size_t k, Int stride, Int *delta) const
{
    if (k >= num.size() || num[k] == 0) {
        *delta = 0;
        return true;
    }
    Int scaled = checkedMul(num[k], stride);
    if (scaled % den != 0)
        return false;
    *delta = scaled / den;
    return true;
}

void
LoopBounds::addLevel(const std::vector<AffineExpr> &lower,
                     const std::vector<AffineExpr> &upper,
                     const IntVec &params)
{
    Level lv;
    lv.lower.reserve(lower.size());
    lv.upper.reserve(upper.size());
    for (const AffineExpr &e : lower)
        lv.lower.push_back(CompiledAffine::compile(e, params));
    for (const AffineExpr &e : upper)
        lv.upper.push_back(CompiledAffine::compile(e, params));
    levels_.push_back(std::move(lv));
}

Int
LoopBounds::lower(size_t k, const IntVec &u) const
{
    const std::vector<CompiledAffine> &bounds = levels_[k].lower;
    if (bounds.empty())
        throw InternalError("loop without lower bounds");
    Int best = bounds[0].ceilAt(u);
    for (size_t i = 1; i < bounds.size(); ++i)
        best = std::max(best, bounds[i].ceilAt(u));
    return best;
}

Int
LoopBounds::upper(size_t k, const IntVec &u) const
{
    const std::vector<CompiledAffine> &bounds = levels_[k].upper;
    if (bounds.empty())
        throw InternalError("loop without upper bounds");
    Int best = bounds[0].floorAt(u);
    for (size_t i = 1; i < bounds.size(); ++i)
        best = std::min(best, bounds[i].floorAt(u));
    return best;
}

CompiledBody::CompiledBody(const std::vector<Statement> &body, size_t depth,
                           const Bindings &binds)
    : scalars_(binds.scalarValues)
{
    for (const Statement &s : body) {
        compileExpr(s.rhs, depth, binds.paramValues);
        Ref lhs = compileRef(s.lhs, depth, binds.paramValues);
        stmts_.push_back({code_.size(), lhs});
    }
}

size_t
CompiledBody::compileForm(const AffineExpr &e, size_t depth,
                          const IntVec &params)
{
    if (e.numVars() != depth)
        throw InternalError("affine evaluate: binding shape mismatch");
    forms_.push_back(CompiledAffine::compile(e, params));
    return forms_.size() - 1;
}

CompiledBody::Ref
CompiledBody::compileRef(const ArrayRef &r, size_t depth,
                         const IntVec &params)
{
    Ref out{r.arrayId, forms_.size(), r.subscripts.size()};
    for (const AffineExpr &s : r.subscripts)
        compileForm(s, depth, params);
    return out;
}

void
CompiledBody::compileExpr(const Expr &e, size_t depth, const IntVec &params)
{
    switch (e.kind) {
      case Expr::Kind::Number:
        code_.push_back({Op::Number, 0, e.number});
        return;
      case Expr::Kind::Scalar:
        code_.push_back({Op::Scalar, e.scalarId});
        return;
      case Expr::Kind::Index:
        code_.push_back({Op::Index, compileForm(e.index, depth, params)});
        return;
      case Expr::Kind::Ref:
        refs_.push_back(compileRef(e.ref, depth, params));
        code_.push_back({Op::Load, refs_.size() - 1});
        return;
      case Expr::Kind::Binary: {
        compileExpr(e.kids[0], depth, params);
        compileExpr(e.kids[1], depth, params);
        Op op = e.op == '+'   ? Op::Add
                : e.op == '-' ? Op::Sub
                : e.op == '*' ? Op::Mul
                : e.op == '/' ? Op::Div
                              : Op::Invalid;
        code_.push_back({op});
        return;
      }
    }
    throw InternalError("unknown expression kind");
}

void
CompiledBody::subscripts(const Ref &r, const IntVec &u)
{
    subs_.resize(r.rank);
    for (size_t d = 0; d < r.rank; ++d)
        subs_[d] = forms_[r.first + d].eval(u);
}

void
CompiledBody::exec(const IntVec &u, ArrayStorage &store,
                   const TraceFn &trace)
{
    size_t pc = 0;
    for (const Stmt &s : stmts_) {
        stack_.clear();
        for (; pc < s.codeEnd; ++pc) {
            const Instr &in = code_[pc];
            switch (in.op) {
              case Op::Number:
                stack_.push_back(in.value);
                continue;
              case Op::Scalar:
                stack_.push_back(scalars_.at(in.arg));
                continue;
              case Op::Index:
                stack_.push_back(double(forms_[in.arg].eval(u)));
                continue;
              case Op::Load: {
                const Ref &r = refs_[in.arg];
                subscripts(r, u);
                stack_.push_back(store.at(r.arrayId, subs_));
                if (trace)
                    trace({r.arrayId, subs_, false});
                continue;
              }
              case Op::Invalid:
                throw InternalError("unknown binary operator");
              default:
                break;
            }
            double b = stack_.back();
            stack_.pop_back();
            double &a = stack_.back();
            switch (in.op) {
              case Op::Add:
                a = a + b;
                break;
              case Op::Sub:
                a = a - b;
                break;
              case Op::Mul:
                a = a * b;
                break;
              default:
                a = a / b;
                break;
            }
        }
        subscripts(s.lhs, u);
        store.at(s.lhs.arrayId, subs_) = stack_.back();
        if (trace)
            trace({s.lhs.arrayId, subs_, true});
    }
}

uint64_t
run(const Program &prog, const Bindings &binds, ArrayStorage &store,
    const TraceFn &trace)
{
    if (binds.paramValues.size() != prog.params.size())
        throw UserError("wrong number of parameter values");
    if (binds.scalarValues.size() != prog.scalars.size())
        throw UserError("wrong number of scalar values");
    CompiledBody body(prog.nest.body(), prog.nest.depth(), binds);
    return forEachIteration(prog.nest, binds.paramValues,
                            [&](const IntVec &v) {
                                body.exec(v, store, trace);
                            });
}

} // namespace anc::ir
