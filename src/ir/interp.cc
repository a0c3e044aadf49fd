#include "ir/interp.h"

#include "ratmath/int_util.h"

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
    // Fold parameters and the constant into one rational, then scale
    // everything by the common denominator of all terms.
    Rational cst = e.constantTerm();
    for (size_t q = 0; q < e.numParams(); ++q)
        if (!e.paramCoeff(q).isZero())
            cst += e.paramCoeff(q) * Rational(params[q]);
    Int den = cst.den();
    for (size_t k = 0; k < e.numVars(); ++k)
        den = lcmInt(den, e.varCoeff(k).den());
    CompiledAffine s;
    s.den = den;
    s.num.resize(e.numVars());
    for (size_t k = 0; k < e.numVars(); ++k)
        s.num[k] = (e.varCoeff(k) * Rational(den)).asInteger();
    s.cst = (cst * Rational(den)).asInteger();
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
CompiledAffine::eval(const IntVec &u) const
{
    Int v = narrow128(numerator(u));
    if (den != 1) {
        if (v % den != 0)
            throw InternalError("subscript not integral at point");
        v /= den;
    }
    return v;
}

Int
CompiledAffine::floorAt(const IntVec &u) const
{
    Int128 n = numerator(u);
    if (den == 1)
        return narrow128(n);
    Int128 q = n / den; // den > 0: adjust truncation toward -inf
    if (n % den != 0 && n < 0)
        --q;
    return narrow128(q);
}

Int
CompiledAffine::ceilAt(const IntVec &u) const
{
    Int128 n = numerator(u);
    if (den == 1)
        return narrow128(n);
    Int128 q = n / den; // den > 0: adjust truncation toward +inf
    if (n % den != 0 && n > 0)
        ++q;
    return narrow128(q);
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

Int
loopLowerBound(const Loop &l, const IntVec &vars, const IntVec &params)
{
    bool first = true;
    Int best = 0;
    for (const AffineExpr &e : l.lower) {
        Int v = e.evaluate(vars, params).ceil();
        if (first || v > best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("loop without lower bounds");
    return best;
}

Int
loopUpperBound(const Loop &l, const IntVec &vars, const IntVec &params)
{
    bool first = true;
    Int best = 0;
    for (const AffineExpr &e : l.upper) {
        Int v = e.evaluate(vars, params).floor();
        if (first || v < best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("loop without upper bounds");
    return best;
}

namespace {

uint64_t
walk(const LoopNest &nest, const IntVec &params, IntVec &vars, size_t level,
     const std::function<void(const IntVec &)> &fn)
{
    if (level == nest.depth()) {
        fn(vars);
        return 1;
    }
    const Loop &l = nest.loops()[level];
    Int lo = loopLowerBound(l, vars, params);
    Int hi = loopUpperBound(l, vars, params);
    uint64_t count = 0;
    for (Int i = lo; i <= hi; ++i) {
        vars[level] = i;
        count += walk(nest, params, vars, level + 1, fn);
    }
    vars[level] = 0;
    return count;
}

} // namespace

uint64_t
forEachIteration(const LoopNest &nest, const IntVec &params,
                 const std::function<void(const IntVec &)> &fn)
{
    IntVec vars(nest.depth(), 0);
    return walk(nest, params, vars, 0, fn);
}

double
evalExpr(const Expr &e, const IntVec &vars, const Bindings &binds,
         const ArrayStorage &store, const TraceFn &trace)
{
    switch (e.kind) {
      case Expr::Kind::Number:
        return e.number;
      case Expr::Kind::Scalar:
        return binds.scalarValues.at(e.scalarId);
      case Expr::Kind::Index:
        return double(e.index.evaluateInt(vars, binds.paramValues));
      case Expr::Kind::Ref: {
        IntVec subs;
        subs.reserve(e.ref.subscripts.size());
        for (const AffineExpr &s : e.ref.subscripts)
            subs.push_back(s.evaluateInt(vars, binds.paramValues));
        double v = store.at(e.ref.arrayId, subs);
        if (trace)
            trace({e.ref.arrayId, std::move(subs), false});
        return v;
      }
      case Expr::Kind::Binary: {
        double a = evalExpr(e.kids[0], vars, binds, store, trace);
        double b = evalExpr(e.kids[1], vars, binds, store, trace);
        switch (e.op) {
          case '+':
            return a + b;
          case '-':
            return a - b;
          case '*':
            return a * b;
          case '/':
            return a / b;
          default:
            throw InternalError("unknown binary operator");
        }
      }
    }
    throw InternalError("unknown expression kind");
}

void
execStatement(const Statement &s, const IntVec &vars, const Bindings &binds,
              ArrayStorage &store, const TraceFn &trace)
{
    double v = evalExpr(s.rhs, vars, binds, store, trace);
    IntVec subs;
    subs.reserve(s.lhs.subscripts.size());
    for (const AffineExpr &sub : s.lhs.subscripts)
        subs.push_back(sub.evaluateInt(vars, binds.paramValues));
    store.at(s.lhs.arrayId, subs) = v;
    if (trace)
        trace({s.lhs.arrayId, std::move(subs), true});
}

uint64_t
run(const Program &prog, const Bindings &binds, ArrayStorage &store,
    const TraceFn &trace)
{
    if (binds.paramValues.size() != prog.params.size())
        throw UserError("wrong number of parameter values");
    if (binds.scalarValues.size() != prog.scalars.size())
        throw UserError("wrong number of scalar values");
    return forEachIteration(
        prog.nest, binds.paramValues, [&](const IntVec &vars) {
            for (const Statement &s : prog.nest.body())
                execStatement(s, vars, binds, store, trace);
        });
}

} // namespace anc::ir
