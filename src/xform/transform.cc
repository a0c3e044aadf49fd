#include "xform/transform.h"

#include <algorithm>
#include <sstream>

#include "ir/printer.h"
#include "ratmath/linalg.h"

namespace anc::xform {

using ir::AffineExpr;

LoopBounds::LoopBounds(const TransformedNest &nest, const IntVec &params)
    : nest_(&nest), params_(params)
{
    try {
        levels_.reserve(nest.depth());
        for (const TransformedLoop &l : nest.loops()) {
            Level lv;
            for (const AffineExpr &e : l.lower)
                lv.lower.push_back(ir::CompiledAffine::compile(e, params));
            for (const AffineExpr &e : l.upper)
                lv.upper.push_back(ir::CompiledAffine::compile(e, params));
            levels_.push_back(std::move(lv));
        }
    } catch (const OverflowError &) {
        rational_ = true;
        levels_.clear();
    }
}

Int
LoopBounds::lower(size_t k, const IntVec &u) const
{
    if (rational_)
        return nest_->lowerAt(k, u, params_);
    const std::vector<ir::CompiledAffine> &bounds = levels_[k].lower;
    if (bounds.empty())
        throw InternalError("transformed loop without lower bounds");
    Int best = bounds[0].ceilAt(u);
    for (size_t i = 1; i < bounds.size(); ++i)
        best = std::max(best, bounds[i].ceilAt(u));
    return best;
}

Int
LoopBounds::upper(size_t k, const IntVec &u) const
{
    if (rational_)
        return nest_->upperAt(k, u, params_);
    const std::vector<ir::CompiledAffine> &bounds = levels_[k].upper;
    if (bounds.empty())
        throw InternalError("transformed loop without upper bounds");
    Int best = bounds[0].floorAt(u);
    for (size_t i = 1; i < bounds.size(); ++i)
        best = std::min(best, bounds[i].floorAt(u));
    return best;
}

TransformedNest::TransformedNest(IntMatrix t, RatMatrix t_inv,
                                 Lattice lattice,
                                 std::vector<TransformedLoop> loops,
                                 std::vector<ir::Statement> body,
                                 std::vector<AffineExpr> param_conditions)
    : t_(std::move(t)), tInv_(std::move(t_inv)), lattice_(std::move(lattice)),
      loops_(std::move(loops)), body_(std::move(body)),
      paramConditions_(std::move(param_conditions))
{}

Int
TransformedNest::lowerAt(size_t k, const IntVec &u,
                         const IntVec &params) const
{
    bool first = true;
    Int best = 0;
    for (const AffineExpr &e : loops_[k].lower) {
        Int v = e.evaluate(u, params).ceil();
        if (first || v > best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("transformed loop without lower bounds");
    return best;
}

Int
TransformedNest::upperAt(size_t k, const IntVec &u,
                         const IntVec &params) const
{
    bool first = true;
    Int best = 0;
    for (const AffineExpr &e : loops_[k].upper) {
        Int v = e.evaluate(u, params).floor();
        if (first || v < best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("transformed loop without upper bounds");
    return best;
}

Int
TransformedNest::startAt(size_t k, Int lower, const IntVec &y_prefix) const
{
    Int anchor = lattice_.anchor(k, y_prefix);
    Int s = lattice_.stride(k);
    return checkedAdd(lower, euclidMod(checkedSub(anchor, lower), s));
}

IntVec
TransformedNest::oldIteration(const IntVec &u) const
{
    RatVec x = tInv_.apply(toRational(u));
    IntVec out(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = x[i].asInteger();
    return out;
}

uint64_t
TransformedNest::forEachIteration(
    const IntVec &params, const std::function<void(const IntVec &)> &fn) const
{
    size_t n = depth();
    IntVec u(n, 0);
    IntVec y;
    y.reserve(n);
    LoopBounds bounds(*this, params);

    std::function<uint64_t(size_t)> walk = [&](size_t k) -> uint64_t {
        if (k == n) {
            fn(u);
            return 1;
        }
        Int lo = bounds.lower(k, u);
        Int hi = bounds.upper(k, u);
        if (lo > hi)
            return 0;
        Int s = lattice_.stride(k);
        Int start = startAt(k, lo, y);
        uint64_t count = 0;
        for (Int v = start; v <= hi; v += s) {
            u[k] = v;
            y.push_back(lattice_.solveY(k, v, y));
            count += walk(k + 1);
            y.pop_back();
        }
        u[k] = 0;
        return count;
    };
    return walk(0);
}

uint64_t
TransformedNest::run(const ir::Bindings &binds, ir::ArrayStorage &store,
                     const ir::TraceFn &trace) const
{
    return forEachIteration(binds.paramValues, [&](const IntVec &u) {
        for (const ir::Statement &s : body_)
            ir::execStatement(s, u, binds, store, trace);
    });
}

std::string
newLoopVarName(size_t k)
{
    static const char *kNames[] = {"u", "v", "w", "z"};
    if (k < 4)
        return kNames[k];
    return "u" + std::to_string(k);
}

TransformedNest
transformBody(const ir::Program &prog, const IntMatrix &t)
{
    size_t n = prog.nest.depth();
    if (!t.isSquare() || t.rows() != n)
        throw InternalError("transformation has wrong shape");
    auto t_inv = tryInverse(toRational(t));
    if (!t_inv)
        throw MathError("transformation matrix is singular");

    Lattice lattice(t);

    std::vector<TransformedLoop> loops(n);
    for (size_t k = 0; k < n; ++k) {
        loops[k].var = newLoopVarName(k);
        loops[k].stride = lattice.stride(k);
    }

    // Rewrite the body through the inverse map.
    std::vector<ir::Statement> body = prog.nest.body();
    for (ir::Statement &s : body) {
        s.forEachAffineMut(
            [&](AffineExpr &e) { e = e.composeWithVarMap(*t_inv); });
    }

    return TransformedNest(t, *t_inv, std::move(lattice), std::move(loops),
                           std::move(body), {});
}

TransformedNest
solveBounds(const ir::Program &prog, TransformedNest nest)
{
    size_t p = prog.params.size();

    // Constraints over the new space: substitute x = T^{-1} u.
    std::vector<ir::LinearConstraint> cons;
    for (const ir::LinearConstraint &c : prog.nest.constraints(p)) {
        AffineExpr e = c.toAffine().composeWithVarMap(nest.tInv_);
        cons.push_back(ir::LinearConstraint::fromAffine(e));
    }
    FMBounds fm = fourierMotzkin(cons, nest.depth(), p);

    for (size_t k = 0; k < nest.depth(); ++k) {
        nest.loops_[k].lower = std::move(fm.lower[k]);
        nest.loops_[k].upper = std::move(fm.upper[k]);
    }
    nest.paramConditions_ = std::move(fm.paramConditions);
    return nest;
}

TransformedNest
applyTransform(const ir::Program &prog, const IntMatrix &t)
{
    return solveBounds(prog, transformBody(prog, t));
}

std::string
printTransformedNest(const TransformedNest &nest, const ir::Program &prog)
{
    ir::NameTable names;
    for (const TransformedLoop &l : nest.loops())
        names.vars.push_back(l.var);
    names.params = prog.params;

    auto bound_list = [&](const std::vector<AffineExpr> &bounds,
                          const char *comb, const char *round) {
        std::ostringstream os;
        bool need_round = false;
        for (const AffineExpr &b : bounds)
            if (!b.hasIntegerCoeffs())
                need_round = true;
        if (bounds.size() > 1)
            os << comb << "(";
        for (size_t i = 0; i < bounds.size(); ++i) {
            if (i)
                os << ", ";
            if (need_round && !bounds[i].hasIntegerCoeffs())
                os << round << "(" << bounds[i].str(names) << ")";
            else
                os << bounds[i].str(names);
        }
        if (bounds.size() > 1)
            os << ")";
        return os.str();
    };

    std::ostringstream os;
    std::string indent;
    for (size_t k = 0; k < nest.depth(); ++k) {
        const TransformedLoop &l = nest.loops()[k];
        os << indent << "for " << l.var << " = "
           << bound_list(l.lower, "max", "ceil") << ", "
           << bound_list(l.upper, "min", "floor");
        if (l.stride != 1) {
            os << " step " << l.stride;
            // Report the congruence class when it is not simply 0.
            const IntMatrix &h = nest.lattice().hnf();
            bool anchored = false;
            for (size_t j = 0; j < k; ++j)
                if (h(k, j) % l.stride != 0)
                    anchored = true;
            if (anchored)
                os << " (aligned to lattice anchor)";
        }
        os << "\n";
        indent += "  ";
    }
    for (const ir::Statement &s : nest.body())
        os << indent << printStatement(s, prog, names) << "\n";
    return os.str();
}

} // namespace anc::xform
