#include "codegen/strength.h"

#include <algorithm>

namespace anc::codegen {

using ir::AffineExpr;

std::vector<InductionPlan>
planStrengthReduction(const xform::TransformedNest &nest)
{
    std::vector<InductionPlan> plans;
    auto consider = [&](const AffineExpr &e) {
        if (e.hasIntegerCoeffs())
            return; // no division to remove
        int level = e.innermostVar();
        if (level < 0)
            return; // loop-invariant: evaluated once anyway
        for (const InductionPlan &p : plans)
            if (p.expr == e)
                return; // deduplicate
        // Increment per step of the innermost varying loop: coeff *
        // stride. Integral by the lattice argument (see header).
        Rational inc = e.varCoeff(size_t(level)) *
                       Rational(nest.loops()[size_t(level)].stride);
        InductionPlan p;
        p.name = "t" + std::to_string(plans.size());
        p.expr = e;
        p.level = size_t(level);
        p.increment = inc.asInteger();
        plans.push_back(std::move(p));
    };
    for (const ir::Statement &s : nest.body())
        s.forEachAffine(consider);
    return plans;
}

uint64_t
runWithInduction(
    const xform::TransformedNest &nest, const IntVec &params,
    const std::vector<InductionPlan> &plans,
    const std::function<void(const IntVec &, const IntVec &)> &fn)
{
    size_t n = nest.depth();
    IntVec u(n, 0);
    IntVec y;
    IntVec values(plans.size(), 0);
    ir::LoopBounds bounds(nest.loops(), params);
    std::vector<ir::CompiledAffine> direct;
    for (const InductionPlan &p : plans)
        direct.push_back(ir::CompiledAffine::compile(p.expr, params));

    std::function<uint64_t(size_t)> walk = [&](size_t k) -> uint64_t {
        if (k == n) {
            // Verify every induction value against direct evaluation.
            for (size_t i = 0; i < plans.size(); ++i) {
                if (values[i] != direct[i].eval(u))
                    throw InternalError(
                        "strength reduction diverged from direct "
                        "evaluation");
            }
            fn(u, values);
            return 1;
        }
        Int lo = bounds.lower(k, u);
        Int hi = bounds.upper(k, u);
        if (lo > hi)
            return 0;
        Int s = nest.lattice().stride(k);
        Int start = nest.startAt(k, lo, y);
        uint64_t count = 0;
        bool first = true;
        for (Int v = start; v <= hi; v += s) {
            u[k] = v;
            y.push_back(nest.lattice().solveY(k, v, y));
            // Loop-entry initialization (the only divisions) and
            // per-iteration increments.
            for (size_t i = 0; i < plans.size(); ++i) {
                if (plans[i].level != k)
                    continue;
                if (first)
                    values[i] = direct[i].eval(u);
                else
                    values[i] =
                        checkedAdd(values[i], plans[i].increment);
            }
            first = false;
            count += walk(k + 1);
            y.pop_back();
        }
        u[k] = 0;
        return count;
    };
    return walk(0);
}

} // namespace anc::codegen
