#include "ir/loop_nest.h"

#include <algorithm>

namespace anc::ir {

std::vector<AffineExpr>
LoopNest::constraints(size_t num_params) const
{
    std::vector<AffineExpr> out;
    size_t n = depth();
    for (size_t k = 0; k < n; ++k) {
        AffineExpr ik = AffineExpr::variable(k, n, num_params);
        for (const AffineExpr &lb : loops_[k].lower)
            out.push_back(ik - lb);
        for (const AffineExpr &ub : loops_[k].upper)
            out.push_back(ub - ik);
    }
    return out;
}

void
LoopNest::validate(size_t num_params) const
{
    size_t n = depth();
    for (size_t k = 0; k < n; ++k) {
        const Loop &l = loops_[k];
        if (l.lower.empty() || l.upper.empty())
            throw UserError("loop '" + l.var + "' is missing bounds");
        auto check_bound = [&](const AffineExpr &e) {
            if (e.numVars() != n || e.numParams() != num_params)
                throw UserError("bound of loop '" + l.var +
                                "' has wrong shape");
            for (size_t j = k; j < n; ++j) {
                if (e.dependsOnVar(j)) {
                    throw UserError("bound of loop '" + l.var +
                                    "' references inner or own variable");
                }
            }
        };
        for (const AffineExpr &e : l.lower)
            check_bound(e);
        for (const AffineExpr &e : l.upper)
            check_bound(e);
    }
    for (const Statement &s : body_) {
        s.forEachAffine([&](const AffineExpr &e) {
            if (e.numVars() != n || e.numParams() != num_params)
                throw UserError("statement expression has wrong shape");
        });
    }
}

size_t
Program::paramIndex(const std::string &name) const
{
    auto it = std::find(params.begin(), params.end(), name);
    if (it == params.end())
        throw UserError("unknown parameter '" + name + "'");
    return size_t(it - params.begin());
}

size_t
Program::arrayIndex(const std::string &name) const
{
    for (size_t i = 0; i < arrays.size(); ++i)
        if (arrays[i].name == name)
            return i;
    throw UserError("unknown array '" + name + "'");
}

size_t
Program::scalarIndex(const std::string &name) const
{
    auto it = std::find(scalars.begin(), scalars.end(), name);
    if (it == scalars.end())
        throw UserError("unknown scalar '" + name + "'");
    return size_t(it - scalars.begin());
}

void
Program::validate() const
{
    nest.validate(params.size());
    for (const ArrayDecl &a : arrays) {
        if (a.extents.empty())
            throw UserError("array '" + a.name + "' has no dimensions");
        for (const AffineExpr &e : a.extents) {
            if (e.numVars() != 0 || e.numParams() != params.size())
                throw UserError("array '" + a.name +
                                "' extent has wrong shape");
        }
        for (size_t d : a.dist.dims) {
            if (d >= a.numDims())
                throw UserError("array '" + a.name +
                                "' distributes a nonexistent dimension");
        }
    }
    auto check_stmt = [&](const Statement &s) {
        auto check_ref = [&](const ArrayRef &r, bool) {
            if (r.arrayId >= arrays.size())
                throw UserError("statement references unknown array");
            if (r.subscripts.size() != arrays[r.arrayId].numDims())
                throw UserError("reference to '" + arrays[r.arrayId].name +
                                "' has wrong subscript count");
        };
        s.forEachRef(check_ref);
    };
    for (const Statement &s : nest.body())
        check_stmt(s);
}

} // namespace anc::ir
