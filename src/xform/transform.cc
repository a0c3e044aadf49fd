#include "xform/transform.h"

#include <algorithm>

#include "ir/printer.h"
#include "ratmath/linalg.h"
#include "xform/fm.h"

namespace anc::xform {

using ir::AffineExpr;

TransformedNest::TransformedNest(IntMatrix t, RatMatrix t_inv,
                                 Lattice lattice,
                                 std::vector<TransformedLoop> loops,
                                 std::vector<ir::Statement> body)
    : t_(std::move(t)), tInv_(std::move(t_inv)), lattice_(std::move(lattice)),
      loops_(std::move(loops)), body_(std::move(body))
{}

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
TransformedNest::run(const ir::Bindings &binds, ir::ArrayStorage &store,
                     const ir::TraceFn &trace) const
{
    ir::CompiledBody body(body_, depth(), binds);
    return forEachIteration(binds.paramValues, [&](const IntVec &u) {
        body.exec(u, store, trace);
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
                           std::move(body));
}

TransformedNest
solveBounds(const ir::Program &prog, TransformedNest nest)
{
    size_t n = nest.depth(), m = prog.params.size();

    // Constraints over the new space: substitute x = T^{-1} u.
    fm::System sys(fm::Rounding::Exact);
    for (const AffineExpr &c : prog.nest.constraints(m))
        sys.add(fm::toRow(c.composeWithVarMap(nest.tInv_),
                          fm::Rounding::Exact));

    // Innermost level first: a row a*u_k + r >= 0 bounds u_k by -r/a,
    // from below when a > 0 and from above when a < 0.
    for (size_t k = n; k-- > 0;) {
        size_t col = m + k;
        TransformedLoop &loop = nest.loops_[k];
        for (const fm::Row &r : sys.rows())
            if (r.z[col] != 0)
                (r.z[col] > 0 ? loop.lower : loop.upper)
                    .push_back(fm::boundOf(r, k, n, m));
        if (loop.lower.empty() || loop.upper.empty()) {
            if (!sys.contradiction())
                throw UserError("iteration space is unbounded at level " +
                                std::to_string(k));
            // In a provably empty space a missing side is vacuous, not
            // unboundedness: the level stays without bounds and the
            // outer levels still get usable zero-trip bounds.
            loop.lower.clear();
            loop.upper.clear();
        }
        sys = sys.eliminate(col);
    }
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

    std::string out;
    size_t indent = 0;
    for (size_t k = 0; k < nest.depth(); ++k) {
        const TransformedLoop &l = nest.loops()[k];
        out.append(indent, ' ');
        out += "for " + l.var + " = ";
        ir::appendBoundList(out, l.lower, "max", names, "ceil");
        out += ", ";
        ir::appendBoundList(out, l.upper, "min", names, "floor");
        if (l.stride != 1) {
            out += " step " + std::to_string(l.stride);
            // Report the congruence class when it is not simply 0.
            const IntMatrix &h = nest.lattice().hnf();
            bool anchored = false;
            for (size_t j = 0; j < k; ++j)
                if (h(k, j) % l.stride != 0)
                    anchored = true;
            if (anchored)
                out += " (aligned to lattice anchor)";
        }
        out += '\n';
        indent += 2;
    }
    for (const ir::Statement &s : nest.body()) {
        out.append(indent, ' ');
        ir::appendStatement(out, s, prog, names);
        out += '\n';
    }
    return out;
}

} // namespace anc::xform
