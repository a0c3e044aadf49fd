#include "xform/transform.h"

#include <algorithm>
#include <numeric>

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

namespace {

/**
 * The content (coefficient gcd) of row r over [params, u] composed
 * through u = T x, or 0 when it is zero or leaves 64 bits. Certificate
 * bookkeeping: plain builtins, no fault checkpoint, never throws.
 */
Int
contentThroughT(const fm::Row &r, const IntMatrix &t, size_t m)
{
    Int g = 0;
    for (size_t p = 0; p < m; ++p) {
        if (r.z[p] == INT64_MIN)
            return 0;
        g = std::gcd(g, r.z[p]);
    }
    for (size_t j = 0; j < t.cols(); ++j) {
        Int acc = 0;
        for (size_t k = 0; k < t.rows(); ++k) {
            Int x;
            if (__builtin_mul_overflow(r.z[m + k], t(k, j), &x) ||
                __builtin_add_overflow(acc, x, &acc))
                return 0;
        }
        if (acc == INT64_MIN)
            return 0;
        g = std::gcd(g, acc);
    }
    return g;
}

} // namespace

TransformedNest
solveBounds(const ir::Program &prog, TransformedNest nest)
{
    size_t n = nest.depth(), m = prog.params.size();

    // Constraints over the new space: substitute x = T^{-1} u. Row i
    // composed back through u = T x is rho_i times source constraint i
    // as a primitive-coefficient row, so rho_i * e_i certifies it in
    // the units the validator combines.
    fm::System sys(fm::Rounding::Exact);
    std::vector<AffineExpr> cons = prog.nest.constraints(m);
    for (size_t i = 0; i < cons.size(); ++i) {
        fm::Row r = fm::toRow(cons[i].composeWithVarMap(nest.tInv_),
                              fm::Rounding::Exact);
        fm::Certificate cert;
        if (Int rho = contentThroughT(r, nest.t_, m)) {
            cert.m.assign(cons.size(), 0);
            cert.m[i] = rho;
        }
        sys.add(std::move(r), std::move(cert));
    }

    // Innermost level first: a row a*u_k + r >= 0 bounds u_k by -r/a,
    // from below when a > 0 and from above when a < 0.
    for (size_t k = n; k-- > 0;) {
        size_t col = m + k;
        TransformedLoop &loop = nest.loops_[k];
        for (size_t i = 0; i < sys.rows().size(); ++i) {
            const fm::Row &r = sys.rows()[i];
            if (r.z[col] == 0)
                continue;
            bool lower = r.z[col] > 0;
            (lower ? loop.lower : loop.upper)
                .push_back(fm::boundOf(r, k, n, m));
            (lower ? loop.lowerCert : loop.upperCert)
                .push_back(sys.certificate(i).m);
        }
        if (loop.lower.empty() || loop.upper.empty()) {
            if (!sys.contradiction())
                throw UserError("iteration space is unbounded at level " +
                                std::to_string(k));
            // In a provably empty space a missing side is vacuous, not
            // unboundedness: the level stays without bounds and the
            // outer levels still get usable zero-trip bounds.
            loop.lower.clear();
            loop.upper.clear();
            loop.lowerCert.clear();
            loop.upperCert.clear();
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
