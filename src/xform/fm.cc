#include "xform/fm.h"

namespace anc::xform::fm {

namespace {

/** Non-negative gcd of the coefficients; 0 when all are zero. */
Int
coefficientGcd(const IntVec &z)
{
    Int g = 0;
    for (Int v : z)
        g = gcdInt(g, v);
    return g;
}

/** Divide r by the coefficient gcd g > 0 per `mode`; returns the gcd
 * of the reduced coefficients (1 under Floor). */
Int
reduce(Row &r, Int g, Rounding mode)
{
    Int d = mode == Rounding::Floor ? g : gcdInt(g, r.cst);
    if (d <= 1)
        return g;
    for (Int &v : r.z)
        v /= d;
    r.cst = mode == Rounding::Floor ? floorDiv(r.cst, d) : r.cst / d;
    return g / d;
}

} // namespace

Row
toRow(const ir::AffineExpr &e, Rounding mode)
{
    size_t n = e.numVars(), m = e.numParams();
    Int den = e.constantTerm().den();
    for (size_t k = 0; k < n; ++k)
        den = lcmInt(den, e.varCoeff(k).den());
    for (size_t p = 0; p < m; ++p)
        den = lcmInt(den, e.paramCoeff(p).den());
    auto scale = [&](const Rational &r) {
        return checkedMul(r.num(), den / r.den());
    };
    Row r;
    r.z.resize(m + n);
    for (size_t p = 0; p < m; ++p)
        r.z[p] = scale(e.paramCoeff(p));
    for (size_t k = 0; k < n; ++k)
        r.z[m + k] = scale(e.varCoeff(k));
    r.cst = scale(e.constantTerm());
    if (Int g = coefficientGcd(r.z))
        reduce(r, g, mode);
    return r;
}

ir::AffineExpr
boundOf(const Row &r, size_t k, size_t n, size_t m)
{
    Int d = checkedNeg(r.z[m + k]);
    ir::AffineExpr b(n, m);
    for (size_t p = 0; p < m; ++p)
        b.paramCoeff(p) = Rational(r.z[p], d);
    for (size_t j = 0; j < k; ++j)
        b.varCoeff(j) = Rational(r.z[m + j], d);
    b.constantTerm() = Rational(r.cst, d);
    return b;
}

void
System::add(Row r)
{
    Int g = coefficientGcd(r.z);
    if (g == 0) {
        if (r.cst < 0)
            contradiction_ = true;
        return;
    }
    g = reduce(r, g, mode_);
    IntVec dir = r.z;
    if (g > 1)
        for (Int &v : dir)
            v /= g;
    auto [it, fresh] = index_.try_emplace(std::move(dir), rows_.size());
    if (fresh) {
        if (rows_.size() < maxRows_)
            rows_.push_back(std::move(r));
        else
            index_.erase(it);
        return;
    }
    // Parallel rows: r.cst / g against kept.cst / gk, both gcds > 0.
    Row &kept = rows_[it->second];
    Int gk = mode_ == Rounding::Floor ? 1 : coefficientGcd(kept.z);
    if (Int128(r.cst) * gk < Int128(kept.cst) * g)
        kept = std::move(r);
}

System
System::eliminate(size_t k) const
{
    System out(mode_, maxRows_);
    out.contradiction_ = contradiction_;
    std::vector<const Row *> lower, upper;
    for (const Row &r : rows_) {
        if (r.z[k] > 0)
            lower.push_back(&r);
        else if (r.z[k] < 0)
            upper.push_back(&r);
        else
            out.add(r);
    }
    for (const Row *l : lower) {
        for (const Row *u : upper) {
            // b*l + a*u with a = l.z[k] > 0, b = -u.z[k] > 0 cancels
            // u_k; the result is a consequence of the two rows.
            Int a = l->z[k], b = -u->z[k];
            Row c;
            c.z.resize(l->z.size());
            for (size_t j = 0; j < c.z.size(); ++j)
                c.z[j] = checkedAdd(checkedMul(b, l->z[j]),
                                    checkedMul(a, u->z[j]));
            c.cst = checkedAdd(checkedMul(b, l->cst), checkedMul(a, u->cst));
            out.add(std::move(c));
        }
    }
    return out;
}

} // namespace anc::xform::fm
