#include "xform/fm.h"

#include <numeric>

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

// Certificate arithmetic: plain builtins, so the bookkeeping makes no
// fault checkpoint; an overflow drops the certificate instead of
// throwing.

/** Divide c by the gcd of its multipliers and scale (all >= 0). */
void
normalize(Certificate &c)
{
    Int g = c.scale;
    for (Int v : c.m)
        g = std::gcd(g, v);
    if (g <= 1)
        return;
    for (Int &v : c.m)
        v /= g;
    c.scale /= g;
}

/** The certificate of b*l + a*u from those of l and u (a, b > 0):
 * b*s_u*m_l + a*s_l*m_u sums to s_l*s_u*(b*l + a*u). Empty when either
 * parent has none or a value leaves 64 bits. */
Certificate
combine(const Certificate &l, Int b, const Certificate &u, Int a)
{
    Certificate c;
    Int wl, wu;
    if (l.m.empty() || u.m.empty() ||
        __builtin_mul_overflow(b, u.scale, &wl) ||
        __builtin_mul_overflow(a, l.scale, &wu) ||
        __builtin_mul_overflow(l.scale, u.scale, &c.scale))
        return {};
    c.m.resize(l.m.size());
    for (size_t i = 0; i < c.m.size(); ++i) {
        Int x, y;
        if (__builtin_mul_overflow(wl, l.m[i], &x) ||
            __builtin_mul_overflow(wu, u.m[i], &y) ||
            __builtin_add_overflow(x, y, &c.m[i]))
            return {};
    }
    normalize(c);
    return c;
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
System::add(Row r, Certificate c)
{
    Int g0 = coefficientGcd(r.z);
    if (g0 == 0) {
        if (r.cst < 0)
            contradiction_ = true;
        return;
    }
    Int g = reduce(r, g0, mode_);
    if (mode_ == Rounding::Floor)
        c.m.clear();
    else if (!c.m.empty() && g != g0) {
        // r was divided by g0 / g: the certificate now sums to that
        // multiple of the reduced row.
        if (__builtin_mul_overflow(c.scale, g0 / g, &c.scale))
            c.m.clear();
        else
            normalize(c);
    }
    IntVec dir = r.z;
    if (g > 1)
        for (Int &v : dir)
            v /= g;
    auto [it, fresh] = index_.try_emplace(std::move(dir), rows_.size());
    if (fresh) {
        if (rows_.size() < maxRows_) {
            rows_.push_back(std::move(r));
            certs_.push_back(std::move(c));
        } else {
            index_.erase(it);
        }
        return;
    }
    // Parallel rows: r.cst / g against kept.cst / gk, both gcds > 0.
    Row &kept = rows_[it->second];
    Int gk = mode_ == Rounding::Floor ? 1 : coefficientGcd(kept.z);
    if (Int128(r.cst) * gk < Int128(kept.cst) * g) {
        kept = std::move(r);
        certs_[it->second] = std::move(c);
    }
}

System
System::eliminate(size_t k) const
{
    System out(mode_, maxRows_);
    out.contradiction_ = contradiction_;
    std::vector<size_t> lower, upper;
    for (size_t i = 0; i < rows_.size(); ++i) {
        const Row &r = rows_[i];
        if (r.z[k] > 0)
            lower.push_back(i);
        else if (r.z[k] < 0)
            upper.push_back(i);
        else
            out.add(r, certs_[i]);
    }
    for (size_t li : lower) {
        for (size_t ui : upper) {
            // b*l + a*u with a = l.z[k] > 0, b = -u.z[k] > 0 cancels
            // u_k; the result is a consequence of the two rows.
            const Row &l = rows_[li], &u = rows_[ui];
            Int a = l.z[k], b = -u.z[k];
            Row c;
            c.z.resize(l.z.size());
            for (size_t j = 0; j < c.z.size(); ++j)
                c.z[j] = checkedAdd(checkedMul(b, l.z[j]),
                                    checkedMul(a, u.z[j]));
            c.cst = checkedAdd(checkedMul(b, l.cst), checkedMul(a, u.cst));
            out.add(std::move(c), combine(certs_[li], b, certs_[ui], a));
        }
    }
    return out;
}

} // namespace anc::xform::fm
