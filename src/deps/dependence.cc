#include "deps/dependence.h"

#include <algorithm>
#include <set>

#include "ratmath/diophantine.h"
#include "ratmath/hnf.h"
#include "ratmath/linalg.h"

namespace anc::deps {

namespace {

/** A reference together with its statement position and access kind. */
struct RefSite
{
    size_t stmt;
    const ir::ArrayRef *ref;
    bool isWrite;
};

/** Collect every reference site in body order, writes and reads. */
std::vector<RefSite>
collectSites(const ir::LoopNest &nest)
{
    std::vector<RefSite> sites;
    for (size_t s = 0; s < nest.body().size(); ++s) {
        nest.body()[s].forEachRef([&](const ir::ArrayRef &r, bool w) {
            sites.push_back({s, &r, w});
        });
    }
    return sites;
}

DepKind
kindOf(bool src_write, bool dst_write)
{
    if (src_write)
        return dst_write ? DepKind::Output : DepKind::Flow;
    return DepKind::Anti; // read-read pairs are never analyzed
}

/**
 * Build the subscript-equality system for two references: unknowns are
 * (i_src, i_dst) in Z^{2n}; one equation per dimension whose parameter
 * parts agree (dimensions with differing parameter parts are skipped,
 * which only enlarges the solution set and is therefore conservative).
 * Returns false if some dimension has a provably empty solution set
 * (equal linear and parameter parts but different constants... handled
 * by the Diophantine solver) -- here we only assemble.
 */
void
buildSystem(const ir::ArrayRef &a, const ir::ArrayRef &b, size_t n,
            IntMatrix &mat, IntVec &rhs)
{
    std::vector<IntVec> rows;
    IntVec rs;
    for (size_t d = 0; d < a.subscripts.size(); ++d) {
        const ir::AffineExpr &ea = a.subscripts[d];
        const ir::AffineExpr &eb = b.subscripts[d];
        if (ea.paramCoeffs() != eb.paramCoeffs())
            continue; // parameter-dependent difference: skip (conservative)
        // Scale away any rational coefficients.
        Int lcm = 1;
        auto fold = [&](const Rational &r) { lcm = lcmInt(lcm, r.den()); };
        for (size_t k = 0; k < n; ++k) {
            fold(ea.varCoeff(k));
            fold(eb.varCoeff(k));
        }
        fold(ea.constantTerm());
        fold(eb.constantTerm());
        IntVec row(2 * n, 0);
        for (size_t k = 0; k < n; ++k) {
            row[k] = (ea.varCoeff(k) * Rational(lcm)).asInteger();
            row[n + k] =
                checkedNeg((eb.varCoeff(k) * Rational(lcm)).asInteger());
        }
        rows.push_back(std::move(row));
        rs.push_back(((eb.constantTerm() - ea.constantTerm()) *
                      Rational(lcm))
                         .asInteger());
    }
    mat = IntMatrix::fromRows(rows);
    if (rows.empty())
        mat = IntMatrix(0, 2 * n);
    rhs = std::move(rs);
}

/** Negate a vector in place. */
void
negate(IntVec &v)
{
    for (Int &x : v)
        x = checkedNeg(x);
}

} // namespace

std::string
Dependence::directionStr() const
{
    std::string s = "(";
    for (size_t k = 0; k < distance.size(); ++k) {
        if (k)
            s += ", ";
        if (distance[k] > 0)
            s += exact ? "<" : "<*";
        else if (distance[k] < 0)
            s += exact ? ">" : ">*";
        else
            s += "=";
    }
    return s + ")";
}

IntMatrix
DependenceInfo::matrix(size_t depth) const
{
    std::set<IntVec> seen;
    std::vector<IntVec> cols;
    for (const Dependence &d : deps) {
        if (isZero(d.distance))
            continue;
        if (seen.insert(d.distance).second)
            cols.push_back(d.distance);
    }
    if (cols.empty())
        return IntMatrix(depth, 0);
    IntMatrix m = IntMatrix::fromColumns(cols);
    if (m.rows() != depth)
        throw InternalError("dependence matrix depth mismatch");
    return m;
}

std::vector<Dependence>
DependenceInfo::carried() const
{
    std::vector<Dependence> out;
    for (const Dependence &d : deps)
        if (!isZero(d.distance))
            out.push_back(d);
    return out;
}

DependenceInfo
analyzeDependences(const ir::Program &prog)
{
    const ir::LoopNest &nest = prog.nest;
    size_t n = nest.depth();
    DependenceInfo info;
    std::vector<RefSite> sites = collectSites(nest);

    for (size_t a = 0; a < sites.size(); ++a) {
        for (size_t b = a; b < sites.size(); ++b) {
            const RefSite &sa = sites[a];
            const RefSite &sb = sites[b];
            if (sa.ref->arrayId != sb.ref->arrayId)
                continue;
            if (!sa.isWrite && !sb.isWrite)
                continue;

            IntMatrix mat;
            IntVec rhs;
            buildSystem(*sa.ref, *sb.ref, n, mat, rhs);
            auto sol = solveDiophantine(mat, rhs);
            if (!sol)
                continue; // references never touch the same element

            // Distance d = i_dst - i_src from the (i_src, i_dst) space.
            IntVec d0(n);
            for (size_t k = 0; k < n; ++k)
                d0[k] = checkedSub(sol->particular[n + k],
                                   sol->particular[k]);
            std::vector<IntVec> gens;
            for (size_t c = 0; c < sol->nullBasis.cols(); ++c) {
                IntVec g(n);
                for (size_t k = 0; k < n; ++k)
                    g[k] = checkedSub(sol->nullBasis(n + k, c),
                                      sol->nullBasis(k, c));
                if (!isZero(g))
                    gens.push_back(std::move(g));
            }
            // The projection to distance space can map several null
            // generators onto the same lattice line; canonicalize to a
            // minimal basis of the projected lattice.
            if (gens.size() > 1) {
                ColumnHNF gh = columnHNF(IntMatrix::fromColumns(gens));
                gens.clear();
                for (size_t c = 0; c < gh.rank(); ++c)
                    gens.push_back(gh.h.column(c));
            }

            // The particular solution is arbitrary; if d0 lies in the
            // lattice spanned by the generators it is redundant.
            if (!gens.empty() && !isZero(d0)) {
                IntMatrix g = IntMatrix::fromColumns(gens);
                if (solveDiophantine(g, d0))
                    d0.assign(n, 0);
            }

            bool exact = gens.size() <= 1;
            if (!exact || (gens.size() == 1 && !isZero(d0)))
                info.imprecise = true;

            // Record the full solution family for exact legality
            // queries (skip the trivial self-family {0}).
            if (!(gens.empty() && isZero(d0))) {
                IntMatrix g(n, gens.size());
                for (size_t c = 0; c < gens.size(); ++c)
                    for (size_t i = 0; i < n; ++i)
                        g(i, c) = gens[c][i];
                info.families.push_back({d0, std::move(g)});
            }

            auto emit = [&](IntVec dist, bool ex) {
                bool flipped = false;
                int sign = leadingSign(dist);
                if (sign == -1) {
                    negate(dist);
                    flipped = true;
                } else if (sign == 0) {
                    // Loop-independent: only meaningful across distinct
                    // sites within the body; same-site self conflicts
                    // are the same access.
                    if (a == b)
                        return;
                    flipped = sb.stmt < sa.stmt;
                }
                const RefSite &src = flipped ? sb : sa;
                const RefSite &dst = flipped ? sa : sb;
                info.deps.push_back({src.ref->arrayId, src.stmt, dst.stmt,
                                     kindOf(src.isWrite, dst.isWrite),
                                     std::move(dist), ex});
            };

            if (gens.empty()) {
                if (a == b && isZero(d0))
                    continue; // a reference trivially equals itself
                emit(d0, true);
            } else {
                if (!isZero(d0))
                    emit(d0, false);
                for (IntVec &g : gens)
                    emit(std::move(g), exact);
            }
        }
    }
    return info;
}

namespace {

/**
 * Rational feasibility of  f0 + fg.w >= 1  and  g0 + gg.w <= -1  over
 * w in Q^k. Deciding over the rationals instead of the integers can
 * only report spurious feasibility ("thin slabs"), which callers treat
 * as a violation -- the safe direction.
 */
bool
pairFeasible(Int f0, const IntVec &fg, Int g0, const IntVec &gg)
{
    bool f_const = isZero(fg), g_const = isZero(gg);
    if (f_const && g_const)
        return f0 >= 1 && g0 <= -1;
    if (f_const)
        return f0 >= 1; // g is unbounded below along gg
    if (g_const)
        return g0 <= -1; // f is unbounded above along fg
    // Parallel test: gg == c * fg for a single rational c?
    Rational c;
    bool have_c = false, parallel = true;
    for (size_t i = 0; i < fg.size() && parallel; ++i) {
        if (fg[i] == 0) {
            parallel = gg[i] == 0;
        } else if (!have_c) {
            c = Rational(gg[i], fg[i]);
            have_c = true;
        } else {
            parallel = Rational(gg[i], fg[i]) == c;
        }
    }
    if (!parallel)
        return true; // independent directions: both goals reachable
    if (!c.isPositive())
        return true; // anti-parallel (or gg == 0 handled above)
    // g == g0 + c * (f - f0): need 1 <= f <= f0 - (1 + g0) / c,
    // feasible iff c * (f0 - 1) >= g0 + 1.
    return c * Rational(checkedSub(f0, 1)) >= Rational(checkedAdd(g0, 1));
}

} // namespace

bool
preservesLexSign(const IntMatrix &t, const DependenceFamily &fam)
{
    size_t n = fam.d0.size();
    size_t k = fam.gens.cols();
    IntVec td0 = t.apply(fam.d0);

    if (k == 0) {
        if (isZero(fam.d0))
            return true;
        return leadingSign(td0) == leadingSign(fam.d0) &&
               leadingSign(td0) != 0;
    }

    IntMatrix tg = t * fam.gens;
    // A violation is a member d with lexsign(d) = +1 and
    // lexsign(t*d) = -1, in the coset (d0, G) or its negation.
    for (int sign : {1, -1}) {
        IntVec d0 = fam.d0, td0s = td0;
        if (sign < 0) {
            for (Int &v : d0)
                v = checkedNeg(v);
            for (Int &v : td0s)
                v = checkedNeg(v);
        }
        for (size_t m = 0; m < n; ++m) {
            for (size_t q = 0; q < n; ++q) {
                // Equalities: d_j = 0 for j < m, (t d)_j = 0 for j < q.
                std::vector<IntVec> rows;
                IntVec rhs;
                for (size_t j = 0; j < m; ++j) {
                    IntVec r(k);
                    for (size_t c = 0; c < k; ++c)
                        r[c] = sign < 0 ? checkedNeg(fam.gens(j, c))
                                        : fam.gens(j, c);
                    rows.push_back(std::move(r));
                    rhs.push_back(checkedNeg(d0[j]));
                }
                for (size_t j = 0; j < q; ++j) {
                    IntVec r(k);
                    for (size_t c = 0; c < k; ++c)
                        r[c] = sign < 0 ? checkedNeg(tg(j, c))
                                        : tg(j, c);
                    rows.push_back(std::move(r));
                    rhs.push_back(checkedNeg(td0s[j]));
                }
                IntMatrix a = rows.empty() ? IntMatrix(0, k)
                                           : IntMatrix::fromRows(rows);
                auto sol = solveDiophantine(a, rhs);
                if (!sol)
                    continue;
                // f(w) = d_m, g(w) = (t d)_q on the solution lattice.
                auto affine_at = [&](const IntVec &lin_row,
                                     Int base) -> std::pair<Int, IntVec> {
                    Int128 f0 = base;
                    for (size_t c = 0; c < k; ++c)
                        f0 += Int128(lin_row[c]) *
                              Int128(sol->particular[c]);
                    IntVec grad(sol->nullBasis.cols(), 0);
                    for (size_t c = 0; c < sol->nullBasis.cols(); ++c) {
                        Int128 acc = 0;
                        for (size_t j = 0; j < k; ++j)
                            acc += Int128(lin_row[j]) *
                                   Int128(sol->nullBasis(j, c));
                        grad[c] = narrow128(acc);
                    }
                    return {narrow128(f0), grad};
                };
                IntVec gm(k), gq(k);
                for (size_t c = 0; c < k; ++c) {
                    gm[c] = sign < 0 ? checkedNeg(fam.gens(m, c))
                                     : fam.gens(m, c);
                    gq[c] = sign < 0 ? checkedNeg(tg(q, c)) : tg(q, c);
                }
                auto [f0, fg] = affine_at(gm, d0[m]);
                auto [g0, gg] = affine_at(gq, td0s[q]);
                if (pairFeasible(f0, fg, g0, gg))
                    return false;
            }
        }
    }
    return true;
}

bool
preservesLexSign(const IntMatrix &t,
                 const std::vector<DependenceFamily> &families)
{
    for (const DependenceFamily &f : families)
        if (!preservesLexSign(t, f))
            return false;
    return true;
}

bool
isLegalTransformation(const IntMatrix &t, const IntMatrix &dep_matrix)
{
    if (dep_matrix.cols() == 0)
        return true;
    IntMatrix td = t * dep_matrix;
    for (size_t c = 0; c < td.cols(); ++c)
        if (!lexPositive(td.column(c)))
            return false;
    return true;
}

} // namespace anc::deps
