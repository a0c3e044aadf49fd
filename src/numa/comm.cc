#include "numa/comm.h"

#include <algorithm>
#include <map>
#include <utility>

#include "numa/congruent.h"

namespace anc::numa {

namespace {

/**
 * Number of members p of range `ra` (a class of representative rep_a)
 * whose translated owner (owner + p - rep_a) mod P lands in range
 * `rb`. Closed form for the shapes the symmetry planner emits
 * (singletons and equal-step residue cycles); a bounded incremental
 * fallback covers anything else.
 */
uint64_t
pairCount(const ProcRange &ra, Int rep_a, const ProcRange &rb, Int owner,
          Int P)
{
    if (ra.count <= 0 || rb.count <= 0)
        return 0;
    // Owner seen by member i of ra: a0 + i*sa (mod P).
    Int a0 = euclidMod(
        checkedAdd(owner, checkedSub(euclidMod(ra.first, P),
                                     euclidMod(rep_a, P))),
        P);
    Int b0 = euclidMod(rb.first, P);
    Int sa = euclidMod(ra.step, P);
    Int sb = euclidMod(rb.step, P);
    uint64_t ca = uint64_t(ra.count), cb = uint64_t(rb.count);

    if (ca == 1)
        return countCongruent(b0, sb, cb, P, a0).hits ? 1 : 0;
    if (cb == 1)
        return countCongruent(a0, sa, ca, P, b0).hits;
    if (sa == sb) {
        // a0 + i*s == b0 + j*s (mod P)  <=>  (i - j)*s == b0 - a0.
        Int s = sa;
        Int g = gcdInt(s, P);
        Int L = g == 0 ? 1 : P / g;
        if (Int(ca) <= L && Int(cb) <= L) {
            Int rhs = euclidMod(checkedSub(b0, a0), P);
            if (g == 0 || rhs % g != 0)
                return rhs == 0 ? ca * cb : 0; // s == 0: all-or-nothing
            Int inv = euclidMod(extGcd(s / g, L).x, L);
            Int d0 = Int((Int128(rhs / g) * Int128(inv)) % Int128(L));
            auto pairs_at = [&](Int d) -> uint64_t {
                // i = j + d with i in [0, ca), j in [0, cb).
                Int jlo = std::max<Int>(0, -d);
                Int jhi = std::min<Int>(Int(cb) - 1, Int(ca) - 1 - d);
                return jhi >= jlo ? uint64_t(jhi - jlo + 1) : 0;
            };
            return pairs_at(d0) + pairs_at(d0 - L);
        }
    }
    // Incremental fallback over the smaller side (kept bounded: the
    // planner's classes are either singletons or equal-step cycles, so
    // this path only sees small ranges).
    constexpr uint64_t kFallbackCap = uint64_t(1) << 16;
    if (std::min(ca, cb) > kFallbackCap)
        throw InternalError(
            "comm fold: unsupported symmetry-range pair shape");
    uint64_t n = 0;
    if (ca <= cb) {
        Int cur = a0;
        for (uint64_t i = 0; i < ca; ++i) {
            if (countCongruent(b0, sb, cb, P, cur).hits)
                ++n;
            cur += sa;
            if (cur >= P)
                cur -= P;
        }
    } else {
        Int cur = b0;
        for (uint64_t j = 0; j < cb; ++j) {
            n += countCongruent(a0, sa, ca, P, cur).hits;
            cur += sb;
            if (cur >= P)
                cur -= P;
        }
    }
    return n;
}

void
translateRow(const std::vector<obs::CommEdge> &rep_row, Int t, Int P,
             std::vector<obs::CommEdge> &out)
{
    out = rep_row;
    if (t == 0)
        return;
    for (obs::CommEdge &e : out)
        e.owner = euclidMod(checkedAdd(e.owner, t), P);
    std::sort(out.begin(), out.end(),
              [](const obs::CommEdge &a, const obs::CommEdge &b) {
                  return a.owner < b.owner;
              });
}

} // namespace

obs::CommMatrix
buildCommMatrix(const SimStats &stats, uint64_t materialize_budget)
{
    obs::CommMatrix out;
    out.processors = stats.processors;

    if (!stats.aggregated) {
        for (const ProcStats &p : stats.perProc) {
            if (p.comm.empty())
                continue;
            obs::CommMatrix::Row row;
            row.origin = p.proc;
            row.edges = p.comm;
            out.rows.push_back(std::move(row));
        }
        std::sort(out.rows.begin(), out.rows.end(),
                  [](const obs::CommMatrix::Row &a,
                     const obs::CommMatrix::Row &b) {
                      return a.origin < b.origin;
                  });
        return out;
    }

    const Int P = stats.processors;

    // Expansion estimate: per-processor rows for every member of every
    // class that has traffic. Within budget, expand (owners translated
    // by the member offset) so the export is byte-identical to a
    // direct run's; past it, fold to class-pair cells.
    unsigned __int128 need = 0;
    for (const ProcClass &c : stats.classes)
        if (!c.rep.comm.empty())
            need += (unsigned __int128)c.multiplicity *
                    (sizeof(obs::CommMatrix::Row) +
                     c.rep.comm.size() * sizeof(obs::CommEdge));
    if (need <= (unsigned __int128)materialize_budget) {
        for (const ProcClass &c : stats.classes) {
            if (c.rep.comm.empty())
                continue;
            if (c.isDefault)
                throw InternalError(
                    "comm fold: default symmetry class has traffic "
                    "but no explicit members");
            for (Int i = 0; i < c.members.count; ++i) {
                obs::CommMatrix::Row row;
                row.origin = c.members.memberAt(i, P);
                Int t = euclidMod(checkedSub(row.origin, c.rep.proc), P);
                translateRow(c.rep.comm, t, P, row.edges);
                out.rows.push_back(std::move(row));
            }
        }
        std::sort(out.rows.begin(), out.rows.end(),
                  [](const obs::CommMatrix::Row &a,
                     const obs::CommMatrix::Row &b) {
                      return a.origin < b.origin;
                  });
        return out;
    }

    out.aggregated = true;
    Int dflt = -1;
    for (size_t ci = 0; ci < stats.classes.size(); ++ci) {
        const ProcClass &c = stats.classes[ci];
        out.classes.push_back(obs::CommMatrix::ClassInfo{
            c.rep.proc, c.multiplicity, c.isDefault});
        if (c.isDefault)
            dflt = Int(ci);
    }
    std::map<std::pair<uint64_t, uint64_t>, obs::CommMatrix::Cell> cells;
    auto cell_add = [&](size_t from, size_t to, const obs::CommEdge &e,
                        uint64_t members) {
        obs::CommMatrix::Cell &c = cells[{from, to}];
        c.from = from;
        c.to = to;
        c.remoteElements = detail::accumulateCounter(
            c.remoteElements, e.remoteElements, members);
        c.blockTransfers = detail::accumulateCounter(
            c.blockTransfers, e.blockTransfers, members);
        c.blockElements = detail::accumulateCounter(
            c.blockElements, e.blockElements, members);
    };
    for (size_t ai = 0; ai < stats.classes.size(); ++ai) {
        const ProcClass &A = stats.classes[ai];
        if (A.rep.comm.empty())
            continue;
        if (A.isDefault)
            throw InternalError(
                "comm fold: default symmetry class has traffic but no "
                "explicit members");
        for (const obs::CommEdge &e : A.rep.comm) {
            // Each member of A sends this edge's counts to one
            // translated owner; classify those owners per target
            // class in closed form. Whatever the explicit classes do
            // not claim belongs to the default class.
            uint64_t placed = 0;
            for (size_t bi = 0; bi < stats.classes.size(); ++bi) {
                const ProcClass &B = stats.classes[bi];
                if (B.isDefault)
                    continue;
                const uint64_t members = pairCount(
                    A.members, A.rep.proc, B.members, e.owner, P);
                if (members) {
                    cell_add(ai, bi, e, members);
                    placed += members;
                }
            }
            if (placed > A.multiplicity)
                throw InternalError(
                    "comm fold: class ranges overlap (placed more "
                    "members than the class holds)");
            if (placed < A.multiplicity) {
                if (dflt < 0)
                    throw InternalError(
                        "comm fold lost traffic: owners outside every "
                        "symmetry class and no default class");
                cell_add(ai, size_t(dflt), e, A.multiplicity - placed);
            }
        }
    }
    out.cells.reserve(cells.size());
    for (auto &kv : cells)
        out.cells.push_back(kv.second);
    return out;
}

} // namespace anc::numa
