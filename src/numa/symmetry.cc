#include "numa/symmetry.h"

#include <algorithm>

namespace anc::numa {

namespace {

/** (a + t*step) mod p without 64-bit overflow. */
Int
residueAt(Int a, Int t, Int step, Int p)
{
    Int128 v = Int128(a) + Int128(t) * Int128(step);
    Int128 r = v % Int128(p);
    if (r < 0)
        r += p;
    return Int(r);
}

/** True when a*b == 1 (mod p). */
bool
isUnitProduct(Int a, Int b, Int p)
{
    if (p == 1)
        return true;
    Int128 m = (Int128(euclidMod(a, p)) * Int128(euclidMod(b, p)) - 1) %
               Int128(p);
    if (m < 0)
        m += p;
    return m == 0;
}

} // namespace

MergeCheck
checkTranslationMerge(const ir::Program &prog,
                      const xform::TransformedNest &nest,
                      const ExecutionPlan &plan, Int processors)
{
    MergeCheck out;
    size_t depth = nest.depth();
    if (depth == 0)
        return {false, "empty nest"};
    Int vstep;
    switch (plan.scheme) {
      case PartitionScheme::OwnerWrapped:
        // Outer values satisfy v == p (mod P) by construction.
        vstep = 1;
        break;
      case PartitionScheme::RoundRobin:
        // Processor p starts at base + p*s and steps by s*P, so
        // v == base + p*s (mod P) throughout.
        vstep = nest.lattice().stride(0);
        break;
      default:
        return {false, "blocked scheme has boundary processors"};
    }

    // Inner loop shapes must not depend on the outer variable, or
    // different residue classes would run different inner spaces.
    for (size_t k = 1; k < depth; ++k) {
        const xform::TransformedLoop &l = nest.loops()[k];
        for (const ir::AffineExpr &e : l.lower)
            if (e.numVars() > 0 && e.dependsOnVar(0))
                return {false, "inner bound depends on the outer loop"};
        for (const ir::AffineExpr &e : l.upper)
            if (e.numVars() > 0 && e.dependsOnVar(0))
                return {false, "inner bound depends on the outer loop"};
    }
    // Lattice anchors below level 0 must not couple to y_0 either.
    const IntMatrix &h = nest.lattice().hnf();
    for (size_t k = 1; k < depth; ++k)
        if (h(k, 0) != 0)
            return {false, "lattice couples inner levels to the outer"};

    // Every reference must be residue-transparent: replicated, or
    // wrapped with an outer coefficient alpha0 whose product with
    // vstep is 1 (mod P) -- then (p - subscript) mod P cancels p.
    bool checked = false;
    for (const ir::Statement &stmt : nest.body()) {
        auto check_ref = [&](const ir::ArrayRef &r) {
            if (!out.reason.empty())
                return;
            const ir::DistributionSpec &spec = prog.arrays[r.arrayId].dist;
            if (spec.kind == ir::DistKind::Replicated)
                return;
            if (spec.kind != ir::DistKind::Wrapped) {
                out.reason = "non-wrapped array referenced";
                return;
            }
            size_t dim = spec.dims[0];
            if (dim >= r.subscripts.size()) {
                out.reason = "distribution dimension out of range";
                return;
            }
            const ir::AffineExpr &sub = r.subscripts[dim];
            if (sub.numVars() == 0) {
                out.reason = "wrapped subscript ignores the outer loop";
                return;
            }
            const Rational &a0 = sub.varCoeff(0);
            if (!a0.isInteger()) {
                out.reason = "rational outer coefficient";
                return;
            }
            if (!isUnitProduct(a0.num(), vstep, processors)) {
                out.reason = "subscript not aligned with the outer "
                             "residue (alpha0*vstep != 1 mod P)";
                return;
            }
            checked = true;
        };
        check_ref(stmt.lhs);
        stmt.rhs.forEachRef(check_ref);
        if (!out.reason.empty())
            return {false, out.reason};
    }
    (void)checked;
    return {true, "translation symmetry holds"};
}

SymmetryPlan
planSymmetryClasses(const SymmetryInput &in)
{
    SymmetryPlan out;
    const Int P = in.processors;
    if (P <= 0) {
        out.reason = "non-positive processor count";
        return out;
    }
    const bool kill = in.killVictim >= 0 && in.killVictim < P;
    const Int n = in.outerEmpty ? 0 : in.outerCount;
    const bool merged = in.mergeable && !kill && n > 0;

    if (merged) {
        // Residue-cycle closed form: position k belongs to residue
        // r_(k mod Q); residues in cycle order get ceil/floor(n/Q)
        // positions each.
        Int Q;
        Int cycle_start, cycle_step;
        if (in.scheme == PartitionScheme::RoundRobin) {
            Q = P;
            cycle_start = 0;
            cycle_step = 1;
        } else {
            Int g = gcdInt(euclidMod(in.outerStep, P), P);
            if (g == 0)
                g = P;
            Q = P / g;
            cycle_start = euclidMod(in.outerStart, P);
            cycle_step = euclidMod(in.outerStep, P);
        }
        Int c_low = n / Q;
        Int t_split = n % Q;
        auto add_group = [&](Int t_lo, Int t_hi, Int trips) {
            if (t_lo >= t_hi)
                return;
            const Int rep = residueAt(cycle_start, t_lo, cycle_step, P);
            out.groups.push_back({rep, uint64_t(t_hi - t_lo),
                                  ProcRange{rep, cycle_step, t_hi - t_lo},
                                  trips});
        };
        if (t_split == 0) {
            add_group(0, Q, c_low);
        } else {
            add_group(0, t_split, c_low + 1);
            if (c_low > 0)
                add_group(t_split, Q, c_low);
        }
        Int covered = std::min(Q, n);
        if (c_low > 0)
            covered = Q;
        out.defaultCount = uint64_t(P - covered);
        if (out.defaultCount > 0) {
            out.hasDefault = true;
            if (covered < Q) {
                // The first residue of the cycle with no positions.
                out.defaultRep =
                    residueAt(cycle_start, covered, cycle_step, P);
            } else {
                // Q < P: any id off the residue subgroup. cycle_step's
                // gcd with P exceeds 1 here, so start+1 differs mod g.
                out.defaultRep = euclidMod(cycle_start + 1, P);
            }
        }
    } else {
        // Singleton classes for every processor whose behavior is not
        // provably shared: non-empty slices (with their trip counts),
        // the kill victim, and the redistribution adopter range.
        std::vector<std::pair<Int, Int>> singles; // (p, trips)
        singles.reserve(size_t(std::min(P, n)));
        auto push_candidate = [&](Int p, Int trips) {
            if (p >= 0 && p < P)
                singles.push_back({p, trips});
        };
        switch (in.scheme) {
          case PartitionScheme::RoundRobin:
            // Processor p owns positions p, p + P, ...
            for (Int p = 0; p < std::min(P, n); ++p)
                push_candidate(p, (n - 1 - p) / P + 1);
            break;
          case PartitionScheme::OwnerWrapped: {
            // The t-th residue of the cycle owns positions t, t + Q, ...
            Int g = gcdInt(euclidMod(in.outerStep, P), P);
            if (g == 0)
                g = P;
            const Int Q = P / g, step = euclidMod(in.outerStep, P);
            Int r = euclidMod(in.outerStart, P); // the t-th residue
            for (Int t = 0; t < std::min(Q, n); ++t) {
                push_candidate(r, (n - 1 - t) / Q + 1);
                r = r >= P - step ? r - (P - step) : r + step;
            }
            break;
          }
          case PartitionScheme::OwnerBlocked:
          case PartitionScheme::OwnerBlock2D: {
            if (n == 0)
                break;
            Int rows = in.scheme == PartitionScheme::OwnerBlocked
                           ? P
                           : in.gridRows;
            Int cols = in.scheme == PartitionScheme::OwnerBlocked
                           ? 1
                           : in.gridCols;
            Int bs = std::max(Int(1), in.blockSize);
            Int v_lo = in.outerStart;
            Int v_hi = checkedAdd(
                in.outerStart, checkedMul(n - 1, in.outerStep));
            // Clamp into the grid: the last row absorbs every value
            // above its nominal block, so it is a candidate whenever
            // the value range reaches past the grid.
            Int r_lo = std::min(std::max(Int(0), floorDiv(v_lo, bs)),
                                rows - 1);
            Int r_hi = std::min(rows - 1, floorDiv(v_hi, bs));
            bool last_row = v_hi >= checkedMul(rows - 1, bs);
            Int128 cand = (r_hi >= r_lo ? Int128(r_hi - r_lo + 1) : 0) *
                          Int128(cols);
            if (cand > Int128(in.maxClasses) * 4) {
                out.reason = "too many blocked boundary candidates";
                return out;
            }
            // Row r's positions: the lattice values in its block.
            auto row = [&](Int r) {
                const Int128 lo = std::max(Int128(v_lo), Int128(r) * bs);
                const Int128 hi =
                    r == rows - 1 ? v_hi
                                  : std::min(Int128(v_hi),
                                             (Int128(r) + 1) * bs - 1);
                const Int128 step = in.outerStep;
                Int128 first = (Int128(v_lo) - lo) % step;
                first = lo + (first < 0 ? first + step : first);
                if (first > hi)
                    return;
                const Int trips = Int((hi - first) / step + 1);
                for (Int c = 0; c < cols; ++c)
                    push_candidate(r * cols + c, trips);
            };
            for (Int r = r_lo; r <= r_hi; ++r)
                row(r);
            if (last_row && (rows - 1 < r_lo || rows - 1 > r_hi))
                row(rows - 1);
            break;
          }
        }
        if (kill) {
            push_candidate(in.killVictim, -1);
            Int bound = std::min(P, in.killAdopterBound);
            for (Int p = 0; p < bound; ++p)
                push_candidate(p, -1);
        }
        // By id; of a processor listed twice, keep its trip count.
        auto by_id = [](const auto &a, const auto &b) {
            return a.first != b.first ? a.first < b.first
                                      : a.second > b.second;
        };
        if (!std::is_sorted(singles.begin(), singles.end(), by_id))
            std::sort(singles.begin(), singles.end(), by_id);
        singles.erase(std::unique(singles.begin(), singles.end(),
                                  [](const auto &a, const auto &b) {
                                      return a.first == b.first;
                                  }),
                      singles.end());
        if (singles.size() > in.maxClasses) {
            out.reason = "more singleton classes than the budget";
            return out;
        }
        out.groups.reserve(singles.size());
        for (const auto &[p, trips] : singles)
            out.groups.push_back({p, 1, ProcRange{p, 1, 1}, trips});
        out.defaultCount = uint64_t(P) - singles.size();
        if (out.defaultCount > 0) {
            out.hasDefault = true;
            Int rep = 0;
            size_t i = 0;
            while (i < singles.size() && singles[i].first == rep) {
                ++rep;
                ++i;
            }
            out.defaultRep = rep;
        }
    }

    uint64_t total = out.defaultCount;
    for (const SymmetryPlan::Group &g : out.groups)
        total += g.multiplicity;
    if (total != uint64_t(P)) {
        out.groups.clear();
        out.reason = "class multiplicities do not cover the machine";
        return out;
    }
    if (out.classCount() > in.maxClasses) {
        out.groups.clear();
        out.reason = "more classes than the budget";
        return out;
    }
    out.usable = true;
    out.reason = std::to_string(out.classCount()) + " classes for P = " +
                 std::to_string(P);
    return out;
}

} // namespace anc::numa
