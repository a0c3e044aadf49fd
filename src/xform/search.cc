#include "xform/search.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

#include "codegen/planner.h"
#include "deps/dependence.h"
#include "numa/simulator.h"
#include "ratmath/linalg.h"
#include "verify/verify.h"
#include "xform/stride.h"

namespace anc::xform {

namespace {

std::string
matrixStr(const IntMatrix &m)
{
    std::string s = "[";
    for (size_t i = 0; i < m.rows(); ++i) {
        if (i)
            s += "; ";
        IntVec row = m.row(i);
        for (size_t j = 0; j < row.size(); ++j)
            s += (j ? " " : "") + std::to_string(row[j]);
    }
    return s + "]";
}

/** The documented canonical candidate key: flattened transformation
 * rows compared lexicographically, then the scheme choice (planner's
 * pick before the forced round-robin variant). Selection, pruning and
 * the trail all run in this order, so the search result is a pure
 * function of the candidate SET. */
struct CanonicalKey
{
    IntVec flat;
    bool forceRoundRobin;

    bool
    operator<(const CanonicalKey &o) const
    {
        if (flat != o.flat)
            return flat < o.flat;
        return forceRoundRobin < o.forceRoundRobin;
    }
};

CanonicalKey
keyOf(const SearchCandidate &c)
{
    CanonicalKey k;
    k.forceRoundRobin = c.forceRoundRobin;
    k.flat.reserve(c.transform.rows() * c.transform.cols());
    for (size_t i = 0; i < c.transform.rows(); ++i)
        for (Int v : c.transform.row(i))
            k.flat.push_back(v);
    return k;
}

/** True when T is square, invertible and respects every dependence. */
bool
usableTransform(const IntMatrix &t, const IntMatrix &deps)
{
    if (t.rows() != t.cols() || t.rows() == 0)
        return false;
    try {
        if (determinant(t) == 0)
            return false;
        return deps::isLegalTransformation(t, deps);
    } catch (const Error &) {
        return false; // overflow in the check: not a usable candidate
    }
}

/** Deduplicating collector with a generation cap. */
struct CandidateSet
{
    std::map<CanonicalKey, SearchCandidate> byKey;
    size_t cap;

    explicit CandidateSet(size_t cap_) : cap(cap_) {}

    bool full() const { return byKey.size() >= cap; }

    void
    add(IntMatrix t, bool force_rr, std::string origin)
    {
        if (full())
            return;
        SearchCandidate c{std::move(t), force_rr, std::move(origin)};
        CanonicalKey k = keyOf(c);
        auto it = byKey.find(k);
        if (it == byKey.end())
            byKey.emplace(std::move(k), std::move(c));
        else if (c.origin < it->second.origin)
            it->second.origin = c.origin; // order-independent tie-break
    }
};

std::string
permStr(const std::vector<size_t> &perm)
{
    std::string s = "[";
    for (size_t i = 0; i < perm.size(); ++i)
        s += (i ? " " : "") + std::to_string(perm[i]);
    return s + "]";
}

/** Permutations x sign flips of the rows of `rows`, each completed by
 * `complete` (identity for an already-square matrix, LegalInvt padding
 * for a basis), legality-filtered into `out`. */
template <typename CompleteFn>
void
permuteRows(const IntMatrix &rows, const IntMatrix &deps,
            const std::string &what, CandidateSet &out,
            const CompleteFn &complete)
{
    size_t m = rows.rows();
    if (m == 0 || m > 6) // 6! * 2^6 is already past any sane cap
        return;
    std::vector<size_t> perm(m);
    std::iota(perm.begin(), perm.end(), 0);
    do {
        for (uint64_t signs = 0; signs < (uint64_t(1) << m); ++signs) {
            if (out.full())
                return;
            IntMatrix picked(0, rows.cols());
            for (size_t i = 0; i < m; ++i) {
                IntVec row = rows.row(perm[i]);
                if (signs >> i & 1)
                    for (Int &v : row)
                        v = checkedNeg(v);
                picked.appendRow(row);
            }
            IntMatrix t;
            try {
                t = complete(picked);
            } catch (const Error &) {
                continue; // not completable (e.g. basis not legal)
            }
            if (!usableTransform(t, deps))
                continue;
            std::string origin = what + " permutation " + permStr(perm);
            if (signs)
                origin += " signs " + std::to_string(signs);
            out.add(std::move(t), false, std::move(origin));
        }
    } while (std::next_permutation(perm.begin(), perm.end()));
}

/** Alternate Padding completions: identity rows on every ordered tuple
 * of distinct columns, not just the non-pivot ones Algorithm Padding
 * picks. */
void
alternatePaddings(const IntMatrix &base, const IntMatrix &deps,
                  CandidateSet &out)
{
    size_t n = base.cols();
    size_t m = base.rows();
    if (m >= n)
        return;
    size_t need = n - m;
    std::vector<size_t> cols;
    std::function<void(void)> rec = [&]() {
        if (out.full())
            return;
        if (cols.size() == need) {
            IntMatrix t = base;
            for (size_t c : cols) {
                IntVec row(n, 0);
                row[c] = 1;
                t.appendRow(row);
            }
            if (usableTransform(t, deps))
                out.add(std::move(t), false,
                        "padding on columns " + permStr(cols));
            return;
        }
        for (size_t c = 0; c < n; ++c) {
            if (std::find(cols.begin(), cols.end(), c) != cols.end())
                continue;
            cols.push_back(c);
            rec();
            cols.pop_back();
        }
    };
    rec();
}

/** Stride/locality score of a planned candidate: lower is better. A
 * pure function of the nest and plan, used only to rank candidates for
 * pruning before the simulator spends real time on them. */
double
localityScore(const std::vector<RefStride> &strides,
              const numa::ExecutionPlan &plan)
{
    double score = 0.0;
    for (const RefStride &rs : strides) {
        if (!rs.constantStride())
            score += 6.0; // non-integral stride: never vectorizable
        if (!rs.singleDimension())
            score += 3.0; // multi-dimension variation per inner step
        double mag = 0.0;
        for (const Rational &s : rs.strides) {
            double v = double(s.num()) / double(s.den());
            mag += v < 0 ? -v : v;
        }
        score += mag > 8.0 ? 8.0 : mag; // large strides thrash locality
    }
    // Owner alignment and hoisted block transfers are what the search
    // is hunting for; reward plans that already exhibit them.
    if (plan.scheme != numa::PartitionScheme::RoundRobin)
        score -= 2.0;
    double hoists = double(plan.hoists.size());
    score -= hoists > 8.0 ? 8.0 : hoists;
    return score;
}

/** Per-candidate working state during evaluation. */
struct Evaluated
{
    size_t idx;    //!< index into the canonical candidate list
    size_t nestOf; //!< evals index owning this candidate's nest
    /** Set on nest owners only: bound-free until `bounded`. A forced
     * round-robin twin shares its planner-scheme base's nest. */
    std::optional<TransformedNest> nest;
    bool bounded = false;
    numa::ExecutionPlan plan;
    bool isHeuristic = false;
    bool admissible = false; //!< full sweep, never slower than the heuristic
    double total = 0.0;
};

void
tick(core::CancelToken *cancel)
{
    if (cancel)
        cancel->spend();
}

} // namespace

std::vector<SearchCandidate>
enumerateSearchCandidates(const ir::Program &prog,
                          const NormalizeResult &norm,
                          const SearchOptions &opts)
{
    (void)prog;
    std::vector<SearchCandidate> out;
    if (!norm.nest)
        return out;
    size_t cap = opts.maxEnumerated > 0 ? size_t(opts.maxEnumerated) : 1;
    CandidateSet set(cap);
    const IntMatrix &deps = norm.depMatrix;

    // The heuristic itself: always a candidate, so the searched plan
    // can never lose to it.
    set.add(norm.transform, false, "heuristic");

    // Row permutations / sign flips of the final transformation (inner
    // interchanges and reversals, padding reorderings).
    permuteRows(norm.transform, deps, "transform", set,
                [](const IntMatrix &m) { return m; });

    // Row permutations / sign flips of the legal basis, re-padded by
    // LegalInvt (which rejects non-legal inputs by throwing).
    if (norm.legal.rows() > 0 && norm.legal.rows() < norm.transform.rows())
        permuteRows(norm.legal, deps, "legal-basis", set,
                    [&deps](const IntMatrix &m) {
                        return legalInvertible(m, deps);
                    });

    // Alternate Padding completions of the legal basis.
    if (norm.legal.rows() > 0)
        alternatePaddings(norm.legal, deps, set);

    // Every transformation additionally gets a forced round-robin
    // scheme variant (cases ii/iii of Section 7 applied by choice).
    std::vector<SearchCandidate> uniques;
    uniques.reserve(set.byKey.size());
    for (const auto &kv : set.byKey)
        uniques.push_back(kv.second);
    for (const SearchCandidate &c : uniques) {
        if (set.full())
            break;
        set.add(c.transform, true, c.origin + " + round-robin");
    }

    out.reserve(set.byKey.size());
    for (auto &kv : set.byKey)
        out.push_back(std::move(kv.second));
    return out;
}

SearchResult
searchOverCandidates(const ir::Program &prog, const NormalizeResult &norm,
                     const numa::ExecutionPlan &heuristic_plan,
                     std::vector<SearchCandidate> candidates,
                     const SearchOptions &opts, core::CancelToken *cancel)
{
    SearchResult r;
    r.processorSweep = opts.processorSweep;
    r.transform = norm.transform;
    r.nest = norm.nest;
    r.plan = heuristic_plan;
    if (!norm.nest || opts.processorSweep.empty())
        return r;
    r.ran = true;

    // Canonical order first: the rest of the pipeline must be a pure
    // function of the candidate SET, not of enumeration order.
    std::map<CanonicalKey, SearchCandidate> byKey;
    for (SearchCandidate &c : candidates) {
        CanonicalKey k = keyOf(c);
        auto it = byKey.find(k);
        if (it == byKey.end())
            byKey.emplace(std::move(k), std::move(c));
        else if (c.origin < it->second.origin)
            it->second.origin = c.origin;
    }
    std::vector<SearchCandidate> ordered;
    ordered.reserve(byKey.size());
    for (auto &kv : byKey)
        ordered.push_back(std::move(kv.second));
    r.enumerated = ordered.size();

    // --- Plan every candidate on its bound-free nest and compute its
    // locality score: neither reads loop bounds, so Fourier-Motzkin
    // waits until ranking says the candidate can be scored.
    std::vector<Evaluated> evals;
    r.trail.resize(ordered.size());
    for (size_t i = 0; i < ordered.size(); ++i) {
        const SearchCandidate &c = ordered[i];
        SearchScore &t = r.trail[i];
        t.transform = matrixStr(c.transform);
        t.origin = c.origin;
        Evaluated ev;
        ev.idx = i;
        ev.nestOf = evals.size();
        ev.isHeuristic =
            !c.forceRoundRobin && c.transform == norm.transform;
        // Canonical order puts a forced round-robin twin right after its
        // planner-scheme base, which already planned the same transform:
        // share that nest and copy the plan, or the rejection.
        const bool twin = c.forceRoundRobin && i > 0 &&
                          !ordered[i - 1].forceRoundRobin &&
                          ordered[i - 1].transform == c.transform;
        try {
            tick(cancel);
            if (twin && r.trail[i - 1].verdict == "rejected") {
                t.verdict = "rejected";
                t.detail = r.trail[i - 1].detail;
                continue;
            }
            if (twin && !evals.empty() && evals.back().idx == i - 1) {
                ev.nestOf = evals.back().nestOf;
                ev.plan = evals.back().plan;
            } else if (ev.isHeuristic) {
                ev.nest = *norm.nest;
                ev.bounded = true;
                ev.plan = heuristic_plan;
            } else {
                ev.nest = transformBody(prog, c.transform);
                ev.plan = codegen::planCodegen(prog, *ev.nest,
                                               norm.depMatrix, &norm.access);
            }
        } catch (const core::DeadlineExceeded &) {
            throw;
        } catch (const UserError &e) {
            t.verdict = "rejected";
            t.detail = std::string("transform not applicable: ") +
                       e.what();
            continue;
        } catch (const Error &e) {
            t.verdict = "rejected";
            t.detail = e.what();
            continue;
        }
        if (c.forceRoundRobin) {
            if (ev.plan.scheme == numa::PartitionScheme::RoundRobin) {
                t.verdict = "redundant";
                t.detail = "planner already chose round-robin";
                continue;
            }
            ev.plan.scheme = numa::PartitionScheme::RoundRobin;
            ev.plan.alignedArray.reset();
            ev.plan.rationale += "; search forced round-robin";
            ev.plan.tieBreak.clear();
        }
        const char *schemes[] = {"round-robin", "owner-wrapped",
                                 "owner-blocked", "owner-block2d"};
        t.scheme = schemes[size_t(ev.plan.scheme)];
        const TransformedNest &nest =
            ev.nest ? *ev.nest : *evals[ev.nestOf].nest;
        t.locality = localityScore(analyzeInnerStrides(nest), ev.plan);
        evals.push_back(std::move(ev));
    }

    // --- Prune: keep the `budget` best locality scores (heuristic
    // always survives). Stable on the canonical order. Bounds are
    // solved in rank order, only for candidates that take a slot; a
    // transform whose bounds cannot be solved is rejected, together
    // with its twin, and the next-ranked candidate takes the slot.
    size_t budget = opts.budget > 0 ? size_t(opts.budget) : 1;
    std::vector<size_t> rank(evals.size());
    std::iota(rank.begin(), rank.end(), 0);
    std::stable_sort(rank.begin(), rank.end(),
                     [&](size_t a, size_t b) {
                         double la = r.trail[evals[a].idx].locality;
                         double lb = r.trail[evals[b].idx].locality;
                         if (la != lb)
                             return la < lb;
                         return evals[a].idx < evals[b].idx;
                     });
    auto rejectTransform = [&](size_t owner, const std::string &detail) {
        // The owner's trail record, then its twin's, which follows it
        // in canonical order (scheduled or redundant alike): both read
        // as if applyTransform had failed before planning.
        size_t i = evals[owner].idx;
        for (size_t j = i; j < ordered.size() && j <= i + 1; ++j) {
            if (j > i && ordered[j].transform != ordered[i].transform)
                break;
            SearchScore &t = r.trail[j];
            t.scheme.clear();
            t.locality = 0.0;
            t.verdict = "rejected";
            t.detail = detail;
        }
    };
    std::vector<size_t> kept;
    for (size_t k : rank) {
        Evaluated &ev = evals[k];
        SearchScore &t = r.trail[ev.idx];
        if (!t.verdict.empty())
            continue; // its twin's bounds solve already failed
        if (kept.size() >= budget && !ev.isHeuristic) {
            t.verdict = "pruned";
            t.detail = "locality score outside the top " +
                       std::to_string(budget);
            ++r.pruned;
            continue;
        }
        Evaluated &owner = evals[ev.nestOf];
        if (!owner.bounded) {
            try {
                owner.nest = solveBounds(prog, std::move(*owner.nest));
                owner.bounded = true;
            } catch (const core::DeadlineExceeded &) {
                throw;
            } catch (const UserError &e) {
                rejectTransform(ev.nestOf,
                                std::string("transform not applicable: ") +
                                    e.what());
                continue;
            } catch (const Error &e) {
                rejectTransform(ev.nestOf, e.what());
                continue;
            }
        }
        kept.push_back(k);
    }
    std::sort(kept.begin(), kept.end()); // back to canonical order

    // --- Score the survivors with the symmetry-aggregated simulator,
    // the heuristic first over the whole sweep. Every other survivor
    // stops at the first swept size where it is slower than the
    // heuristic: admissibility needs it to win or tie at every size,
    // so the remaining sizes cannot change the result.
    ir::Bindings binds{IntVec(prog.params.size(), opts.paramValue),
                       std::vector<double>(prog.scalars.size(), 1.0)};
    const std::vector<double> *heurTimes = nullptr;
    auto score = [&](Evaluated &ev) {
        SearchScore &t = r.trail[ev.idx];
        const TransformedNest &nest = *evals[ev.nestOf].nest;
        t.simTimesUs.clear();
        for (size_t j = 0; j < opts.processorSweep.size(); ++j) {
            Int p = opts.processorSweep[j];
            tick(cancel); // small step budget per simulated run
            numa::SimOptions sopts;
            sopts.processors = p;
            sopts.machine = opts.machine;
            sopts.symmetry = numa::SymmetryMode::Auto;
            sopts.hostThreads = opts.hostThreads;
            try {
                numa::Simulator sim(prog, nest, ev.plan, sopts);
                ++r.simRuns;
                t.simTimesUs.push_back(sim.run(binds).parallelTime());
            } catch (const core::DeadlineExceeded &) {
                throw;
            } catch (const UserError &e) {
                t.verdict = "rejected";
                t.detail = std::string("not simulable: ") + e.what();
                t.simTimesUs.clear();
                return;
            } catch (const Error &e) {
                t.verdict = "rejected";
                t.detail = std::string("simulation failed: ") + e.what();
                t.simTimesUs.clear();
                return;
            }
            if (heurTimes && t.simTimesUs[j] > (*heurTimes)[j]) {
                t.verdict = "inadmissible";
                t.detail = "slower than the heuristic at P=" +
                           std::to_string(p);
                ++r.scored;
                return;
            }
        }
        ev.admissible = true; // meaningful once a heuristic anchors it
        ++r.scored;
        t.totalUs = 0.0;
        for (double v : t.simTimesUs)
            t.totalUs += v;
        ev.total = t.totalUs;
    };
    Evaluated *heur = nullptr;
    for (size_t k : kept)
        if (evals[k].isHeuristic) {
            score(evals[k]);
            if (evals[k].admissible) {
                heur = &evals[k];
                heurTimes = &r.trail[heur->idx].simTimesUs;
            }
        }
    for (size_t k : kept)
        if (!evals[k].isHeuristic)
            score(evals[k]);
    for (size_t k : kept)
        if (r.trail[evals[k].idx].verdict.empty())
            r.trail[evals[k].idx].verdict = "scored";
    if (!heur)
        return r; // nothing anchors admissibility: heuristic unchanged
    r.heuristicTimesUs = *heurTimes;

    // --- Select: minimum total among admissible candidates; ties go to
    // the earliest canonical key. Validate any non-heuristic winner
    // symbolically; a validation failure discards it and the next-best
    // admissible candidate is tried.
    std::vector<Evaluated *> order;
    for (size_t k : kept)
        if (evals[k].admissible)
            order.push_back(&evals[k]);
    std::stable_sort(order.begin(), order.end(),
                     [](const Evaluated *a, const Evaluated *b) {
                         if (a->total != b->total)
                             return a->total < b->total;
                         // A candidate that merely ties the heuristic
                         // is no improvement: prefer the incumbent.
                         if (a->isHeuristic != b->isHeuristic)
                             return a->isHeuristic;
                         return a->idx < b->idx;
                     });
    for (Evaluated *ev : order) {
        SearchScore &t = r.trail[ev->idx];
        std::optional<TransformedNest> &nest = evals[ev->nestOf].nest;
        bool tie = false;
        for (const Evaluated *other : order)
            if (other != ev && other->total == ev->total)
                tie = true;
        if (!ev->isHeuristic) {
            verify::ValidationReport report =
                verify::validate(prog, *nest, norm.depMatrix, cancel);
            if (!report.passed()) {
                t.verdict = "failed-validation";
                t.detail = report.firstFailure();
                continue;
            }
        }
        t.verdict = "winner";
        r.winnerOrigin = t.origin;
        r.winnerTimesUs = t.simTimesUs;
        if (tie)
            r.tieBreak =
                ev->isHeuristic
                    ? "total simulated time tied; kept the heuristic "
                      "(a tie is no improvement)"
                    : "total simulated time tied; picked the smallest "
                      "canonical key (lexicographic transform rows, "
                      "then planner scheme before forced round-robin)";
        r.improved = !ev->isHeuristic && ev->total < heur->total;
        if (!ev->isHeuristic) {
            r.transform = ordered[ev->idx].transform;
            r.nest = std::move(nest);
            r.plan = std::move(ev->plan);
        }
        return r;
    }
    return r; // nothing admissible validated: heuristic stands
}

SearchResult
searchPlan(const ir::Program &prog, const NormalizeResult &norm,
           const numa::ExecutionPlan &heuristic_plan,
           const SearchOptions &opts, core::CancelToken *cancel)
{
    return searchOverCandidates(
        prog, norm, heuristic_plan,
        enumerateSearchCandidates(prog, norm, opts), opts, cancel);
}

} // namespace anc::xform
