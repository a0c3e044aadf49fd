/**
 * @file
 * The plan search's cost cuts, held to eager oracles.
 *
 * The search plans and ranks every candidate on a bound-free nest
 * (xform::transformBody), solves loop bounds (xform::solveBounds) only
 * for candidates that take a scoring slot, and stops scoring a
 * candidate at the first swept size where it is slower than the
 * heuristic. Three checks hold those cuts to what eager work computes:
 *
 *   - the split: for every enumerated candidate of every gallery
 *     kernel, sample, example and corpus seed, transformBody followed
 *     by solveBounds equals a test-local single-pass applyTransform
 *     field by field, and the planner and the stride analysis read the
 *     same from the bound-free nest as from the full one;
 *   - the search: a test-local eager reference (apply every candidate,
 *     score every survivor over the whole sweep) agrees with
 *     searchOverCandidates on every verdict, the winner and every
 *     admissible total, and each early-stopped record is a prefix of
 *     the reference's times ending at the first size that lost;
 *   - the late rejection: a survivor whose bounds solve throws is
 *     rejected with its twin, and the next-ranked candidate takes its
 *     scoring slot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>

#include "codegen/planner.h"
#include "core/compiler.h"
#include "dsl/parser.h"
#include "ir/gallery.h"
#include "numa/simulator.h"
#include "ratmath/linalg.h"
#include "verify/verify.h"
#include "xform/fm.h"
#include "xform/search.h"
#include "xform/stride.h"
#include "xform/transform.h"

#ifndef ANC_SOURCE_DIR
#define ANC_SOURCE_DIR "."
#endif

namespace anc::xform {
namespace {

struct Named
{
    std::string name;
    ir::Program prog;
};

/** The gallery kernels, then every parsable .an file among the samples,
 * the examples and the fuzz corpus seeds. */
std::vector<Named>
programs()
{
    std::vector<Named> out = {
        {"figure1", ir::gallery::figure1()},
        {"section3", ir::gallery::section3Example()},
        {"scaling", ir::gallery::scalingExample()},
        {"section5", ir::gallery::section5Example()},
        {"gemm", ir::gallery::gemm()},
        {"gemv", ir::gallery::gemv()},
        {"ger", ir::gallery::ger()},
        {"jacobi2d", ir::gallery::jacobi2d()},
        {"gaussSeidel", ir::gallery::gaussSeidel()},
        {"syr2kBanded", ir::gallery::syr2kBanded()},
        {"skewedScatter", ir::gallery::skewedScatter()},
    };
    namespace fs = std::filesystem;
    for (const char *dir :
         {"tools/samples", "examples", "tests/integration/corpus"}) {
        std::vector<fs::path> files;
        for (const fs::directory_entry &ent :
             fs::directory_iterator(fs::path(ANC_SOURCE_DIR) / dir))
            if (ent.path().extension() == ".an")
                files.push_back(ent.path());
        std::sort(files.begin(), files.end());
        for (const fs::path &file : files) {
            std::ifstream in(file);
            std::stringstream buf;
            buf << in.rdbuf();
            dsl::ParseResult parsed = dsl::parseProgramRecovering(buf.str());
            if (parsed.ok())
                out.push_back({std::string(dir) + "/" +
                                   file.filename().string(),
                               *parsed.program});
        }
    }
    return out;
}

SearchOptions
enabled()
{
    SearchOptions so;
    so.enabled = true;
    return so;
}

/** applyTransform as one pass, the way it was written before the split:
 * constraints and Fourier-Motzkin, then the lattice, then the body. */
TransformedNest
eagerApply(const ir::Program &prog, const IntMatrix &t)
{
    size_t n = prog.nest.depth();
    size_t p = prog.params.size();
    auto t_inv = tryInverse(toRational(t));
    if (!t_inv)
        throw MathError("transformation matrix is singular");
    // Fourier-Motzkin over the substituted constraints, innermost level
    // first; a row a*u_k + r >= 0 bounds u_k by -r/a.
    fm::System sys(fm::Rounding::Exact);
    for (const ir::AffineExpr &c : prog.nest.constraints(p))
        sys.add(fm::toRow(c.composeWithVarMap(*t_inv), fm::Rounding::Exact));
    Lattice lattice(t);
    std::vector<TransformedLoop> loops(n);
    for (size_t k = n; k-- > 0;) {
        TransformedLoop &l = loops[k];
        l = {newLoopVarName(k), {}, {}, lattice.stride(k)};
        for (const fm::Row &r : sys.rows()) {
            Rational a = r.z[p + k];
            if (a.isZero())
                continue;
            ir::AffineExpr e(n, p);
            for (size_t q = 0; q < p; ++q)
                e.paramCoeff(q) = r.z[q];
            for (size_t j = 0; j < k; ++j)
                e.varCoeff(j) = r.z[p + j];
            e.constantTerm() = r.cst;
            (a.isPositive() ? l.lower : l.upper)
                .push_back(e.scaled(-a.inverse()));
        }
        if (l.lower.empty() || l.upper.empty()) {
            if (!sys.contradiction())
                throw UserError("iteration space is unbounded at level " +
                                std::to_string(k));
            l.lower.clear();
            l.upper.clear();
        }
        sys = sys.eliminate(p + k);
    }
    std::vector<ir::Statement> body = prog.nest.body();
    for (ir::Statement &s : body)
        s.forEachAffineMut([&](ir::AffineExpr &e) {
            e = e.composeWithVarMap(*t_inv);
        });
    return TransformedNest(t, *t_inv, std::move(lattice), std::move(loops),
                           std::move(body));
}

void
expectSameNest(const TransformedNest &a, const TransformedNest &b,
               const ir::Program &prog)
{
    EXPECT_EQ(a.transform(), b.transform());
    EXPECT_EQ(a.inverseTransform(), b.inverseTransform());
    EXPECT_EQ(a.lattice().hnf(), b.lattice().hnf());
    ASSERT_EQ(a.depth(), b.depth());
    for (size_t k = 0; k < a.depth(); ++k) {
        const TransformedLoop &la = a.loops()[k], &lb = b.loops()[k];
        EXPECT_EQ(la.var, lb.var) << "level " << k;
        EXPECT_EQ(la.lower, lb.lower) << "level " << k;
        EXPECT_EQ(la.upper, lb.upper) << "level " << k;
        EXPECT_EQ(la.stride, lb.stride) << "level " << k;
    }
    ASSERT_EQ(a.body().size(), b.body().size());
    for (size_t s = 0; s < a.body().size(); ++s) {
        std::vector<ir::ArrayRef> ra, rb;
        a.body()[s].forEachRef(
            [&](const ir::ArrayRef &r, bool) { ra.push_back(r); });
        b.body()[s].forEachRef(
            [&](const ir::ArrayRef &r, bool) { rb.push_back(r); });
        EXPECT_EQ(ra, rb) << "statement " << s;
    }
    EXPECT_EQ(printTransformedNest(a, prog), printTransformedNest(b, prog));
}

void
expectSamePlan(const numa::ExecutionPlan &a, const numa::ExecutionPlan &b)
{
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.alignedArray, b.alignedArray);
    ASSERT_EQ(a.hoists.size(), b.hoists.size());
    for (size_t h = 0; h < a.hoists.size(); ++h) {
        EXPECT_EQ(a.hoists[h].stmt, b.hoists[h].stmt);
        EXPECT_EQ(a.hoists[h].readIdx, b.hoists[h].readIdx);
        EXPECT_EQ(a.hoists[h].level, b.hoists[h].level);
    }
    EXPECT_EQ(a.outerParallel, b.outerParallel);
    EXPECT_EQ(a.rationale, b.rationale);
    EXPECT_EQ(a.tieBreak, b.tieBreak);
}

void
expectSameStrides(const std::vector<RefStride> &a,
                  const std::vector<RefStride> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stmt, b[i].stmt);
        EXPECT_EQ(a[i].arrayId, b[i].arrayId);
        EXPECT_EQ(a[i].isWrite, b[i].isWrite);
        EXPECT_EQ(a[i].strides, b[i].strides);
    }
}

std::string
errorOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const Error &e) {
        return e.what();
    }
    return "";
}

TEST(SearchOracleTest, BoundFreePlanningPlusBoundsSolveEqualsApplyTransform)
{
    size_t nests = 0, progs = 0;
    for (const Named &np : programs()) {
        SCOPED_TRACE(np.name);
        const ir::Program &prog = np.prog;
        core::Compilation c = core::compileResilient(prog);
        if (c.degraded())
            continue; // the normalization of a degraded rung is partial
        ++progs;
        std::vector<IntMatrix> seen;
        for (const SearchCandidate &cand :
             enumerateSearchCandidates(prog, c.normalization, enabled())) {
            const IntMatrix &t = cand.transform;
            if (std::find(seen.begin(), seen.end(), t) != seen.end())
                continue;
            seen.push_back(t);
            SCOPED_TRACE("T=" + t.str());
            std::optional<TransformedNest> eager, body, full;
            std::string eagerErr =
                errorOf([&] { eager = eagerApply(prog, t); });
            std::string splitErr = errorOf([&] {
                body = transformBody(prog, t);
                full = solveBounds(prog, *body);
            });
            EXPECT_EQ(splitErr, eagerErr);
            EXPECT_EQ(errorOf([&] { applyTransform(prog, t); }), eagerErr);
            if (!eagerErr.empty())
                continue;
            ASSERT_TRUE(full && eager);
            ++nests;
            expectSameNest(*full, *eager, prog);
            expectSameNest(*full, applyTransform(prog, t), prog);
            // The bound-free nest is everything but the bounds.
            for (const TransformedLoop &l : body->loops()) {
                EXPECT_TRUE(l.lower.empty());
                EXPECT_TRUE(l.upper.empty());
            }
            // Planning and ranking read nothing the bounds solve adds.
            expectSamePlan(codegen::planCodegen(prog, *body,
                                                c.normalization.depMatrix,
                                                &c.normalization.access),
                           codegen::planCodegen(prog, *eager,
                                                c.normalization.depMatrix,
                                                &c.normalization.access));
            expectSameStrides(analyzeInnerStrides(*body),
                              analyzeInnerStrides(*eager));
        }
    }
    EXPECT_GE(progs, 20u);
    EXPECT_GE(nests, 400u);
}

/** What the pre-split search decided for each canonical candidate. */
struct Reference
{
    std::vector<std::string> verdicts, details;
    std::vector<std::vector<double>> times;
    std::vector<double> totals;
    uint64_t scored = 0, pruned = 0;
    bool improved = false;
    std::string winnerOrigin;
    std::vector<double> heuristicTimesUs, winnerTimesUs;
};

/** The canonical candidate order searchOverCandidates documents:
 * flattened transform rows, then planner scheme before round-robin. */
std::vector<SearchCandidate>
canonical(const std::vector<SearchCandidate> &cands)
{
    std::map<std::pair<IntVec, bool>, SearchCandidate> byKey;
    for (const SearchCandidate &c : cands) {
        IntVec flat;
        for (size_t i = 0; i < c.transform.rows(); ++i)
            for (Int v : c.transform.row(i))
                flat.push_back(v);
        auto key = std::make_pair(flat, c.forceRoundRobin);
        auto it = byKey.find(key);
        if (it == byKey.end())
            byKey.emplace(key, c);
        else if (c.origin < it->second.origin)
            it->second.origin = c.origin;
    }
    std::vector<SearchCandidate> out;
    for (auto &kv : byKey)
        out.push_back(kv.second);
    return out;
}

/**
 * The eager search: apply and plan every candidate, prune by locality,
 * simulate every survivor at every swept size, then select. Locality
 * scores come from `fast`'s trail, which the split test above shows is
 * computed from the same plan and strides.
 */
Reference
eagerSearch(const ir::Program &prog, const NormalizeResult &norm,
            const numa::ExecutionPlan &heuristic_plan,
            const std::vector<SearchCandidate> &ordered,
            const SearchOptions &opts, const SearchResult &fast)
{
    struct Ev
    {
        size_t idx;
        std::optional<TransformedNest> nest;
        numa::ExecutionPlan plan;
        bool heuristic = false;
        bool scored = false;
        bool admissible = false;
        double total = 0.0;
    };
    size_t n = ordered.size();
    Reference ref;
    ref.verdicts.resize(n);
    ref.details.resize(n);
    ref.times.resize(n);
    ref.totals.assign(n, -1.0);
    std::vector<Ev> evs;
    for (size_t i = 0; i < n; ++i) {
        const SearchCandidate &c = ordered[i];
        Ev ev{i, std::nullopt, {}, !c.forceRoundRobin &&
                                       c.transform == norm.transform};
        bool twin = c.forceRoundRobin && i > 0 &&
                    !ordered[i - 1].forceRoundRobin &&
                    ordered[i - 1].transform == c.transform;
        if (twin && ref.verdicts[i - 1] == "rejected") {
            ref.verdicts[i] = "rejected";
            ref.details[i] = ref.details[i - 1];
            continue;
        }
        try {
            if (twin && !evs.empty() && evs.back().idx == i - 1) {
                ev.nest = evs.back().nest;
                ev.plan = evs.back().plan;
            } else {
                ev.nest = ev.heuristic ? *norm.nest
                                       : eagerApply(prog, c.transform);
                ev.plan = ev.heuristic
                              ? heuristic_plan
                              : codegen::planCodegen(prog, *ev.nest,
                                                     norm.depMatrix,
                                                     &norm.access);
            }
        } catch (const UserError &e) {
            ref.verdicts[i] = "rejected";
            ref.details[i] =
                std::string("transform not applicable: ") + e.what();
            continue;
        } catch (const Error &e) {
            ref.verdicts[i] = "rejected";
            ref.details[i] = e.what();
            continue;
        }
        if (c.forceRoundRobin) {
            if (ev.plan.scheme == numa::PartitionScheme::RoundRobin) {
                ref.verdicts[i] = "redundant";
                ref.details[i] = "planner already chose round-robin";
                continue;
            }
            ev.plan.scheme = numa::PartitionScheme::RoundRobin;
            ev.plan.alignedArray.reset();
            ev.plan.rationale += "; search forced round-robin";
            ev.plan.tieBreak.clear();
        }
        evs.push_back(std::move(ev));
    }

    size_t budget = opts.budget > 0 ? size_t(opts.budget) : 1;
    std::vector<size_t> rank(evs.size());
    std::iota(rank.begin(), rank.end(), 0);
    std::stable_sort(rank.begin(), rank.end(), [&](size_t a, size_t b) {
        double la = fast.trail[evs[a].idx].locality;
        double lb = fast.trail[evs[b].idx].locality;
        if (la != lb)
            return la < lb;
        return evs[a].idx < evs[b].idx;
    });
    std::vector<char> keep(evs.size(), 0);
    size_t kept = 0;
    for (size_t k : rank)
        if (kept < budget || evs[k].heuristic) {
            keep[k] = 1;
            ++kept;
        }

    ir::Bindings binds{IntVec(prog.params.size(), opts.paramValue),
                       std::vector<double>(prog.scalars.size(), 1.0)};
    const Ev *heur = nullptr;
    for (size_t k = 0; k < evs.size(); ++k) {
        Ev &ev = evs[k];
        if (!keep[k]) {
            ref.verdicts[ev.idx] = "pruned";
            ref.details[ev.idx] =
                "locality score outside the top " + std::to_string(budget);
            ++ref.pruned;
            continue;
        }
        std::vector<double> &times = ref.times[ev.idx];
        try {
            for (Int p : opts.processorSweep) {
                numa::SimOptions sopts;
                sopts.processors = p;
                sopts.machine = opts.machine;
                sopts.symmetry = numa::SymmetryMode::Auto;
                numa::Simulator sim(prog, *ev.nest, ev.plan, sopts);
                times.push_back(sim.run(binds).parallelTime());
            }
        } catch (const UserError &e) {
            ref.verdicts[ev.idx] = "rejected";
            ref.details[ev.idx] = std::string("not simulable: ") + e.what();
            times.clear();
            continue;
        } catch (const Error &e) {
            ref.verdicts[ev.idx] = "rejected";
            ref.details[ev.idx] =
                std::string("simulation failed: ") + e.what();
            times.clear();
            continue;
        }
        ev.scored = true;
        ++ref.scored;
        ev.total = 0.0;
        for (double v : times)
            ev.total += v;
        ref.totals[ev.idx] = ev.total;
        if (ev.heuristic)
            heur = &ev;
    }
    if (!heur) {
        for (std::string &v : ref.verdicts)
            if (v.empty())
                v = "scored";
        return ref;
    }
    ref.heuristicTimesUs = ref.times[heur->idx];

    std::vector<Ev *> order;
    for (Ev &ev : evs) {
        if (!ev.scored)
            continue;
        ev.admissible = true;
        for (size_t j = 0; j < ref.heuristicTimesUs.size(); ++j)
            if (ref.times[ev.idx][j] > ref.heuristicTimesUs[j])
                ev.admissible = false;
        ref.verdicts[ev.idx] = ev.admissible ? "scored" : "inadmissible";
        if (ev.admissible)
            order.push_back(&ev);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Ev *a, const Ev *b) {
                         if (a->total != b->total)
                             return a->total < b->total;
                         if (a->heuristic != b->heuristic)
                             return a->heuristic;
                         return a->idx < b->idx;
                     });
    for (Ev *ev : order) {
        if (!ev->heuristic) {
            verify::ValidationReport report =
                verify::validate(prog, *ev->nest, norm.depMatrix, {});
            if (!report.passed()) {
                ref.verdicts[ev->idx] = "failed-validation";
                ref.details[ev->idx] = report.firstFailure();
                continue;
            }
        }
        ref.verdicts[ev->idx] = "winner";
        ref.winnerOrigin = ordered[ev->idx].origin;
        ref.winnerTimesUs = ref.times[ev->idx];
        ref.improved = !ev->heuristic && ev->total < heur->total;
        break;
    }
    return ref;
}

TEST(SearchOracleTest, EarlyStopAgreesWithEagerFullSweepSearch)
{
    size_t progs = 0, stopped = 0, admissible = 0;
    for (const Named &np : programs()) {
        SCOPED_TRACE(np.name);
        const ir::Program &prog = np.prog;
        core::Compilation c = core::compileResilient(prog);
        if (c.degraded() || !c.normalization.nest)
            continue;
        SearchOptions so = enabled();
        std::vector<SearchCandidate> cands =
            enumerateSearchCandidates(prog, c.normalization, so);
        SearchResult fast = searchOverCandidates(prog, c.normalization,
                                                 c.plan, cands, so);
        std::vector<SearchCandidate> ordered = canonical(cands);
        ASSERT_EQ(fast.trail.size(), ordered.size());
        Reference ref = eagerSearch(prog, c.normalization, c.plan, ordered,
                                    so, fast);
        ++progs;
        for (size_t i = 0; i < ordered.size(); ++i) {
            const SearchScore &t = fast.trail[i];
            SCOPED_TRACE(t.origin);
            ASSERT_EQ(t.origin, ordered[i].origin);
            EXPECT_EQ(t.verdict, ref.verdicts[i]);
            if (t.verdict != "inadmissible") {
                EXPECT_EQ(t.detail, ref.details[i]);
                EXPECT_EQ(t.simTimesUs, ref.times[i]);
                EXPECT_EQ(t.totalUs, ref.totals[i]);
                admissible += t.totalUs >= 0;
                continue;
            }
            // Early stop: a prefix of the full sweep whose last entry is
            // the first one slower than the heuristic.
            const std::vector<double> &full = ref.times[i];
            ASSERT_FALSE(t.simTimesUs.empty());
            ASSERT_LE(t.simTimesUs.size(), full.size());
            EXPECT_EQ(t.simTimesUs,
                      std::vector<double>(full.begin(),
                                          full.begin() +
                                              t.simTimesUs.size()));
            size_t last = t.simTimesUs.size() - 1;
            for (size_t j = 0; j < last; ++j)
                EXPECT_LE(t.simTimesUs[j], ref.heuristicTimesUs[j]);
            EXPECT_GT(t.simTimesUs[last], ref.heuristicTimesUs[last]);
            EXPECT_EQ(t.totalUs, -1.0);
            EXPECT_EQ(t.detail, "slower than the heuristic at P=" +
                                    std::to_string(
                                        so.processorSweep[last]));
            stopped += t.simTimesUs.size() < full.size();
        }
        EXPECT_EQ(fast.scored, ref.scored);
        EXPECT_EQ(fast.pruned, ref.pruned);
        EXPECT_EQ(fast.improved, ref.improved);
        EXPECT_EQ(fast.winnerOrigin, ref.winnerOrigin);
        EXPECT_EQ(fast.heuristicTimesUs, ref.heuristicTimesUs);
        EXPECT_EQ(fast.winnerTimesUs, ref.winnerTimesUs);
    }
    EXPECT_GE(progs, 20u);
    EXPECT_GT(stopped, 200u); // the cut actually happens
    EXPECT_GT(admissible, 80u);
}

TEST(SearchOracleTest, SimRunsCountsTheRunsScoringMade)
{
    // SearchResult::simRuns counts the Simulator::run calls the search
    // made. Each successful run leaves one time in its record (a failed
    // run would leave a rejected record without times; none of these
    // inputs has one), and wherever a candidate stopped at the first
    // size it lost, the count is below the scored x sweep an eager
    // search pays.
    size_t progs = 0, below = 0;
    for (const Named &np : programs()) {
        SCOPED_TRACE(np.name);
        const ir::Program &prog = np.prog;
        core::Compilation c = core::compileResilient(prog);
        if (c.degraded() || !c.normalization.nest)
            continue;
        SearchOptions so = enabled();
        SearchResult r = searchPlan(prog, c.normalization, c.plan, so);
        uint64_t runs = 0;
        bool early = false;
        for (const SearchScore &t : r.trail) {
            EXPECT_EQ(t.detail.find("simulation failed"), std::string::npos);
            EXPECT_EQ(t.detail.find("not simulable"), std::string::npos);
            runs += t.simTimesUs.size();
            early = early || (t.verdict == "inadmissible" &&
                              t.simTimesUs.size() < so.processorSweep.size());
        }
        EXPECT_EQ(r.simRuns, runs);
        uint64_t eager = r.scored * so.processorSweep.size();
        EXPECT_LE(r.simRuns, eager);
        if (early) {
            EXPECT_LT(r.simRuns, eager);
            ++below;
        }
        ++progs;
    }
    EXPECT_GE(progs, 20u);
    EXPECT_GE(below, 10u);
}

TEST(SearchOracleTest, LateBoundsRejectionPromotesTheNextRankedCandidate)
{
    // T = [k k-1 0; 1 1 0; 0 0 1] is unimodular with a small inverse, so
    // the bound-free nest plans and ranks; eliminating the skewed pair
    // multiplies coefficients near k and Fourier-Motzkin overflows.
    ir::Program prog = ir::gallery::gemm();
    core::Compilation c = core::compile(prog);
    const Int k = Int(1) << 32;
    IntMatrix big{{k, k - 1, 0}, {1, 1, 0}, {0, 0, 1}};
    std::string boundsError =
        errorOf([&] { applyTransform(prog, big); });
    ASSERT_FALSE(boundsError.empty());
    ASSERT_EQ(errorOf([&] { transformBody(prog, big); }), "");

    SearchOptions so = enabled();
    std::vector<SearchCandidate> viable =
        enumerateSearchCandidates(prog, c.normalization, so);
    std::vector<SearchCandidate> withBig = viable;
    withBig.push_back({big, false, "large coefficients"});
    withBig.push_back({big, true, "large coefficients + round-robin"});

    auto bigRecords = [](const SearchResult &r) {
        std::vector<SearchScore> out;
        for (const SearchScore &t : r.trail)
            if (t.origin.rfind("large coefficients", 0) == 0)
                out.push_back(t);
        return out;
    };
    // The smallest budget that gives the large candidate a slot: one
    // less, and it is pruned without its bounds ever being solved.
    Int budget = 1;
    SearchResult r;
    for (;; ++budget) {
        so.budget = budget;
        r = searchOverCandidates(prog, c.normalization, c.plan, withBig, so);
        ASSERT_EQ(bigRecords(r).size(), 2u);
        if (bigRecords(r)[0].verdict != "pruned")
            break;
        ASSERT_LT(budget, Int(withBig.size()));
    }
    SearchResult ref =
        searchOverCandidates(prog, c.normalization, c.plan, viable, so);
    size_t usable = 0;
    for (const SearchScore &t : ref.trail)
        usable += t.verdict != "rejected" && t.verdict != "redundant";
    ASSERT_GT(usable, size_t(budget)) << "nothing left to promote";

    // Rejected with the eager path's detail, and so is its twin.
    for (const SearchScore &t : bigRecords(r)) {
        SCOPED_TRACE(t.origin);
        EXPECT_EQ(t.verdict, "rejected");
        EXPECT_EQ(t.detail, boundsError);
        EXPECT_TRUE(t.simTimesUs.empty());
        EXPECT_EQ(t.scheme, "");
    }
    // The next-ranked candidate took the slot: every other record, the
    // counts and the winner are those of the search without it.
    EXPECT_EQ(r.scored, ref.scored);
    EXPECT_GE(r.scored, uint64_t(budget));
    EXPECT_LE(r.scored, uint64_t(budget) + 1); // + a heuristic ranked out
    EXPECT_EQ(r.pruned, ref.pruned);
    EXPECT_EQ(r.winnerOrigin, ref.winnerOrigin);
    EXPECT_EQ(r.winnerTimesUs, ref.winnerTimesUs);
    std::vector<SearchScore> rest;
    for (const SearchScore &t : r.trail)
        if (t.origin.rfind("large coefficients", 0) != 0)
            rest.push_back(t);
    ASSERT_EQ(rest.size(), ref.trail.size());
    for (size_t i = 0; i < rest.size(); ++i) {
        SCOPED_TRACE(rest[i].origin);
        EXPECT_EQ(rest[i].origin, ref.trail[i].origin);
        EXPECT_EQ(rest[i].verdict, ref.trail[i].verdict);
        EXPECT_EQ(rest[i].detail, ref.trail[i].detail);
        EXPECT_EQ(rest[i].simTimesUs, ref.trail[i].simTimesUs);
    }
}

} // namespace
} // namespace anc::xform
