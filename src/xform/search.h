/**
 * @file
 * Simulator-scored plan search.
 *
 * The paper's Section 5/6 heuristic commits to one basis ordering per
 * nest, but LegalBasis already defines the whole legal set and the
 * symmetry-aggregated simulator scores a configuration in microseconds.
 * This module turns plan selection into a search whose cost model IS
 * the simulator:
 *
 *   1. enumerate legal candidates -- row permutations and sign flips of
 *      the heuristic transformation and of the legal basis, alternate
 *      identity-padding completions, and per-candidate distribution-
 *      scheme choices (the planner's pick plus a forced round-robin
 *      variant);
 *   2. sort the deduplicated set by a documented canonical key so the
 *      outcome is independent of enumeration order;
 *   3. plan every candidate on its bound-free nest (transformBody) and
 *      prune with a cheap stride/locality score from
 *      analyzeInnerStrides, keeping the best `budget` candidates (the
 *      heuristic always survives, on top of them if it ranks outside).
 *      Loop bounds are solved by Fourier-Motzkin (solveBounds) only for
 *      candidates that take a slot, in rank order; one whose bounds
 *      cannot be solved is rejected and the next-ranked candidate
 *      takes its slot;
 *   4. score the heuristic by simulating it at every machine size in
 *      the processor sweep (SimOptions::symmetry = Auto), then every
 *      other survivor size by size, stopping at the first size where it
 *      is slower than the heuristic (it can no longer be admissible);
 *      one deadline step is charged per simulated run;
 *   5. select the admissible candidate -- one whose simulated time is
 *      <= the heuristic's at EVERY swept size, so the searched plan is
 *      never worse than the heuristic anywhere it was measured -- with
 *      the minimum total time; on ties the heuristic is preferred (a
 *      tie is no improvement), then the smallest canonical key wins.
 *      When the heuristic itself cannot be scored, every survivor is
 *      scored over the whole sweep and the heuristic plan stands;
 *   6. symbolically validate any winner that differs from the heuristic
 *      (verify::validate) before it is returned; a winner that fails
 *      validation is discarded and the next-best admissible candidate
 *      is tried, down to the heuristic itself.
 *
 * The search never throws for a losing or broken candidate: candidate
 * failures become trail verdicts. Deadline exhaustion (DeadlineExceeded)
 * and malformed input (UserError) still propagate.
 */

#ifndef ANC_XFORM_SEARCH_H
#define ANC_XFORM_SEARCH_H

#include <optional>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "numa/machine.h"
#include "numa/plan.h"
#include "xform/normalize.h"

namespace anc::xform {

/** Knobs for one plan search. Every field except hostThreads affects
 * which plan is selected, so svc::planKey hashes all of them. */
struct SearchOptions
{
    /** Master switch (CompileOptions::search.enabled; ancc --search). */
    bool enabled = false;
    /** Scoring slots: the `budget` best locality scores among the
     * candidates whose loop bounds solve are scored by the simulator,
     * the rest are pruned. The heuristic is always scored, on top of
     * the `budget` slots when it ranks outside them, so up to
     * budget + 1 candidates reach the simulator. */
    Int budget = 24;
    /** Simulated machine sizes every survivor is scored at. A candidate
     * is admissible only when it beats-or-ties the heuristic at every
     * size, so the searched plan never loses anywhere it was measured. */
    std::vector<Int> processorSweep = {4, 32, 4096};
    /** Value bound to every program parameter for scoring runs (scalars
     * are bound to 1.0). */
    Int paramValue = 32;
    /** Cap on enumerated candidates before pruning (generator output,
     * after deduplication). */
    Int maxEnumerated = 512;
    /** Cost model the scoring simulator charges. The service pins this
     * to its own machine so cached searched plans match the key. */
    numa::MachineParams machine = numa::MachineParams::butterflyGP1000();
    /** Host threads for the scoring runs (0 = one per hardware thread).
     * SimStats are bit-identical for every value, so this knob cannot
     * change the selected plan; it is NOT part of svc::planKey. */
    Int hostThreads = 0;
};

/** One enumerated candidate: a full legal invertible transformation
 * plus a distribution-scheme choice. */
struct SearchCandidate
{
    IntMatrix transform;
    /** Override the planner's partition scheme with round-robin (the
     * "no locality to exploit" arm of Section 7), keeping the hoists. */
    bool forceRoundRobin = false;
    /** Human-readable provenance for the trail ("heuristic",
     * "row permutation [2 0 1]", "padding on columns {2}", ...). */
    std::string origin;
};

/** Trail record for one candidate, in canonical order. */
struct SearchScore
{
    std::string transform; //!< "[r0; r1; ...]"
    std::string origin;
    std::string scheme; //!< partition scheme after planning ("" if none)
    /** Cheap stride/locality score used for pruning (lower is better). */
    double locality = 0.0;
    /** Simulated parallel time per swept machine size, in sweep order.
     * Full for "winner", "scored" and "failed-validation"; for
     * "inadmissible", the prefix up to and including the first size
     * where the candidate was slower than the heuristic; empty when
     * the candidate was pruned or rejected before scoring. */
    std::vector<double> simTimesUs;
    /** Sum of simTimesUs over the whole sweep; -1 when the candidate
     * was not scored over the whole sweep (including "inadmissible"). */
    double totalUs = -1.0;
    /** "winner" | "scored" | "inadmissible" | "pruned" | "redundant" |
     * "rejected" | "failed-validation". */
    std::string verdict;
    /** Why, when there is something to say: an "inadmissible" detail
     * names the swept size P it lost at. */
    std::string detail;
};

/** Everything one search run decided, plus the winning artifacts. */
struct SearchResult
{
    /** The search executed (options enabled, full tier, usable nest). */
    bool ran = false;
    /** The winner's total simulated time strictly beats the heuristic's
     * (when false, the heuristic plan is returned unchanged). */
    bool improved = false;
    uint64_t enumerated = 0; //!< unique candidates after dedup
    uint64_t scored = 0;     //!< candidates the simulator ran (fully or
                             //!< up to the size they lost at)
    uint64_t pruned = 0;     //!< dropped by the locality pre-filter
    /** Simulator::run calls made while scoring: below scored x sweep
     * whenever a candidate stopped at the first size it lost. */
    uint64_t simRuns = 0;
    std::vector<Int> processorSweep; //!< copy of the swept sizes
    std::vector<double> heuristicTimesUs; //!< heuristic per swept size
    std::vector<double> winnerTimesUs;    //!< winner per swept size
    std::string winnerOrigin;
    /** The canonical-key rule applied when several admissible candidates
     * tied on total simulated time ("" when no tie occurred). */
    std::string tieBreak;
    std::vector<SearchScore> trail;

    // Winning artifacts (set when ran; equal to the heuristic's when
    // the search did not improve on it).
    IntMatrix transform;
    std::optional<TransformedNest> nest;
    numa::ExecutionPlan plan;
};

/**
 * Enumerate the deduplicated candidate set for a normalized program:
 * the heuristic itself, legal row permutations / sign flips of the
 * final transformation and of the legal basis (re-padded through
 * LegalInvt), alternate identity-padding column choices, and a forced
 * round-robin scheme variant of every transformation. Every returned
 * transformation is invertible and passes deps::isLegalTransformation.
 */
std::vector<SearchCandidate>
enumerateSearchCandidates(const ir::Program &prog,
                          const NormalizeResult &norm,
                          const SearchOptions &opts);

/**
 * Run the prune/score/select pipeline over an explicit candidate list.
 * The list is canonically sorted and deduplicated first (documented
 * canonical key: flattened transformation rows compared
 * lexicographically, then the scheme choice -- planner's before forced
 * round-robin), so any permutation of the same candidates yields a
 * byte-identical result, trail included. `heuristic_plan` must be the
 * planner's plan for norm.nest; it anchors admissibility. Each distinct
 * transformation is rewritten and planned once, and its bounds solved
 * at most once: a forced round-robin candidate shares the nest and plan
 * (or the rejection) of the planner-scheme candidate with the same
 * transformation.
 */
SearchResult searchOverCandidates(const ir::Program &prog,
                                  const NormalizeResult &norm,
                                  const numa::ExecutionPlan &heuristic_plan,
                                  std::vector<SearchCandidate> candidates,
                                  const SearchOptions &opts,
                                  core::CancelToken *cancel = nullptr);

/** enumerateSearchCandidates + searchOverCandidates. */
SearchResult searchPlan(const ir::Program &prog, const NormalizeResult &norm,
                        const numa::ExecutionPlan &heuristic_plan,
                        const SearchOptions &opts,
                        core::CancelToken *cancel = nullptr);

} // namespace anc::xform

#endif // ANC_XFORM_SEARCH_H
