/**
 * @file
 * Plan-explainability record: why the compiler chose this plan.
 *
 * Access normalization makes a chain of ranked choices -- which access
 * rows form the candidate basis, which of those survive the dependence
 * legality filter (and which dependence killed the ones that do not),
 * what padded the basis to an invertible transformation, and which
 * aligned reference won the partitioning tie-break. The compiler
 * already *makes* all of these decisions deterministically; this module
 * only records them.
 *
 * Like the rest of obs/, this file is a sink with no compiler
 * dependencies: the record holds pre-rendered strings and plain
 * numbers, filled by core::explain() from a finished Compilation, and
 * renders either a human report (ancc --explain) or a stable JSON
 * document (ancc --explain=FILE.json) whose key set and order never
 * depend on the input program.
 *
 * Degraded and recovered compiles still produce a well-formed record:
 * whatever stages ran contribute their entries, `partial` is set, and
 * the notes say what is missing -- an explain record must never be the
 * thing that crashes a compile that recovery just saved.
 */

#ifndef ANC_OBS_EXPLAIN_H
#define ANC_OBS_EXPLAIN_H

#include <cstdint>
#include <string>
#include <vector>

namespace anc::obs {

/**
 * One candidate row considered for the transformation. Access-matrix
 * rows come first (in importance order), then the synthesized rows
 * (dependence-carrying projections, identity padding) that completed
 * the matrix.
 */
struct ExplainCandidate
{
    /** Index into the ordered access matrix; -1 for synthesized rows. */
    int64_t accessRow = -1;
    std::string coeffs; //!< linear part, "[c0 c1 ...]"
    std::string origin; //!< provenance ("B dim 1", "projection", ...)
    uint64_t count = 0;     //!< occurrences across the nest (access rows)
    bool distDim = false;   //!< subscript of a distribution dimension
    std::string stage;      //!< "basis" | "legality" | "padding"
    /** "kept" | "reversed" (kept negated) | "dropped" | "unused"
     * (identity tier: no candidate basis was constructed). */
    std::string verdict;
    std::string reason; //!< why, in words ("" when kept and unremarkable)
    /** Dependence column (into the dependence matrix) whose sign the
     * row violates; -1 unless the legality filter dropped it. */
    int64_t violatedDep = -1;
    uint64_t depsCarried = 0; //!< dependences this row retired
};

/** Stride/contiguity score of one reference under the chosen plan. */
struct ExplainRefScore
{
    std::string ref;     //!< "stmt 0 write A" / "stmt 1 read 2 B"
    std::string strides; //!< per-dimension innermost stride, "[0 1]"
    bool constantStride = false;  //!< vectorizable (integral strides)
    bool singleDimension = false; //!< at most one dimension varies
    /** What the plan does with it: "local (owner-aligned write)",
     * "block transfer above level k", "element-wise remote", ... */
    std::string verdict;
};

/** One plan-search candidate's trail entry (xform/search.h), with the
 * same pre-rendered strings as the rest of the record. */
struct ExplainSearchScore
{
    std::string transform; //!< "[r0; r1; ...]"
    std::string origin;    //!< provenance ("heuristic", "row permutation...")
    std::string scheme;    //!< partition scheme after planning
    double locality = 0.0; //!< pruning score (lower is better)
    /** Per swept machine size; for "inadmissible", up to the size it
     * lost at (xform::SearchScore). */
    std::vector<double> simTimesUs;
    double totalUs = -1.0; //!< full-sweep sum; -1 when not fully scored
    /** "winner" | "scored" | "inadmissible" | "pruned" | "redundant" |
     * "rejected" | "failed-validation". */
    std::string verdict;
    std::string detail;
};

/** What the simulator-scored plan search decided. Defaults describe a
 * compile where the search was off or skipped (ran=false, empty trail);
 * the record is well-formed either way. */
struct ExplainSearch
{
    bool ran = false;
    bool improved = false; //!< the winner strictly beat the heuristic
    uint64_t enumerated = 0;
    uint64_t scored = 0;
    uint64_t pruned = 0;
    std::vector<int64_t> processorSweep;
    std::vector<double> heuristicTimesUs; //!< per swept size
    std::vector<double> winnerTimesUs;    //!< per swept size
    std::string winnerOrigin;
    std::string tieBreak; //!< rule applied when totals tied ("" if none)
    std::vector<ExplainSearchScore> trail;
};

/** The full decision trail of one compilation. */
struct ExplainRecord
{
    std::string tier;     //!< degradation-ladder rung ("full", ...)
    bool degraded = false;
    /** Some stage's trail is missing (the compile recovered past it);
     * the notes say which. */
    bool partial = false;
    std::string transform;  //!< chosen T, one "[r0; r1; ...]" string
    bool unimodular = false;
    std::vector<ExplainCandidate> candidates;

    std::string scheme;        //!< partition scheme name
    std::string planRationale; //!< the Section 7 case that applied
    std::string tieBreak;      //!< rule that picked the aligned winner
    bool outerParallel = true;
    uint64_t hoists = 0; //!< block transfers the plan created
    ExplainSearch search; //!< simulator-scored plan search (if it ran)
    std::vector<ExplainRefScore> refs;

    std::vector<std::string> notes; //!< fallbacks, skipped stages

    /**
     * Stable JSON: fixed key set and order
     * {"tier", "degraded", "partial", "transform", "unimodular",
     *  "plan": {"scheme", "rationale", "tieBreak", "outerParallel",
     *  "hoists"}, "search": {"ran", "improved", "enumerated", "scored",
     *  "pruned", "processorSweep", "heuristicTimesUs", "winnerTimesUs",
     *  "winnerOrigin", "tieBreak", "trail": [...]},
     *  "candidates": [...], "refs": [...], "notes": [...]},
     * arrays present even when empty. No trailing newline.
     */
    std::string renderJson() const;

    /** Human-readable report (ancc --explain). */
    std::string renderText() const;
};

} // namespace anc::obs

#endif // ANC_OBS_EXPLAIN_H
