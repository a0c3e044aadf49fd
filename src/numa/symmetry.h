/**
 * @file
 * Symmetry-class aggregation for the NUMA simulator.
 *
 * Wrapped and blocked distributions make the simulator's per-processor
 * cost structure *periodic in the processor id*: the paper's
 * strength-reduced charging already exploits that per reference
 * (countCongruent, faultsInRange); this module generalizes it to whole
 * processors. Instead of walking all P outer slices, the simulator
 *
 *   1. analytically enumerates the processors whose outer slice is
 *      non-empty -- O(min(P, outer trip count)) of them, found without
 *      any O(P) loop (per-scheme closed forms over the outer lattice,
 *      which also give each one's trip count);
 *   2. collapses every remaining processor into one *default class*
 *      (identical all-zero stats, possibly plus one redistribution
 *      sync when a fail-stop kill is armed);
 *   3. where the plan's translation symmetry provably holds
 *      (checkTranslationMerge), merges the non-empty processors into
 *      at most two residue classes -- the ceil(n/Q) and floor(n/Q)
 *      trip-count groups of the wrapped round-robin assignment;
 *   4. keeps every processor whose behavior is *not* provably shared
 *      (kill victims, redistribution adopters, blocked-boundary
 *      processors) in a singleton class, so results stay exact.
 *
 * One representative per class is simulated through the unmodified
 * two-phase machinery and its ProcStats replicated analytically -- the
 * property tests assert bit-identical SimStats against direct
 * simulation for every kernel, scheme, fastInner/naive, fault spec and
 * host-thread combination at small P.
 */

#ifndef ANC_NUMA_SYMMETRY_H
#define ANC_NUMA_SYMMETRY_H

#include <string>
#include <vector>

#include "ir/interp.h"
#include "numa/plan.h"
#include "numa/stats.h"
#include "xform/transform.h"

namespace anc::numa {

/** How the simulator decides whether to aggregate symmetry classes. */
enum class SymmetryMode
{
    Auto,  //!< aggregate above SimOptions::symmetryThreshold processors
    Off,   //!< always simulate every processor directly
    Force, //!< aggregate at any P (used by the equivalence tests)
};

/**
 * Everything the class planner needs to know about one run, scheme- and
 * kill-aware but independent of the simulator's compiled internals.
 * The outer loop's lattice values are outerStart + k*outerStep for
 * k in [0, outerCount).
 */
struct SymmetryInput
{
    Int processors = 1;
    PartitionScheme scheme = PartitionScheme::RoundRobin;
    bool outerEmpty = true;
    Int outerStart = 0;
    Int outerStep = 1;
    Int outerCount = 0;
    /** Aligned distribution geometry (owner schemes only). */
    Int blockSize = 1;  //!< level-0 block size (OwnerBlocked/Block2D)
    Int gridRows = 1, gridCols = 1;
    /** Translation merge proven sound (checkTranslationMerge). */
    bool mergeable = false;
    /** Fail-stop kill victim, or -1 when none is armed. */
    Int killVictim = -1;
    /** Exclusive upper bound on processor ids that may adopt a slice in
     * the kill redistribution phase (0 when no redistribution runs);
     * every processor below it becomes a singleton class. */
    Int killAdopterBound = 0;
    /** Give up (fall back to direct simulation) past this many
     * classes. */
    uint64_t maxClasses = uint64_t(1) << 16;
};

/** The planned partition: explicit groups plus an optional default
 * class owning every processor not claimed by a group. */
struct SymmetryPlan
{
    bool usable = false;
    std::string reason; //!< why unusable, or a summary when usable

    struct Group
    {
        Int representative = 0;
        uint64_t multiplicity = 1;
        ProcRange members;
        /** The outer-slice trip count of every member, from the closed
         * form; -1 for a kill's singletons, which may have none. The
         * simulator checks it against the representative's slice and
         * simulates directly on a mismatch. */
        Int trips = -1;
    };
    std::vector<Group> groups;

    /** The default class: processors whose slices are empty. */
    bool hasDefault = false;
    Int defaultRep = -1;
    uint64_t defaultCount = 0;

    /** Total classes including the default one. */
    size_t
    classCount() const
    {
        return groups.size() + (hasDefault ? 1 : 0);
    }
};

/**
 * Decide whether every non-empty processor of this plan provably does
 * identical work up to trip count -- the translation symmetry of the
 * wrapped schemes. Sound conditions (conservative; returns false with
 * a reason otherwise):
 *
 *   - the scheme is RoundRobin or OwnerWrapped, so a processor's outer
 *     values share one residue rho(p) = (base + p*vstep) mod P;
 *   - no inner loop bound and no lattice anchor below level 0 depends
 *     on the outer variable, so all processors run the same inner
 *     spaces per position;
 *   - every referenced array is replicated or wrapped with
 *     alpha0 * vstep == 1 (mod P), where alpha0 is the subscript's
 *     outer-variable coefficient -- then every ownership residue test
 *     (p - subscript) mod P is processor-independent.
 *
 * Under these conditions message-fault event streams are identical per
 * class member too, so fault and recovery counters replicate exactly.
 * Fail-stop kills are handled by the planner (singletons), not here.
 */
struct MergeCheck
{
    bool mergeable = false;
    std::string reason;
};
MergeCheck checkTranslationMerge(const ir::Program &prog,
                                 const xform::TransformedNest &nest,
                                 const ExecutionPlan &plan, Int processors);

/**
 * Partition [0, P) into symmetry classes. Never wrong, sometimes
 * unusable: when the class structure cannot be bounded (more candidate
 * classes than in.maxClasses) the plan comes back !usable and the
 * caller falls back to direct simulation.
 */
SymmetryPlan planSymmetryClasses(const SymmetryInput &in);

} // namespace anc::numa

#endif // ANC_NUMA_SYMMETRY_H
