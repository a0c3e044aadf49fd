/**
 * @file
 * A priori loop-nest canonicalization and content-addressed plan keys.
 *
 * The compilation service must recognize that two syntactically
 * different programs ask for the same plan. canonicalize() rewrites a
 * program into a normal form in which access-equivalent nests print
 * identically:
 *
 *   - lower bounds are anchored at zero (i = i' + L, with L the
 *     lexicographically least lower bound -- a translation-invariant
 *     and therefore canonical choice even for max() bound lists), so
 *     "for i = 5, N+4 ... A[i-5]" and "for i = 0, N-1 ... A[i]"
 *     coincide;
 *   - loop direction is normalized (i = -i'): the first subscript whose
 *     innermost variable is i gets a positive i coefficient, so a
 *     loop-reversed rendering ("A[N-1-i]" over the same range) folds
 *     back onto the forward one;
 *   - bound lists (the max/min sets) are sorted and deduplicated under
 *     a structural ordering;
 *   - loop variables are renamed to a canonical sequence (c0, c1, ...,
 *     skipping collisions with declared names).
 *
 * Loop steps are already normal in this IR: source nests are step-1 by
 * construction, and step-rescaled *renderings* -- bounds or subscripts
 * written as (2i)/2, (4N-4)/4 -- collapse in the exact rational
 * coefficient arithmetic before canonicalize even looks at them.
 *
 * Every rewrite is a bijective reindexing of the iteration space, so
 * the canonical program has the same access structure, dependence
 * structure up to the reindexing, and the same executed statement
 * instances as the original (the direction pass reverses a level's
 * traversal order, which preserves the access structure the planner
 * consumes; see DESIGN.md "Canonical forms"). The service compiles the
 * canonical program and serves that plan.
 *
 * PlanKey is the 128-bit content hash of (canonical text, machine
 * parameters, compile options): equal keys mean "the same compilation
 * would be performed", which is exactly the plan cache's contract.
 */

#ifndef ANC_SVC_CANONICAL_H
#define ANC_SVC_CANONICAL_H

#include <string>

#include "core/compiler.h"
#include "ir/loop_nest.h"
#include "numa/machine.h"
#include "ratmath/hash.h"

namespace anc::svc {

/** The canonicalized program plus what the passes did to produce it. */
struct CanonicalForm
{
    ir::Program program; //!< the canonical program (compile this)
    std::string text;    //!< canonical DSL rendering (hash/diff this)
    size_t shiftedLevels = 0;  //!< levels whose lower bound moved to 0
    size_t reversedLevels = 0; //!< levels whose direction was flipped
    bool renamed = false;      //!< some loop variable was renamed
};

/**
 * Canonicalize a structurally valid program. The program is taken by
 * value and rewritten in place into CanonicalForm::program, so a caller
 * done with its program moves it in and nothing is copied. Throws
 * UserError when the input fails ir::Program::validate(); arithmetic
 * faults (injected or real) surface as OverflowError/MathError for the
 * caller's recovery policy, exactly like any other pipeline stage.
 */
CanonicalForm canonicalize(ir::Program prog);

/** Content-addressed cache key: hash of everything the compilation
 * depends on. */
struct PlanKey
{
    Hash128 value;

    bool operator==(const PlanKey &o) const { return value == o.value; }
    bool operator!=(const PlanKey &o) const { return value != o.value; }
    bool operator<(const PlanKey &o) const { return value < o.value; }

    /** 32 hex digits; the stable external spelling of the key. */
    std::string hex() const { return value.hex(); }
};

/**
 * Derive the plan key for compiling `canonical` under the given machine
 * and options. Every field that changes the produced plan is hashed
 * (canonical text, all machine cost-model fields, the normalize and
 * validate options, and every plan-search knob including the scoring
 * machine); observability knobs (trace, cancel) and
 * search.hostThreads (bit-identical simulation across host
 * parallelism) are not.
 */
PlanKey planKey(const CanonicalForm &canonical,
                const numa::MachineParams &machine,
                const core::CompileOptions &opts);

} // namespace anc::svc

#endif // ANC_SVC_CANONICAL_H
