/**
 * @file
 * The simulator's three walks against each other, run by run.
 *
 * The fast walk charges a slice by stretches where it can (on each
 * stretch the counters change by a polynomial in the position: a few
 * positions are walked, the rest summed by forward differences), every
 * middle run it can in closed form, and processors across processors
 * where it can (on a stretch of processors every counter is a
 * polynomial in the processor: a few are walked, the others evaluated);
 * a traced run of the same plan walks every processor and each position
 * of its slices, since every processor and position then carries its
 * own trace spans; the naive walk (fastInner off) evaluates every point
 * and is the oracle. All three must yield bit-identical SimStats, and
 * the two fast walks must complete wherever the naive one does: only
 * the naive walk may fail alone, since it alone evaluates every point
 * and may meet an overflowing subscript.
 */

#ifndef ANC_TESTS_ORACLE_SIM_WALK_ORACLE_H
#define ANC_TESTS_ORACLE_SIM_WALK_ORACLE_H

#include <string>

#include "numa/simulator.h"

namespace anc::oracle {

/** What the three walks of one simulated run said. */
struct WalkDifferential
{
    bool naiveCompleted = false; //!< false: nothing to compare against
    /** "" when the across-processor and per-position walks completed
     * and equal the naive walk, else which one failed or differs,
     * where. */
    std::string mismatch;
    /** Processors the fast untraced run charged by evaluation
     * (Simulator::runTally). */
    uint64_t evaluated = 0;
};

/** Simulate (prog, nest, plan) under opts and binds three ways: fast
 * (processors by evaluation, slices by stretches), fast with a trace
 * sink (every processor walked, slices position by position) and
 * naive. opts.trace and opts.fastInner are overridden. */
WalkDifferential simWalkDifferential(const ir::Program &prog,
                                     const xform::TransformedNest &nest,
                                     const numa::ExecutionPlan &plan,
                                     numa::SimOptions opts,
                                     const ir::Bindings &binds);

} // namespace anc::oracle

#endif // ANC_TESTS_ORACLE_SIM_WALK_ORACLE_H
