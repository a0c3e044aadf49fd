/**
 * @file
 * Where a three-deep nest's middle-run pieces change along the outer
 * variable.
 *
 * With outer variable x, middle y and inner z, each bound of y is a
 * line Y(x) and each bound of z is k * y + W(x) with an integral k. At
 * position x the middle run's pieces are the stretches of y between the
 * events: the middle bounds, and the points where two inner bounds
 * cross, y = (W_b(x) - W_a(x)) / (k_a - k_b). While no two events that
 * bound pieces cross, the pieces keep their bounds, so the simulator
 * cuts a slice (and a run of processors) into stretches at the outer
 * values where two events cross and both are active there: a middle
 * bound holds as the max of the lowers / min of the uppers, an inner
 * crossing as the max / min of its side at that point, and it lies
 * within one of the middle range. Two inner bounds with equal k swap
 * everywhere at once: cut wherever they do. Between the cuts, once
 * every event moves by a whole number per step of x (the caller checks
 * the slopes), the pieces move by whole numbers too.
 *
 * The planner works in 128-bit integers: every event is a line
 * (s * x + i) / e, each candidate crossing is compared against the
 * outer range by cross-multiplication before anything else is
 * evaluated there, and the middle range and the active tests are
 * evaluated once per distinct crossing. Only the stored cuts and
 * slopes are reduced. tests/oracle/piece_cuts_oracle.h keeps the exact
 * rational planner it replaced.
 */

#ifndef ANC_NUMA_PIECE_CUTS_H
#define ANC_NUMA_PIECE_CUTS_H

#include <utility>
#include <vector>

#include "ir/interp.h"

namespace anc::numa {

/** The cuts of a three-deep nest's middle-run pieces (findPieceCuts). */
struct PieceCuts
{
    /** The outer values at which the pieces can change, ascending and
     * distinct, each a reduced (num, den) with den > 0. */
    std::vector<std::pair<Int128, Int128>> cuts;
    /** The nonzero slope in x, reduced (num, den), of every event: the
     * middle bounds (lowers, then uppers), then per inner bound (lowers,
     * then uppers) its own slope and its crossings with the inner
     * bounds after it. */
    std::vector<std::pair<Int128, Int128>> slopes;

    bool operator==(const PieceCuts &) const = default;
};

/**
 * The cuts and slopes of the pieces of the middle (level 1) and inner
 * (level 2) loops of `bounds` over the outer range [outerLo, outerHi];
 * a cut up to one outside the range counts. Returns false (out
 * unspecified) when an inner bound's coefficient of y is not a whole
 * multiple of its denominator, or when a value leaves 128 bits.
 */
bool findPieceCuts(const ir::LoopBounds &bounds, Int outerLo, Int outerHi,
                   PieceCuts &out);

} // namespace anc::numa

#endif // ANC_NUMA_PIECE_CUTS_H
