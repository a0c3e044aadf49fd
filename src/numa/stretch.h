/**
 * @file
 * Charging a stretch of positions, or of processors, from a few samples.
 *
 * On a stretch every counter of a walk's state is a polynomial of degree
 * at most D in the point of the stretch. The simulator uses one
 * forward-difference table two ways (see SimOptions::fastInner):
 *
 *   - along a processor's slice, cut into stretches of positions:
 *     chargeStretch walks the stretch's first D + 1 positions, records
 *     the state after each, and adds for the remaining positions the sum
 *     of the polynomial that their changes fix: sample s's change is
 *     sum_k C(s, k) D^k, with D^k the k-th forward difference at sample
 *     0, and sum over s = m .. m + rest - 1 of C(s, k) is
 *     C(m + rest, k + 1) - C(m, k + 1) (m = D + 1 samples);
 *   - across processors, where the processor index moves every
 *     slice's positions by one step: the first D + 1 processors of a
 *     stretch are walked and evaluateStretch gives each other one its
 *     state, sum_k C(t, k) D^k at offset t.
 *
 * The caller hands over the state as `width` unsigned counters; the
 * sampler knows nothing else of the walk.
 */

#ifndef ANC_NUMA_STRETCH_H
#define ANC_NUMA_STRETCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ratmath/int_util.h"

namespace anc::numa {

/** Highest degree of a stretch's per-position change. */
constexpr size_t kMaxStretchDegree = 2;

/** One stretch of positions [first, end) to charge. */
struct Stretch
{
    uint64_t first = 0, end = 0;
    /** Degree of every counter's change per position, at most
     * kMaxStretchDegree. */
    size_t degree = 0;
    /** Positions walked before the samples. */
    uint64_t lead = 0;
    /** Walk the last position after the sum instead of summing it. */
    bool walkLast = false;
};

/**
 * Given states[i * width + f], i in [0, samples], the state before and
 * after each of `samples` consecutive positions (samples = degree + 1),
 * overwrite states[0, width) with the state after `rest` further
 * positions. Throws LimitError ("simulator counter exceeds 2^64-1")
 * when a counter would leave 64 bits, and InternalError ("stretch
 * charge below zero") when one would fall below zero.
 */
void extrapolateStretch(uint64_t *states, size_t samples, size_t width,
                        uint64_t rest);

/**
 * Given states[i * width + f], i in [0, samples), the state at
 * `samples` consecutive points (samples = degree + 1), write to
 * out[i * width + f], i in [0, count), the state at point from + i of
 * the same polynomial, counted from the first sample. Throws like
 * extrapolateStretch. `diffs` is scratch space, reused across calls.
 */
void evaluateStretch(const uint64_t *states, size_t samples, size_t width,
                     uint64_t from, uint64_t count, uint64_t *out,
                     std::vector<Int128> &diffs);

/**
 * Charge stretch s: walk(j) walks position j, save(to) writes the
 * current `width` counters to to, load(from) replaces them. A stretch
 * with no position left to sum after the lead, the samples and the
 * walked last position is walked whole. `states` is scratch space,
 * reused across calls.
 */
template <class Walk, class Save, class Load>
void
chargeStretch(const Stretch &s, size_t width, std::vector<uint64_t> &states,
              Walk &&walk, Save &&save, Load &&load)
{
    const size_t samples = s.degree + 1;
    uint64_t first = s.first;
    if (s.end - first <= s.lead + samples + s.walkLast) {
        for (uint64_t j = first; j < s.end; ++j)
            walk(j);
        return;
    }
    for (uint64_t j = 0; j < s.lead; ++j)
        walk(first++);
    states.resize((samples + 1) * width);
    save(states.data());
    for (size_t i = 1; i <= samples; ++i) {
        walk(first + i - 1);
        save(&states[i * width]);
    }
    extrapolateStretch(states.data(), samples, width,
                       s.end - first - samples - s.walkLast);
    load(states.data());
    if (s.walkLast)
        walk(s.end - 1);
}

} // namespace anc::numa

#endif // ANC_NUMA_STRETCH_H
