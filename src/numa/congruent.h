/**
 * @file
 * Closed-form congruence counting over arithmetic progressions.
 *
 * The iteration-counting kernel of the simulator's wrapped-ownership
 * fast path (how many innermost iterations land on processor p?) and of
 * the communication-matrix class fold (how many members of one symmetry
 * class send to another?). Exact for any operand signs; cost is one
 * extended Euclid.
 */

#ifndef ANC_NUMA_CONGRUENT_H
#define ANC_NUMA_CONGRUENT_H

#include <cstdint>

#include "ratmath/int_util.h"

namespace anc::numa {

/**
 * Number of j in [0, count) with (a + j*delta) mod m == target. Also
 * reports the largest such j (jLast, meaningful when hits > 0).
 */
struct CongruentCount
{
    uint64_t hits = 0;
    uint64_t jLast = 0;
};

/**
 * Congruence counting with the step delta and modulus m fixed: the
 * extended Euclid runs once, at construction, so each count() costs a
 * few divisions. The simulator builds one per wrapped reference, whose
 * innermost step and processor count never change within a run.
 */
class CongruentStepper
{
  public:
    CongruentStepper() = default;

    CongruentStepper(Int delta, Int m) : m_(m), d_(euclidMod(delta, m))
    {
        if (d_ == 0)
            return;
        ExtGcd eg = extGcd(d_, m);
        g_ = eg.g;
        step_ = m / eg.g;
        // (d/g) * x == 1 (mod m/g), so j0 = (need/g) * x mod step.
        inv_ = euclidMod(eg.x, step_);
    }

    /** Number of j in [0, n) with (a + j*delta) mod m == target. */
    CongruentCount
    count(Int a, uint64_t n, Int target) const
    {
        CongruentCount out;
        Int need = euclidMod(checkedSub(target, a), m_);
        if (d_ == 0) {
            if (need == 0) {
                out.hits = n;
                out.jLast = n - 1;
            }
            return out;
        }
        if (need % g_ != 0)
            return out;
        // need / g and inv are both below step, so under 2^31 the
        // product fits 64 bits and skips the 128-bit remainder (a
        // library call); the value is the same.
        Int j0 = step_ < (Int(1) << 31)
                     ? (need / g_) * inv_ % step_
                     : Int((Int128(need / g_) * Int128(inv_)) %
                           Int128(step_));
        if (uint64_t(j0) >= n)
            return out;
        out.hits = (n - 1 - uint64_t(j0)) / uint64_t(step_) + 1;
        out.jLast = uint64_t(j0) + (out.hits - 1) * uint64_t(step_);
        return out;
    }

  private:
    Int m_ = 1, d_ = 0, g_ = 1, step_ = 1, inv_ = 0;
};

/** One-shot form of CongruentStepper::count. */
inline CongruentCount
countCongruent(Int a, Int delta, uint64_t count, Int m, Int target)
{
    return CongruentStepper(delta, m).count(a, count, target);
}

} // namespace anc::numa

#endif // ANC_NUMA_CONGRUENT_H
