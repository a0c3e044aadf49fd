/**
 * @file
 * Deterministic fault injection for the checked-arithmetic layer.
 *
 * Every checked operation in ratmath (checkedAdd, checkedMul, floorDiv,
 * ...) passes through an injection point. Tests arm the injector with a
 * schedule of operation indices; when the running operation count hits a
 * scheduled index, the operation throws OverflowError (or MathError)
 * instead of computing. Because the compiler pipeline is deterministic,
 * arming index N always faults the same operation, which lets the test
 * suite drive every recovery boundary of core::compileResilient() from
 * every arithmetic site reachable from a given program.
 *
 * All state is thread_local: arming affects only the calling thread, so
 * the simulator's host thread pool is never perturbed, and concurrent
 * tests cannot interfere. When the injector is disarmed (the default)
 * the only cost on the checked-arithmetic hot path is one thread-local
 * flag test.
 */

#ifndef ANC_RATMATH_FAULT_H
#define ANC_RATMATH_FAULT_H

#include <cstdint>
#include <vector>

namespace anc::fault {

/** Which error an injected fault raises. */
enum class Kind
{
    Overflow, //!< OverflowError, as if 64-bit arithmetic overflowed
    Math,     //!< MathError, as if a division by zero were attempted
};

/**
 * Arm the injector on this thread: the nth checked operation from now
 * (1-based) throws. Resets the operation counter.
 */
void armAt(std::uint64_t nth, Kind kind = Kind::Overflow);

/**
 * Arm with a schedule of 1-based operation indices (ascending); each
 * listed operation throws in turn, so a multi-element schedule can fail
 * several recovery tiers of one compilation. Resets the counter.
 */
void arm(std::vector<std::uint64_t> indices, Kind kind = Kind::Overflow);

/** Count checked operations without throwing. Resets the counter. */
void startCounting();

/** Disarm and stop counting on this thread. */
void disarm();

/** True when a fault is still pending on this thread. */
bool armed();

/** Checked operations observed since the last arm/startCounting. */
std::uint64_t opCount();

/** RAII arming: disarms on scope exit even if the fault was not hit. */
struct ScopedFault
{
    explicit ScopedFault(std::uint64_t nth, Kind kind = Kind::Overflow)
    {
        armAt(nth, kind);
    }
    explicit ScopedFault(std::vector<std::uint64_t> indices,
                         Kind kind = Kind::Overflow)
    {
        arm(std::move(indices), kind);
    }
    ~ScopedFault() { disarm(); }
    ScopedFault(const ScopedFault &) = delete;
    ScopedFault &operator=(const ScopedFault &) = delete;
};

namespace detail {

/** Set while counting or armed; checked ops call point() only then. */
extern thread_local bool active;

} // namespace detail

/**
 * RAII pause: checked operations on this thread neither count nor
 * fault while it lives, and the schedule resumes where it stopped. For
 * redoing work that the schedule already saw once.
 */
struct ScopedPause
{
    ScopedPause() : was_(detail::active) { detail::active = false; }
    ~ScopedPause() { detail::active = was_; }
    ScopedPause(const ScopedPause &) = delete;
    ScopedPause &operator=(const ScopedPause &) = delete;

  private:
    bool was_;
};

namespace detail {

/** Count one operation and throw if its index is scheduled. */
void point();

/** The hook every checked operation executes. */
inline void
checkpoint()
{
    if (active)
        point();
}

} // namespace detail

} // namespace anc::fault

#endif // ANC_RATMATH_FAULT_H
