/**
 * @file
 * Checked 64-bit integer arithmetic and number-theoretic helpers.
 *
 * All compiler mathematics in this library is exact. Every operation that
 * could overflow a 64-bit integer is checked (using 128-bit intermediates)
 * and raises OverflowError instead of wrapping, so loop transformations
 * are never silently incorrect.
 */

#ifndef ANC_RATMATH_INT_UTIL_H
#define ANC_RATMATH_INT_UTIL_H

#include <cstdint>

#include "ratmath/error.h"
#include "ratmath/fault.h"

namespace anc {

using Int = std::int64_t;
using Int128 = __int128;

namespace detail {

/** Cold throw paths of the inline helpers below, kept out of line so the
 * hot callers inline to a checkpoint, one flag test and a branch. */
[[noreturn]] void throwOverflow(const char *what);
[[noreturn]] void throwLimit(const char *what);
[[noreturn]] void throwMathError(const char *what);

} // namespace detail

/** Checked addition; throws OverflowError on 64-bit overflow. */
inline Int
checkedAdd(Int a, Int b)
{
    fault::detail::checkpoint();
    Int r;
    if (__builtin_add_overflow(a, b, &r)) [[unlikely]]
        detail::throwOverflow("integer overflow in addition");
    return r;
}

/** Checked subtraction; throws OverflowError on 64-bit overflow. */
inline Int
checkedSub(Int a, Int b)
{
    fault::detail::checkpoint();
    Int r;
    if (__builtin_sub_overflow(a, b, &r)) [[unlikely]]
        detail::throwOverflow("integer overflow in subtraction");
    return r;
}

/** Checked multiplication; throws OverflowError on 64-bit overflow. */
inline Int
checkedMul(Int a, Int b)
{
    fault::detail::checkpoint();
    Int r;
    if (__builtin_mul_overflow(a, b, &r)) [[unlikely]]
        detail::throwOverflow("integer overflow in multiplication");
    return r;
}

/** Checked negation; throws OverflowError for INT64_MIN. */
Int checkedNeg(Int a);

/** Narrow a 128-bit value to 64 bits; throws OverflowError if it does
 * not fit. */
inline Int
narrow128(Int128 v)
{
    fault::detail::checkpoint();
    if (v > Int128(INT64_MAX) || v < Int128(INT64_MIN)) [[unlikely]]
        detail::throwOverflow("128-bit value does not fit in 64 bits");
    return Int(v);
}

/** Non-negative greatest common divisor; gcd(0, 0) == 0. */
Int gcdInt(Int a, Int b);

/** Least common multiple (checked); lcm(0, x) == 0. */
Int lcmInt(Int a, Int b);

/**
 * Extended Euclid: returns g = gcd(a, b) >= 0 and Bezout coefficients
 * with a*x + b*y == g.
 */
struct ExtGcd
{
    Int g; //!< gcd(a, b), non-negative
    Int x; //!< coefficient of a
    Int y; //!< coefficient of b
};
ExtGcd extGcd(Int a, Int b);

/** Floor division: largest q with q*b <= a, for any operand signs.
 * Requires b != 0; throws OverflowError for the one unrepresentable
 * quotient, INT64_MIN / -1. */
Int floorDiv(Int a, Int b);

/** Ceiling division: smallest q with q*b >= a, for any operand signs.
 * Requires b != 0; throws OverflowError for INT64_MIN / -1. */
Int ceilDiv(Int a, Int b);

/** Euclidean remainder in [0, |b|), for any operand signs including
 * b == INT64_MIN. Requires b != 0. */
inline Int
euclidMod(Int a, Int b)
{
    fault::detail::checkpoint();
    if (b == 0) [[unlikely]]
        detail::throwMathError("euclidMod by zero");
    if (b == 1 || b == -1)
        return 0; // and INT64_MIN % -1 would trap in hardware
    Int r = a % b;
    // Adding |b| directly would overflow for b == INT64_MIN; subtracting
    // a negative b is the same adjustment without forming |b|.
    if (r < 0)
        r = b < 0 ? checkedSub(r, b) : checkedAdd(r, b);
    return r;
}

/** Exact division; throws InternalError if b does not divide a and
 * OverflowError for INT64_MIN / -1. */
Int exactDiv(Int a, Int b);

} // namespace anc

#endif // ANC_RATMATH_INT_UTIL_H
