#include "ratmath/int_util.h"

#include <limits>

#include "ratmath/fault.h"

namespace anc {

namespace {

constexpr Int kMax = std::numeric_limits<Int>::max();
constexpr Int kMin = std::numeric_limits<Int>::min();

} // namespace

namespace detail {

void
throwOverflow(const char *what)
{
    throw OverflowError(what);
}

void
throwMathError(const char *what)
{
    throw MathError(what);
}

} // namespace detail

Int
checkedNeg(Int a)
{
    fault::detail::checkpoint();
    if (a == kMin)
        throw OverflowError("integer overflow in negation");
    return -a;
}

Int
gcdInt(Int a, Int b)
{
    fault::detail::checkpoint();
    // Work in unsigned space so INT64_MIN does not overflow on negation.
    std::uint64_t ua = a < 0 ? 0ull - std::uint64_t(a) : std::uint64_t(a);
    std::uint64_t ub = b < 0 ? 0ull - std::uint64_t(b) : std::uint64_t(b);
    while (ub != 0) {
        std::uint64_t t = ua % ub;
        ua = ub;
        ub = t;
    }
    if (ua > std::uint64_t(kMax))
        throw OverflowError("gcd does not fit in 64 bits");
    return Int(ua);
}

Int
lcmInt(Int a, Int b)
{
    if (a == 0 || b == 0)
        return 0;
    Int g = gcdInt(a, b);
    Int q = a / g;
    if (q < 0)
        q = checkedNeg(q);
    Int bb = b < 0 ? checkedNeg(b) : b;
    return checkedMul(q, bb);
}

ExtGcd
extGcd(Int a, Int b)
{
    // Iterative extended Euclid; coefficients stay within 64 bits because
    // they are bounded by max(|a|, |b|).
    Int old_r = a, r = b;
    Int old_s = 1, s = 0;
    Int old_t = 0, t = 1;
    while (r != 0) {
        Int q = old_r / r;
        Int tmp = checkedSub(old_r, checkedMul(q, r));
        old_r = r;
        r = tmp;
        tmp = checkedSub(old_s, checkedMul(q, s));
        old_s = s;
        s = tmp;
        tmp = checkedSub(old_t, checkedMul(q, t));
        old_t = t;
        t = tmp;
    }
    if (old_r < 0) {
        old_r = checkedNeg(old_r);
        old_s = checkedNeg(old_s);
        old_t = checkedNeg(old_t);
    }
    return {old_r, old_s, old_t};
}

Int
floorDiv(Int a, Int b)
{
    fault::detail::checkpoint();
    if (b == 0)
        throw MathError("floorDiv by zero");
    // kMin / -1 is the one quotient that overflows (and hardware
    // division traps on it before any sign fixup could run).
    if (b == -1)
        return checkedNeg(a);
    Int q = a / b;
    Int r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        --q;
    return q;
}

Int
ceilDiv(Int a, Int b)
{
    fault::detail::checkpoint();
    if (b == 0)
        throw MathError("ceilDiv by zero");
    if (b == -1)
        return checkedNeg(a); // see floorDiv
    Int q = a / b;
    Int r = a % b;
    if (r != 0 && ((r < 0) == (b < 0)))
        ++q;
    return q;
}

Int
exactDiv(Int a, Int b)
{
    fault::detail::checkpoint();
    if (b == 0)
        throw MathError("exactDiv by zero");
    if (b == -1)
        return checkedNeg(a); // see floorDiv
    if (a % b != 0)
        throw InternalError("exactDiv: not divisible");
    return a / b;
}

} // namespace anc
