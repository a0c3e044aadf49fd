/**
 * @file
 * Unit tests for checked integer arithmetic and number-theory helpers,
 * and for the 128-bit helpers against their definitions.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "ratmath/fault.h"
#include "ratmath/int_util.h"

namespace anc {
namespace {

constexpr Int kMax = std::numeric_limits<Int>::max();
constexpr Int kMin = std::numeric_limits<Int>::min();

TEST(CheckedArith, AddBasic)
{
    EXPECT_EQ(checkedAdd(2, 3), 5);
    EXPECT_EQ(checkedAdd(-2, 3), 1);
    EXPECT_EQ(checkedAdd(kMax - 1, 1), kMax);
}

TEST(CheckedArith, AddOverflowThrows)
{
    EXPECT_THROW(checkedAdd(kMax, 1), OverflowError);
    EXPECT_THROW(checkedAdd(kMin, -1), OverflowError);
}

TEST(CheckedArith, SubBasic)
{
    EXPECT_EQ(checkedSub(2, 3), -1);
    EXPECT_EQ(checkedSub(kMin + 1, 1), kMin);
}

TEST(CheckedArith, SubOverflowThrows)
{
    EXPECT_THROW(checkedSub(kMin, 1), OverflowError);
    EXPECT_THROW(checkedSub(kMax, -1), OverflowError);
}

TEST(CheckedArith, MulBasic)
{
    EXPECT_EQ(checkedMul(6, 7), 42);
    EXPECT_EQ(checkedMul(-6, 7), -42);
    EXPECT_EQ(checkedMul(0, kMax), 0);
}

TEST(CheckedArith, MulOverflowThrows)
{
    EXPECT_THROW(checkedMul(kMax, 2), OverflowError);
    EXPECT_THROW(checkedMul(kMin, -1), OverflowError);
}

TEST(CheckedArith, NegBasic)
{
    EXPECT_EQ(checkedNeg(5), -5);
    EXPECT_EQ(checkedNeg(-5), 5);
    EXPECT_EQ(checkedNeg(0), 0);
    EXPECT_THROW(checkedNeg(kMin), OverflowError);
}

TEST(CheckedArith, Narrow128)
{
    EXPECT_EQ(narrow128(Int128(kMax)), kMax);
    EXPECT_EQ(narrow128(Int128(kMin)), kMin);
    EXPECT_THROW(narrow128(Int128(kMax) + 1), OverflowError);
    EXPECT_THROW(narrow128(Int128(kMin) - 1), OverflowError);
}

TEST(Gcd, Basics)
{
    EXPECT_EQ(gcdInt(12, 18), 6);
    EXPECT_EQ(gcdInt(-12, 18), 6);
    EXPECT_EQ(gcdInt(12, -18), 6);
    EXPECT_EQ(gcdInt(-12, -18), 6);
    EXPECT_EQ(gcdInt(0, 0), 0);
    EXPECT_EQ(gcdInt(0, 7), 7);
    EXPECT_EQ(gcdInt(7, 0), 7);
    EXPECT_EQ(gcdInt(1, kMax), 1);
}

TEST(Gcd, Int64MinDoesNotOverflow)
{
    // |INT64_MIN| is not representable; gcd must still work.
    EXPECT_EQ(gcdInt(kMin, kMin + 1), 1);
    EXPECT_THROW(gcdInt(kMin, 0), OverflowError);
    EXPECT_EQ(gcdInt(kMin, 2), 2);
}

TEST(Lcm, Basics)
{
    EXPECT_EQ(lcmInt(4, 6), 12);
    EXPECT_EQ(lcmInt(-4, 6), 12);
    EXPECT_EQ(lcmInt(0, 6), 0);
    EXPECT_EQ(lcmInt(1, 1), 1);
}

TEST(ExtGcdTest, BezoutIdentityHolds)
{
    for (Int a : {0LL, 1LL, -1LL, 12LL, -18LL, 240LL, 46LL, -37LL}) {
        for (Int b : {0LL, 1LL, -1LL, 18LL, -12LL, 46LL, 240LL, 13LL}) {
            ExtGcd e = extGcd(a, b);
            EXPECT_EQ(e.g, gcdInt(a, b)) << a << "," << b;
            EXPECT_EQ(a * e.x + b * e.y, e.g) << a << "," << b;
        }
    }
}

TEST(FloorCeilDiv, AllSignCombinations)
{
    EXPECT_EQ(floorDiv(7, 2), 3);
    EXPECT_EQ(floorDiv(-7, 2), -4);
    EXPECT_EQ(floorDiv(7, -2), -4);
    EXPECT_EQ(floorDiv(-7, -2), 3);
    EXPECT_EQ(floorDiv(6, 2), 3);
    EXPECT_EQ(floorDiv(-6, 2), -3);

    EXPECT_EQ(ceilDiv(7, 2), 4);
    EXPECT_EQ(ceilDiv(-7, 2), -3);
    EXPECT_EQ(ceilDiv(7, -2), -3);
    EXPECT_EQ(ceilDiv(-7, -2), 4);
    EXPECT_EQ(ceilDiv(6, 2), 3);
    EXPECT_EQ(ceilDiv(-6, 2), -3);
}

TEST(FloorCeilDiv, ZeroDivisorThrows)
{
    EXPECT_THROW(floorDiv(1, 0), MathError);
    EXPECT_THROW(ceilDiv(1, 0), MathError);
    EXPECT_THROW(euclidMod(1, 0), MathError);
}

TEST(EuclidModTest, AlwaysNonNegative)
{
    EXPECT_EQ(euclidMod(7, 3), 1);
    EXPECT_EQ(euclidMod(-7, 3), 2);
    EXPECT_EQ(euclidMod(7, -3), 1);
    EXPECT_EQ(euclidMod(-7, -3), 2);
    EXPECT_EQ(euclidMod(0, 5), 0);
    for (Int a = -20; a <= 20; ++a) {
        for (Int b : {1LL, 2LL, 3LL, 5LL, -4LL}) {
            Int r = euclidMod(a, b);
            EXPECT_GE(r, 0);
            EXPECT_LT(r, b < 0 ? -b : b);
            EXPECT_EQ(euclidMod(a - r, b), 0);
        }
    }
}

TEST(ExactDivTest, ExactAndInexact)
{
    EXPECT_EQ(exactDiv(12, 3), 4);
    EXPECT_EQ(exactDiv(-12, 3), -4);
    EXPECT_THROW(exactDiv(7, 2), InternalError);
    EXPECT_THROW(exactDiv(7, 0), MathError);
}

TEST(FloorCeilDiv, ExhaustiveSmallRangePropertyCheck)
{
    // The mathematical definitions, for every sign combination:
    // f <= a/b < f+1 and c-1 < a/b <= c as exact rationals --
    // expressed through remainders so no inequality direction depends
    // on the sign of b -- and euclidMod in [0, |b|).
    for (Int a = -8; a <= 8; ++a) {
        for (Int b = -8; b <= 8; ++b) {
            if (b == 0)
                continue;
            Int f = floorDiv(a, b);
            Int rf = a - f * b; // floor remainder carries b's sign
            if (b > 0) {
                EXPECT_GE(rf, 0) << a << "/" << b;
                EXPECT_LT(rf, b) << a << "/" << b;
            } else {
                EXPECT_LE(rf, 0) << a << "/" << b;
                EXPECT_GT(rf, b) << a << "/" << b;
            }

            Int c = ceilDiv(a, b);
            Int rc = a - c * b; // ceil remainder carries -b's sign
            if (b > 0) {
                EXPECT_LE(rc, 0) << a << "/" << b;
                EXPECT_GT(rc, -b) << a << "/" << b;
            } else {
                EXPECT_GE(rc, 0) << a << "/" << b;
                EXPECT_LT(rc, -b) << a << "/" << b;
            }

            // ceil and floor agree exactly on exact divisions and
            // differ by one everywhere else.
            EXPECT_EQ(c - f, a % b == 0 ? 0 : 1) << a << "/" << b;

            Int m = euclidMod(a, b);
            EXPECT_GE(m, 0) << a << " mod " << b;
            EXPECT_LT(m, b < 0 ? -b : b) << a << " mod " << b;
            EXPECT_EQ((a - m) % b, 0) << a << " mod " << b;
        }
    }
}

TEST(FloorCeilDiv, Int64MinByMinusOneThrowsInsteadOfTrapping)
{
    // kMin / -1 is the one 64-bit quotient that does not exist;
    // hardware division traps on it, so the helpers must reject it
    // through checked negation rather than reach the divide.
    EXPECT_THROW(floorDiv(kMin, -1), OverflowError);
    EXPECT_THROW(ceilDiv(kMin, -1), OverflowError);
    EXPECT_THROW(exactDiv(kMin, -1), OverflowError);
    EXPECT_EQ(euclidMod(kMin, -1), 0);

    // One away from the singularity everything is exact.
    EXPECT_EQ(floorDiv(kMin + 1, -1), kMax);
    EXPECT_EQ(ceilDiv(kMin + 1, -1), kMax);
    EXPECT_EQ(exactDiv(kMin + 1, -1), kMax);
    EXPECT_EQ(floorDiv(kMin, 1), kMin);
    EXPECT_EQ(ceilDiv(kMin, 1), kMin);
}

TEST(EuclidModTest, Int64MinDivisorDoesNotOverflow)
{
    // |kMin| is unrepresentable: the adjustment must not form it.
    EXPECT_EQ(euclidMod(-7, kMin), kMax - 6); // -7 + 2^63
    EXPECT_EQ(euclidMod(7, kMin), 7);
    EXPECT_EQ(euclidMod(0, kMin), 0);
    EXPECT_EQ(euclidMod(kMin, kMin), 0);
}

// The 128-bit helpers, on operands at and around the 64-bit boundary,
// where they switch between 64-bit and 128-bit division.

constexpr Int128 kTwo63 = Int128(1) << 63, kTwo64 = Int128(1) << 64;

std::vector<Int128>
boundaryValues()
{
    std::vector<Int128> out;
    for (Int128 v : {Int128(0), Int128(1), Int128(2), Int128(7), Int128(12),
                     Int128(kMax) - 1, Int128(kMax), kTwo63, kTwo63 + 1,
                     kTwo64 - 1, kTwo64, kTwo64 * 3, (Int128(1) << 100) + 3}) {
        out.push_back(v);
        out.push_back(-v);
    }
    out.push_back(Int128(kMin) - 1);
    return out;
}

/** floor(a / b) and ceil(a / b), b > 0, straight from the definition:
 * the truncated quotient, moved by one where it lies on the wrong side. */
Int128
floorRef(Int128 a, Int128 b)
{
    Int128 q = a / b;
    return q * b > a ? q - 1 : q;
}

Int128
ceilRef(Int128 a, Int128 b)
{
    Int128 q = a / b;
    return q * b < a ? q + 1 : q;
}

Int128
gcdRef(Int128 a, Int128 b)
{
    a = a < 0 ? -a : a;
    b = b < 0 ? -b : b;
    while (b != 0) {
        Int128 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

TEST(Int128Helpers, FloorCeilAndModMatchTheDefinition)
{
    for (Int128 a : boundaryValues()) {
        for (Int128 b : boundaryValues()) {
            if (b <= 0)
                continue;
            EXPECT_EQ(floorDiv128(a, b), floorRef(a, b));
            EXPECT_EQ(ceilDiv128(a, b), ceilRef(a, b));
            if (b <= kMax) {
                Int128 r = a % b;
                EXPECT_EQ(mod128(a, Int(b)), r < 0 ? r + b : r);
            }
        }
    }
    // Divisor 1 and negative operands.
    EXPECT_EQ(floorDiv128(Int128(kMin) - 5, 1), Int128(kMin) - 5);
    EXPECT_EQ(ceilDiv128(Int128(kMin) - 5, 1), Int128(kMin) - 5);
    EXPECT_EQ(floorDiv128(-7, 2), -4);
    EXPECT_EQ(ceilDiv128(-7, 2), -3);
    EXPECT_EQ(floorDiv128(kMin, kMax), -2);
    EXPECT_EQ(ceilDiv128(kMin, kMax), -1);
    EXPECT_EQ(floorDiv128(-kTwo64, kTwo63), -2);
    EXPECT_EQ(ceilDiv128(-kTwo64 - 1, kTwo63), -2);
    EXPECT_EQ(mod128(kMin, 3), 1); // -2^63 == 1 (mod 3)
    EXPECT_EQ(mod128(-kTwo64, kMax), kMax - 2); // 2^63 == 1 (mod kMax)
    EXPECT_EQ(mod128(-1, 1), 0);
}

TEST(Int128Helpers, GcdMatchesEuclid)
{
    EXPECT_EQ(gcd128(0, 0), 0);
    EXPECT_EQ(gcd128(0, -5), 5);
    EXPECT_EQ(gcd128(kMin, 0), kTwo63); // past 64 bits once negated
    EXPECT_EQ(gcd128(kMin, kMin), kTwo63);
    EXPECT_EQ(gcd128(kMax, kMax - 1), 1);
    EXPECT_EQ(gcd128(kTwo64, kTwo63 * 3), kTwo63);
    EXPECT_EQ(gcd128(12, -18), 6);
    for (Int128 a : boundaryValues())
        for (Int128 b : boundaryValues())
            EXPECT_EQ(gcd128(a, b), gcdRef(a, b));
}

TEST(Int128Helpers, FitsAndMultiplyAtTheBoundaries)
{
    EXPECT_TRUE(fitsInt(kMax));
    EXPECT_TRUE(fitsInt(kMin));
    EXPECT_FALSE(fitsInt(kTwo63));
    EXPECT_FALSE(fitsInt(Int128(kMin) - 1));
    Int128 r = 0;
    EXPECT_FALSE(mulOverflow128(kMin, kMin, &r)); // 2^126, the 64-bit path
    EXPECT_EQ(r, Int128(1) << 126);
    EXPECT_FALSE(mulOverflow128(kTwo64, Int128(1) << 62, &r));
    EXPECT_EQ(r, Int128(1) << 126);
    EXPECT_FALSE(mulOverflow128(-kTwo64, kTwo63, &r)); // -2^127 fits
    EXPECT_EQ(r, -kTwo64 * kTwo63);
    EXPECT_TRUE(mulOverflow128(kTwo64, kTwo63, &r)); // 2^127 does not
    EXPECT_TRUE(mulOverflow128(kTwo64, kTwo64, &r));
    EXPECT_FALSE(mulOverflow128(kTwo64 * 3, -7, &r));
    EXPECT_EQ(r, -kTwo64 * 21);
}

TEST(Int128Helpers, TakeNoFaultCheckpoint)
{
    // A checkpoint here would move every fault index inside a
    // simulation, whose geometry these helpers compute.
    fault::startCounting();
    Int128 r;
    Int128 sink = fitsInt(kTwo63) + gcd128(kTwo64, 6) +
                  floorDiv128(-kTwo64, 3) + ceilDiv128(kTwo64, 3) +
                  mod128(-kTwo64, 7) + mulOverflow128(kTwo64, 3, &r);
    EXPECT_EQ(fault::opCount(), 0u);
    fault::disarm();
    EXPECT_NE(sink, 0);
}

} // namespace
} // namespace anc
