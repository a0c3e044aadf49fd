/**
 * @file
 * The closed-form counting kernels of numa/congruent.h against brute
 * force: floorSum on every small operand combination, at moduli up to
 * the processor cap, and past 128 bits; CongruentStepper::sumHits
 * against counting each run on its own.
 */

#include <gtest/gtest.h>

#include <random>

#include "numa/congruent.h"

namespace anc::numa {
namespace {

Int128
floorDivBrute(Int128 a, Int128 m)
{
    Int128 q = a / m;
    return a % m != 0 && a < 0 ? q - 1 : q;
}

TEST(FloorSum, MatchesBruteForceOnSmallOperands)
{
    // Every |a|, |b| <= 40, 1 <= m <= 40 and n <= 60.
    uint64_t cases = 0;
    for (Int m = 1; m <= 40; ++m) {
        for (Int a = -40; a <= 40; ++a) {
            for (Int b = -40; b <= 40; ++b) {
                Int128 sum = 0;
                for (uint64_t n = 0; n <= 60; ++n) {
                    ASSERT_TRUE(floorSum(n, m, a, b) == sum)
                        << "n=" << n << " m=" << m << " a=" << a
                        << " b=" << b;
                    sum += floorDivBrute(Int128(a) * Int128(n) + b, m);
                    ++cases;
                }
            }
        }
    }
    EXPECT_EQ(cases, 40u * 81u * 81u * 61u);
}

TEST(FloorSum, MatchesBruteForceAtLargeModuli)
{
    // Moduli up to 2^40, the processor cap, with 64-bit operands.
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<Int> any(INT64_MIN / 4, INT64_MAX / 4);
    for (int trial = 0; trial < 400; ++trial) {
        Int m = Int(1) << (trial % 41);
        if (trial % 3 == 1)
            m -= trial % 7 + (m > 8 ? 1 : 0);
        if (m <= 0)
            m = 1;
        Int128 a = trial % 2 ? any(rng) : any(rng) % (4 * m + 1);
        Int128 b = any(rng);
        uint64_t n = uint64_t(trial * 37 % 2000);
        Int128 sum = 0;
        for (uint64_t t = 0; t < n; ++t)
            sum += floorDivBrute(a * Int128(t) + b, m);
        EXPECT_TRUE(floorSum(n, m, a, b) == sum)
            << "trial " << trial << " m=" << m << " n=" << n;
    }
    // One term per n only where the brute force cannot reach: n = 2^40
    // terms of floor((t + 0) / 1) sum to n(n - 1)/2.
    Int128 n = Int128(1) << 40;
    EXPECT_TRUE(floorSum(uint64_t(n), 1, 1, 0) == n * (n - 1) / 2);
    // floor((-t - 1) / m) summed over one full period of m values of t
    // per quotient: -(1 + 2 + ... ) checks the negative-slope reflection.
    Int m = Int(1) << 40;
    EXPECT_TRUE(floorSum(uint64_t(m), m, -1, -1) == -Int128(m));
    EXPECT_TRUE(floorSum(uint64_t(2 * m), m, -1, -1) ==
                -Int128(m) - 2 * Int128(m));
}

TEST(FloorSum, SumsPast128BitsThrow)
{
    // 2^63 terms of about 2^62 * t: the sum is near 2^187.
    EXPECT_THROW(floorSum(uint64_t(1) << 63, 1, Int128(1) << 62, 0),
                 OverflowError);
    EXPECT_THROW(floorSum(uint64_t(1) << 63, 1, -(Int128(1) << 62), 0),
                 OverflowError);
    EXPECT_THROW(floorSum(1, 0, 1, 1), InternalError);
}

TEST(CongruentStepper, SumHitsMatchesCountingEachRun)
{
    std::mt19937_64 rng(11);
    uint64_t checked = 0;
    for (Int m : {1, 2, 3, 4, 5, 6, 8, 12, 13, 32, 256, 4096}) {
        for (int trial = 0; trial < 300; ++trial) {
            std::uniform_int_distribution<Int> small(-3 * m - 5, 3 * m + 5);
            Int delta = small(rng), a0 = small(rng), a1 = small(rng);
            Int target = std::uniform_int_distribution<Int>(0, m - 1)(rng);
            uint64_t n = uint64_t(trial % 40);
            // Lengths c0 + c1 * s, all at least 1 over [0, n).
            Int c1 = std::uniform_int_distribution<Int>(-3, 3)(rng);
            Int c0 = 1 + std::uniform_int_distribution<Int>(0, 30)(rng) +
                     (c1 < 0 ? -c1 * Int(n) : 0);
            CongruentStepper stepper(delta, m);
            Int128 want = 0;
            for (uint64_t s = 0; s < n; ++s) {
                Int a = a0 + a1 * Int(s);
                uint64_t len = uint64_t(c0 + c1 * Int(s));
                want += stepper.count(a, len, target).hits;
            }
            EXPECT_TRUE(stepper.sumHits(a0, a1, n, c0, c1, target) == want)
                << "m=" << m << " delta=" << delta << " a0=" << a0
                << " a1=" << a1 << " c0=" << c0 << " c1=" << c1
                << " n=" << n << " target=" << target;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 12u * 300u);
}

} // namespace
} // namespace anc::numa
