/**
 * @file
 * The closed-form counting kernels of numa/congruent.h against brute
 * force: floorSum on every small operand combination, at moduli up to
 * the processor cap, and past 128 bits; CongruentStepper::sumHits
 * against counting each run on its own; steppers built once against
 * steppers built per call; the reciprocal division against the
 * hardware's.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

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
            // The run-start steppers, built once as the simulator's
            // owner tables hold them.
            const CongruentStepper whole(a1, m), mod_g(a1, stepper.gcd());
            EXPECT_TRUE(stepper.sumHits(a0, a1, n, c0, c1, target, whole,
                                        mod_g) == want)
                << "m=" << m << " delta=" << delta << " a0=" << a0
                << " a1=" << a1 << " c0=" << c0 << " c1=" << c1
                << " n=" << n << " target=" << target;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 12u * 300u);
}

TEST(CongruentStepper, PrebuiltStepperCountsLikeOneBuiltPerCall)
{
    // One stepper per (delta, m), reused over every start, length and
    // target, against a fresh one per call and against brute force.
    uint64_t checked = 0;
    for (Int m : {1, 2, 3, 4, 6, 12, 13}) {
        for (Int delta = -2 * m - 1; delta <= 2 * m + 1; ++delta) {
            const CongruentStepper stepper(delta, m);
            for (Int a = -m - 2; a <= m + 2; ++a) {
                for (uint64_t n = 0; n <= uint64_t(2 * m + 3); ++n) {
                    // Brute force for every target in one pass.
                    std::vector<uint64_t> hits(size_t(m), 0),
                        last(size_t(m), 0);
                    for (uint64_t j = 0; j < n; ++j) {
                        Int t = euclidMod(a + Int(j) * delta, m);
                        ++hits[size_t(t)];
                        last[size_t(t)] = j;
                    }
                    for (Int target = 0; target < m; ++target) {
                        CongruentCount got = stepper.count(a, n, target);
                        CongruentCount fresh =
                            countCongruent(a, delta, n, m, target);
                        const size_t t = size_t(target);
                        ASSERT_EQ(got.hits, hits[t])
                            << "m=" << m << " delta=" << delta << " a=" << a
                            << " n=" << n << " target=" << target;
                        ASSERT_EQ(fresh.hits, hits[t]);
                        if (hits[t] > 0) {
                            ASSERT_EQ(got.jLast, last[t]);
                            ASSERT_EQ(fresh.jLast, last[t]);
                        }
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 100000u);
}

/** The hardware's quotient and remainder next to the reciprocal's. */
void
expectDividesLikeHardware(Int n, uint64_t d)
{
    const Reciprocal r(d);
    if (d <= uint64_t(INT64_MAX)) {
        const Int sd = Int(d);
        ASSERT_EQ(r.div(n), n / sd) << n << " / " << d;
        ASSERT_EQ(r.mod(n), n % sd) << n << " % " << d;
        ASSERT_EQ(r.floorMod(n), euclidMod(n, sd)) << n << " mod " << d;
    }
    const uint64_t u = uint64_t(n);
    ASSERT_EQ(r.div(u), u / d) << u << " / " << d;
    ASSERT_EQ(r.mod(u), u % d) << u << " % " << d;
}

TEST(Reciprocal, MatchesHardwareDivisionOnEveryModulusTo4096)
{
    std::vector<Int> numerators = {0, 1, -1, INT64_MIN, INT64_MAX,
                                   INT64_MIN + 1, INT64_MAX - 1};
    for (int k = 1; k < 63; ++k) {
        const Int p = Int(1) << k;
        for (Int v : {p - 1, p, p + 1})
            for (Int sign : {1, -1})
                numerators.push_back(sign * v);
    }
    for (uint64_t d = 1; d <= 4096; ++d)
        for (Int n : numerators)
            expectDividesLikeHardware(n, d);
    // 2^k +- 1 as unsigned numerators past INT64_MAX.
    for (uint64_t d = 1; d <= 4096; ++d) {
        const Reciprocal r(d);
        for (uint64_t u : {uint64_t(1) << 63, (uint64_t(1) << 63) + 1,
                           UINT64_MAX - 1, UINT64_MAX}) {
            ASSERT_EQ(r.div(u), u / d) << u << " / " << d;
            ASSERT_EQ(r.mod(u), u % d) << u << " % " << d;
        }
    }
}

TEST(Reciprocal, MatchesHardwareDivisionOnRandomPairs)
{
    // A million random numerators against moduli up to 2^40, the
    // processor cap, spread over every bit length.
    std::mt19937_64 rng(2026);
    for (int i = 0; i < 1000000; ++i) {
        const uint64_t bits = 1 + rng() % 40;
        uint64_t d = (rng() & ((uint64_t(1) << bits) - 1)) | 1;
        if (i % 2)
            d = 1 + rng() % (uint64_t(1) << bits);
        expectDividesLikeHardware(Int(rng()), d);
    }
}

} // namespace
} // namespace anc::numa
