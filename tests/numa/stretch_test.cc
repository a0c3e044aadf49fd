/**
 * @file
 * The stretch sampler (numa/stretch.h) against walking every position:
 * fake walks whose counters change by polynomials of degree 0 to 2 in
 * the position, stretches at and just past the length where sampling
 * starts, sums at the 64-bit limit and past it, and a counter that
 * falls; and the point evaluation across processors (evaluateStretch)
 * against the same polynomials, at and past the 64-bit limit and on a
 * falling counter.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "numa/stretch.h"
#include "ratmath/int_util.h"

namespace anc::numa {
namespace {

/** A walk whose counter f changes at position j by
 * c[f][0] + c[f][1] * j + c[f][2] * j^2. */
struct FakeWalk
{
    std::vector<std::array<Int, 3>> coeffs;
    std::vector<uint64_t> state;
    std::vector<uint64_t> walked; //!< positions, in walk order

    explicit FakeWalk(std::vector<std::array<Int, 3>> c)
        : coeffs(std::move(c)), state(coeffs.size(), 0)
    {}

    void
    walk(uint64_t j)
    {
        walked.push_back(j);
        const Int x = Int(j);
        for (size_t f = 0; f < state.size(); ++f)
            state[f] += uint64_t(coeffs[f][0] + coeffs[f][1] * x +
                                 coeffs[f][2] * x * x);
    }

    void
    charge(const Stretch &s)
    {
        std::vector<uint64_t> scratch;
        chargeStretch(
            s, state.size(), scratch, [&](uint64_t j) { walk(j); },
            [&](uint64_t *to) { std::copy(state.begin(), state.end(), to); },
            [&](const uint64_t *from) {
                std::copy(from, from + state.size(), state.begin());
            });
    }
};

/** Counters of every degree up to `degree`, rising with the position. */
std::vector<std::array<Int, 3>>
polynomials(size_t degree)
{
    std::vector<std::array<Int, 3>> out = {{0, 0, 0}, {3, 0, 0}};
    if (degree >= 1)
        out.push_back({1, 2, 0});
    if (degree >= 2) {
        out.push_back({5, 0, 1});
        out.push_back({0, 7, 3});
    }
    return out;
}

TEST(StretchSampler, EqualsTheWalkAndWalksOnlyItsSamples)
{
    for (size_t degree = 0; degree <= kMaxStretchDegree; ++degree) {
        for (uint64_t lead : {0, 1}) {
            for (bool last : {false, true}) {
                // Sampling starts past lead + samples + last positions.
                const uint64_t threshold = lead + degree + 1 + last;
                for (uint64_t len : {threshold - 1, threshold,
                                     threshold + 1, threshold + 2,
                                     uint64_t(1000)}) {
                    const Stretch s{5, 5 + len, degree, lead, last};
                    FakeWalk sampled(polynomials(degree));
                    sampled.charge(s);
                    FakeWalk all(polynomials(degree));
                    for (uint64_t j = s.first; j < s.end; ++j)
                        all.walk(j);
                    const std::string what =
                        "degree " + std::to_string(degree) + " lead " +
                        std::to_string(lead) + " last " +
                        std::to_string(last) + " len " +
                        std::to_string(len);
                    EXPECT_EQ(sampled.state, all.state) << what;
                    if (len <= threshold) {
                        EXPECT_EQ(sampled.walked, all.walked) << what;
                        continue;
                    }
                    std::vector<uint64_t> want;
                    for (uint64_t j = 0; j < lead + degree + 1; ++j)
                        want.push_back(s.first + j);
                    if (last)
                        want.push_back(s.end - 1);
                    EXPECT_EQ(sampled.walked, want) << what;
                }
            }
        }
    }
}

TEST(StretchSampler, SumsUpToTheLastUint64AndThrowsPastIt)
{
    // 5 * 3689348814741910323 == 2^64 - 1.
    const Int step = 3689348814741910323;
    FakeWalk fits({{step, 0, 0}});
    fits.charge({0, 5, 0, 0, false});
    EXPECT_EQ(fits.state[0], UINT64_MAX);
    EXPECT_EQ(fits.walked.size(), 1u);

    FakeWalk past({{step, 0, 0}});
    try {
        past.charge({0, 6, 0, 0, false});
        ADD_FAILURE() << "a sum past 2^64 - 1 was charged";
    } catch (const LimitError &e) {
        EXPECT_STREQ(e.what(), "simulator counter exceeds 2^64-1");
    }
}

TEST(StretchSampler, BinomialsPastOneHundredTwentyEightBitsThrowTheLimit)
{
    // C(2^62, 3) leaves 128 bits: a degree-2 counter cannot be summed.
    FakeWalk w({{0, 0, 1}});
    EXPECT_THROW(w.charge({0, uint64_t(1) << 62, 2, 0, false}), LimitError);
    // A counter that does not move needs no coefficient.
    FakeWalk still({{0, 0, 0}, {0, 0, 0}});
    still.charge({0, uint64_t(1) << 62, 2, 0, false});
    EXPECT_EQ(still.state, (std::vector<uint64_t>{0, 0}));
}

TEST(StretchSampler, AFallingCounterIsAnInternalError)
{
    FakeWalk w({{-1, 0, 0}});
    w.state[0] = 10;
    try {
        w.charge({0, 100, 0, 0, false});
        ADD_FAILURE() << "a counter below zero was charged";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("stretch charge below zero"),
                  std::string::npos)
            << e.what();
    }
}

/** Counter f of point t: c[f][0] + c[f][1] * t + c[f][2] * t^2. */
std::vector<uint64_t>
pointState(const std::vector<std::array<Int, 3>> &coeffs, uint64_t t)
{
    std::vector<uint64_t> out;
    const Int x = Int(t);
    for (const auto &c : coeffs)
        out.push_back(uint64_t(c[0] + c[1] * x + c[2] * x * x));
    return out;
}

/** evaluateStretch of the polynomials, sampled at points 0..degree. */
std::vector<uint64_t>
evaluated(const std::vector<std::array<Int, 3>> &coeffs, size_t degree,
          uint64_t at)
{
    std::vector<uint64_t> states;
    for (uint64_t t = 0; t <= degree; ++t) {
        std::vector<uint64_t> s = pointState(coeffs, t);
        states.insert(states.end(), s.begin(), s.end());
    }
    std::vector<uint64_t> out(coeffs.size());
    evaluateStretch(states.data(), degree + 1, coeffs.size(), at, 1,
                    out.data());
    return out;
}

TEST(StretchEvaluation, EqualsThePolynomialAtEveryPoint)
{
    for (size_t degree = 0; degree <= kMaxStretchDegree; ++degree) {
        const std::vector<std::array<Int, 3>> coeffs = {
            {7, degree >= 1 ? 3 : 0, degree >= 2 ? 2 : 0},
            {0, 0, 0},
            {1000, degree >= 1 ? -1 : 0, degree >= 2 ? 1 : 0}};
        for (uint64_t at : {0, 1, 2, 3, 4, 17, 999})
            EXPECT_EQ(evaluated(coeffs, degree, at), pointState(coeffs, at))
                << "degree " << degree << " at " << at;
        // A run of points at once.
        std::vector<uint64_t> states, run(5 * coeffs.size());
        for (uint64_t t = 0; t <= degree; ++t) {
            std::vector<uint64_t> st = pointState(coeffs, t);
            states.insert(states.end(), st.begin(), st.end());
        }
        evaluateStretch(states.data(), degree + 1, coeffs.size(), 40, 5,
                        run.data());
        for (uint64_t i = 0; i < 5; ++i)
            EXPECT_EQ(std::vector<uint64_t>(
                          run.begin() + i * coeffs.size(),
                          run.begin() + (i + 1) * coeffs.size()),
                      pointState(coeffs, 40 + i))
                << "degree " << degree << " at " << 40 + i;
    }
}

TEST(StretchEvaluation, ReachesTheLastUint64AndThrowsPastIt)
{
    // 5 * 3689348814741910323 == 2^64 - 1.
    const std::vector<std::array<Int, 3>> line = {{0, 3689348814741910323, 0}};
    EXPECT_EQ(evaluated(line, 1, 5)[0], UINT64_MAX);
    try {
        evaluated(line, 1, 6);
        ADD_FAILURE() << "a value past 2^64 - 1 was evaluated";
    } catch (const LimitError &e) {
        EXPECT_STREQ(e.what(), "simulator counter exceeds 2^64-1");
    }
    // C(2^64 - 1, 2) still fits 128 bits; the product does not.
    EXPECT_THROW(evaluated({{0, 0, 1}}, 2, UINT64_MAX), LimitError);
}

TEST(StretchEvaluation, AFallingCounterIsAnInternalError)
{
    try {
        evaluated({{10, -1, 0}}, 1, 11);
        ADD_FAILURE() << "a counter below zero was evaluated";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("stretch charge below zero"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(evaluated({{10, -1, 0}}, 1, 10)[0], 0u);
}

} // namespace
} // namespace anc::numa
