#include "numa/stretch.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "ratmath/int_util.h"

namespace anc::numa {

namespace {

/** C(m, k), or nothing where it leaves 128 bits. */
std::optional<Int128>
choose(Int128 m, size_t k)
{
    Int128 r = 1;
    for (size_t i = 0; i < k; ++i) {
        if (__builtin_mul_overflow(r, m - Int128(i), &r))
            return std::nullopt;
        r /= Int128(i + 1);
    }
    return r;
}

/** Replace d[0, n) by its forward differences at 0: d[k] = D^k d[0]. */
void
differences(Int128 *d, size_t n)
{
    for (size_t k = 1; k < n; ++k)
        for (size_t i = n - 1; i >= k; --i)
            d[i] -= d[i - 1];
}

[[noreturn]] void
overflow()
{
    anc::detail::throwLimit("simulator counter exceeds 2^64-1");
}

/** total as a counter: LimitError past 2^64 - 1, InternalError below
 * zero. */
uint64_t
asCounter(Int128 total)
{
    if (total > Int128(UINT64_MAX))
        overflow();
    if (total < 0)
        throw InternalError("stretch charge below zero");
    return uint64_t(total);
}

/** base + sum_k coeff[k] * d[k] as a counter (asCounter). An unset
 * coefficient (past 128 bits) may only meet a zero difference. */
uint64_t
sumTerms(Int128 base, const Int128 *d, const std::optional<Int128> *coeff,
         size_t n)
{
    Int128 total = base, term;
    for (size_t k = 0; k < n; ++k) {
        if (d[k] == 0)
            continue;
        if (!coeff[k])
            overflow();
        if (fitsInt(d[k]) && fitsInt(*coeff[k]))
            term = d[k] * *coeff[k]; // below 2^126: no overflow
        else if (mulOverflow128(d[k], *coeff[k], &term))
            overflow();
        if (__builtin_add_overflow(total, term, &total))
            overflow();
    }
    return asCounter(total);
}

} // namespace

void
extrapolateStretch(uint64_t *states, size_t samples, size_t width,
                   uint64_t rest)
{
    if (samples > kMaxStretchDegree + 1)
        throw InternalError("stretch degree out of range");
    // coeff[k] = C(samples + rest, k + 1) - C(samples, k + 1); unset
    // where it leaves 128 bits, which only a nonzero difference reads.
    std::optional<Int128> coeff[kMaxStretchDegree + 1];
    for (size_t k = 0; k < samples; ++k) {
        std::optional<Int128> hi = choose(samples + rest, k + 1);
        if (hi)
            coeff[k] = *hi - *choose(samples, k + 1);
    }
    for (size_t f = 0; f < width; ++f) {
        Int128 d[kMaxStretchDegree + 1];
        for (size_t i = 0; i < samples; ++i)
            d[i] = Int128(states[(i + 1) * width + f]) -
                   states[i * width + f];
        differences(d, samples);
        states[f] = sumTerms(states[samples * width + f], d, coeff, samples);
    }
}

void
evaluateStretch(const uint64_t *states, size_t samples, size_t width,
                uint64_t from, uint64_t count, uint64_t *out,
                std::vector<Int128> &diffs)
{
    if (samples == 0 || samples > kMaxStretchDegree + 1)
        throw InternalError("stretch degree out of range");
    if (samples == 1) { // a constant
        for (uint64_t i = 0; i < count; ++i)
            std::copy(states, states + width, out + i * width);
        return;
    }
    // The value at t is sum_k C(t, k) D^k: one difference table for
    // every point.
    diffs.resize(samples * width);
    bool small = from + count - 1 < (uint64_t(1) << 31);
    for (size_t f = 0; f < width; ++f) {
        Int128 *d = &diffs[f * samples];
        for (size_t i = 0; i < samples; ++i)
            d[i] = states[i * width + f];
        differences(d, samples);
        for (size_t k = 0; k < samples; ++k)
            small = small && fitsInt(d[k]);
    }
    std::optional<Int128> coeff[kMaxStretchDegree + 1];
    auto at = [&](uint64_t t) {
        for (size_t k = 0; k < samples; ++k)
            coeff[k] = choose(t, k);
    };
    if (!small) {
        for (uint64_t i = 0; i < count; ++i) {
            at(from + i);
            for (size_t f = 0; f < width; ++f)
                out[i * width + f] =
                    sumTerms(0, &diffs[f * samples], coeff, samples);
        }
        return;
    }
    // Every term of every point stays below 2^124 (t < 2^31, each
    // difference within 64 bits), so no point's sum leaves 128 bits:
    // step from point to point instead. With e_k(t) the k-th difference
    // at t, e_k(t + 1) = e_k(t) + e_(k+1)(t), and e_k(from) is
    // sum_m C(from, m) D^(k+m).
    at(from);
    for (size_t f = 0; f < width; ++f) {
        Int128 *d = &diffs[f * samples];
        for (size_t k = 0; k < samples; ++k)
            for (size_t m = 1; k + m < samples; ++m)
                d[k] += *coeff[m] * d[k + m];
    }
    for (uint64_t i = 0; i < count; ++i) {
        for (size_t f = 0; f < width; ++f) {
            Int128 *d = &diffs[f * samples];
            out[i * width + f] = asCounter(d[0]);
            for (size_t k = 0; k + 1 < samples; ++k)
                d[k] += d[k + 1];
        }
    }
}

} // namespace anc::numa
