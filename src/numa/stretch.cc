#include "numa/stretch.h"

#include <optional>

#include "ratmath/int_util.h"

namespace anc::numa {

void
extrapolateStretch(uint64_t *states, size_t samples, size_t width,
                   uint64_t rest)
{
    if (samples > kMaxStretchDegree + 1)
        throw InternalError("stretch degree out of range");
    auto choose = [](Int128 m, size_t k) -> std::optional<Int128> {
        Int128 r = 1;
        for (size_t i = 0; i < k; ++i) {
            if (__builtin_mul_overflow(r, m - Int128(i), &r))
                return std::nullopt;
            r /= Int128(i + 1);
        }
        return r;
    };
    // coeff[k] = C(samples + rest, k + 1) - C(samples, k + 1); unset
    // where it leaves 128 bits, which only a nonzero difference reads.
    std::optional<Int128> coeff[kMaxStretchDegree + 1];
    for (size_t k = 0; k < samples; ++k) {
        std::optional<Int128> hi = choose(samples + rest, k + 1);
        if (hi)
            coeff[k] = *hi - *choose(samples, k + 1);
    }
    auto overflow = [] {
        anc::detail::throwLimit("simulator counter exceeds 2^64-1");
    };
    for (size_t f = 0; f < width; ++f) {
        Int128 d[kMaxStretchDegree + 1];
        for (size_t i = 0; i < samples; ++i)
            d[i] = Int128(states[(i + 1) * width + f]) -
                   states[i * width + f];
        for (size_t k = 1; k < samples; ++k)
            for (size_t i = samples - 1; i >= k; --i)
                d[i] -= d[i - 1];
        Int128 total = states[samples * width + f], term;
        for (size_t k = 0; k < samples; ++k) {
            if (d[k] == 0)
                continue;
            if (!coeff[k] || mulOverflow128(d[k], *coeff[k], &term) ||
                __builtin_add_overflow(total, term, &total))
                overflow();
        }
        if (total > Int128(UINT64_MAX))
            overflow();
        if (total < 0)
            throw InternalError("stretch charge below zero");
        states[f] = uint64_t(total);
    }
}

} // namespace anc::numa
