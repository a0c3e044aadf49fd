/**
 * @file
 * Closed-form congruence counting over arithmetic progressions.
 *
 * The iteration-counting kernel of the simulator's wrapped-ownership
 * fast path (how many innermost iterations land on processor p?), of
 * its closed-form middle runs (how many, summed over a run of inner
 * runs whose start and length move affinely?) and of the
 * communication-matrix class fold (how many members of one symmetry
 * class send to another?). Exact for any operand signs. A stepper pays
 * one extended Euclid and two reciprocals when it is built; a count
 * then divides by the modulus and the hit period through multiply-high,
 * and a summed count adds two floor sums. The simulator builds its
 * steppers once per run.
 */

#ifndef ANC_NUMA_CONGRUENT_H
#define ANC_NUMA_CONGRUENT_H

#include <cstdint>

#include "ratmath/int_util.h"

namespace anc::numa {

/** 128-bit products and sums of closed-form counts; throw
 * OverflowError instead of wrapping. */
inline Int128
mulCount128(Int128 x, Int128 y)
{
    Int128 r;
    if (mulOverflow128(x, y, &r))
        throw OverflowError("closed-form count leaves 128 bits");
    return r;
}

inline Int128
addCount128(Int128 x, Int128 y)
{
    Int128 r;
    if (__builtin_add_overflow(x, y, &r))
        throw OverflowError("closed-form count leaves 128 bits");
    return r;
}

/**
 * Sum over t in [0, n) of floor((a*t + b) / m), for m > 0 and any signs
 * of a and b, in O(log m) steps of 128-bit arithmetic, 64-bit where it
 * fits (the Euclid-like reduction that swaps the roles of a and m).
 * Throws OverflowError when the sum leaves 128 bits, or when one of the
 * two partial sums it is assembled from does (a floor(a/m) * n(n-1)/2
 * term and a floor(b/m) * n term; with n below 2^32 and 64-bit a and b
 * neither can).
 */
inline Int128
floorSum(uint64_t n, Int m, Int128 a, Int128 b)
{
    if (m <= 0)
        throw InternalError("floorSum needs a positive modulus");
    if (n == 0)
        return 0;
    const Int128 nn = Int128(n);
    if (a < 0) {
        // The same terms in reverse order: t -> n - 1 - t.
        b = addCount128(b, mulCount128(a, nn - 1));
        a = mulCount128(a, -1);
    }
    const bool narrow = fitsInt(a) && fitsInt(b);
    Int128 qa = narrow ? Int(a) / m : a / m;
    Int128 qb = narrow ? Int(b) / m : b / m;
    if ((narrow ? Int(b) % m : Int128(b % m)) < 0)
        --qb;
    Int128 tri = n % 2 == 0 ? (nn / 2) * (nn - 1) : nn * ((nn - 1) / 2);
    Int128 sum = addCount128(mulCount128(qa, tri), mulCount128(qb, nn));
    // What is left has 0 <= a, b < m, so term t is at most t and the
    // rest of the sum at most n(n - 1)/2 < 2^127, as is every partial
    // sum of it: no check needed. Below 2^32 terms and modulus, the
    // same steps run in 64 bits.
    auto rest = [](auto un, auto um, auto ua, auto ub) {
        decltype(un) acc = 0;
        while (true) {
            if (ua >= um) {
                acc += un * (un - 1) / 2 * (ua / um);
                ua %= um;
            }
            if (ub >= um) {
                acc += un * (ub / um);
                ub %= um;
            }
            auto top = ua * un + ub;
            if (top < um)
                break;
            un = top / um;
            ub = top % um;
            auto t = um;
            um = ua;
            ua = t;
        }
        return acc;
    };
    const Int128 ra = a - qa * m, rb = b - qb * m;
    if (n < (uint64_t(1) << 32) && m < (Int(1) << 32))
        return addCount128(sum, Int128(rest(uint64_t(n), uint64_t(m),
                                            uint64_t(ra), uint64_t(rb))));
    using U = unsigned __int128;
    return addCount128(sum, Int128(rest(U(n), U(m), U(ra), U(rb))));
}

/**
 * Division by a fixed positive divisor d through a stored reciprocal
 * r = floor((2^64 - 1) / d). For a 64-bit n, the high word of n * r is
 * floor(n / d) or one less (n * r / 2^64 lies in (n/d - 1, n/d]), and
 * one compare of the remainder against d fixes it: exact for every
 * 64-bit operand, with a multiply instead of a hardware division. The
 * signed forms truncate like the built-in / and %.
 */
class Reciprocal
{
  public:
    Reciprocal() = default;
    explicit Reciprocal(uint64_t d) : d_(d), r_(UINT64_MAX / d) {}

    /** n / d, with n % d in rem. */
    uint64_t
    divRem(uint64_t n, uint64_t &rem) const
    {
        uint64_t q = uint64_t((unsigned __int128)n * r_ >> 64);
        uint64_t r = n - q * d_;
        if (r >= d_) {
            ++q;
            r -= d_;
        }
        rem = r;
        return q;
    }
    uint64_t
    div(uint64_t n) const
    {
        uint64_t r;
        return divRem(n, r);
    }
    uint64_t
    mod(uint64_t n) const
    {
        uint64_t r;
        divRem(n, r);
        return r;
    }

    /** n / d and n % d of a signed n, truncating toward zero. */
    Int
    div(Int n) const
    {
        uint64_t r;
        uint64_t q = divRem(magnitude(n), r);
        return n < 0 ? Int(0 - q) : Int(q);
    }
    Int
    mod(Int n) const
    {
        uint64_t r;
        divRem(magnitude(n), r);
        return n < 0 ? -Int(r) : Int(r);
    }

    /** n mod d in [0, d) (euclidMod). */
    Int
    floorMod(Int n) const
    {
        uint64_t r;
        divRem(magnitude(n), r);
        return n < 0 && r != 0 ? Int(d_ - r) : Int(r);
    }

  private:
    /** |n| as an unsigned value; 2^63 for INT64_MIN. */
    static uint64_t
    magnitude(Int n)
    {
        return n < 0 ? 0 - uint64_t(n) : uint64_t(n);
    }

    uint64_t d_ = 1, r_ = UINT64_MAX;
};

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
 * extended Euclid runs once, at construction, and the divisions by m
 * and by the hit period m / gcd(delta, m) go through reciprocals built
 * there too, so each count() costs a few multiplies and one division
 * by the gcd. The simulator builds one per wrapped reference, whose
 * innermost step and processor count never change within a run, and
 * the owner progressions its middle runs need (see sumHits) once per
 * run as well.
 */
class CongruentStepper
{
  public:
    CongruentStepper() = default;

    CongruentStepper(Int delta, Int m)
        : m_(m), d_(euclidMod(delta, m)), mod_m_(uint64_t(m))
    {
        if (d_ == 0)
            return;
        ExtGcd eg = extGcd(d_, m);
        g_ = eg.g;
        step_ = m / eg.g;
        // (d/g) * x == 1 (mod m/g), so j0 = (need/g) * x mod step.
        inv_ = euclidMod(eg.x, step_);
        mod_step_ = Reciprocal(uint64_t(step_));
    }

    /** Number of j in [0, n) with (a + j*delta) mod m == target. */
    CongruentCount
    count(Int a, uint64_t n, Int target) const
    {
        CongruentCount out;
        Int need = mod_m_.floorMod(checkedSub(target, a));
        if (d_ == 0) {
            if (need == 0) {
                out.hits = n;
                out.jLast = n - 1;
            }
            return out;
        }
        if (g_ != 1) {
            if (need % g_ != 0)
                return out;
            need /= g_;
        }
        // need / g and inv are both below step, so under 2^31 the
        // product fits 64 bits and skips the 128-bit remainder (a
        // library call); the value is the same.
        Int j0 = step_ < (Int(1) << 31)
                     ? Int(mod_step_.mod(uint64_t(need * inv_)))
                     : Int(Int128(need) * Int128(inv_) % Int128(step_));
        if (uint64_t(j0) >= n)
            return out;
        out.hits = mod_step_.div(n - 1 - uint64_t(j0)) + 1;
        out.jLast = uint64_t(j0) + (out.hits - 1) * uint64_t(step_);
        return out;
    }

    /** Distance between consecutive hits (m / gcd(delta, m); 1 when
     * delta == 0 mod m, where every j hits or none does). */
    Int period() const { return d_ == 0 ? 1 : step_; }

    /** gcd(delta, m) (m when delta == 0 mod m). */
    Int gcd() const { return d_ == 0 ? m_ : g_; }

    /**
     * Sum over s in [0, n) of count(a0 + a1*s, c0 + c1*s, target).hits:
     * the hits of n runs whose start and length move affinely, every
     * length at least 1. When delta == 0 mod m a run hits fully or not
     * at all; otherwise the runs with a hit form one congruence class
     * of s, and along it the first hit j0 = (need/g * inv) mod step is
     * affine modulo step, so the hits are two floor sums. Throws
     * OverflowError when a sum leaves 128 bits.
     *
     * `whole` is CongruentStepper(a1, m) and `mod_g` is
     * CongruentStepper(a1, gcd()): the progression of run starts, which
     * depends on a1 only, so a caller that sums many runs with one a1
     * builds the pair once. Only `whole` is read when delta == 0 mod m,
     * only `mod_g` otherwise.
     */
    Int128
    sumHits(Int a0, Int a1, uint64_t n, Int128 c0, Int128 c1, Int target,
            const CongruentStepper &whole,
            const CongruentStepper &mod_g) const
    {
        if (n == 0)
            return 0;
        if (d_ == 0) {
            // Whole runs: the s with a0 + a1*s == target (mod m).
            return sumAffine(whole.count(a0, n, target), whole.period(),
                             c0, c1);
        }
        // A run hits iff g | target - a(s): one class of s modulo g.
        CongruentCount cls = mod_g.count(a0, n, euclidMod(target, g_));
        if (cls.hits == 0)
            return 0;
        const Int q = mod_g.period();
        const Int128 s0 = Int128(cls.jLast) - Int128(cls.hits - 1) * q;
        // Along s = s0 + q*k, need(k) / g == K' - E*k (mod step), where
        // K' = (target - a(s0)) / g and E = a1 * q / g: both exact, and
        // taken modulo m first, so every operand stays below m.
        auto mulmod = [](Int x, Int y, Int mod) {
            return mod < (Int(1) << 31) ? x * y % mod
                                        : Int(Int128(x) * y % mod);
        };
        const Int dr = mod_m_.floorMod(a1);
        const Int need0 = euclidMod(
            mod_m_.floorMod(target) - mod_m_.floorMod(a0) -
                mulmod(dr, Int(s0 % m_), m_),
            m_);
        const Int e = mulmod(dr, q % m_, m_) / g_;
        // j0(k) = (K + D*k) mod step.
        const Int k = mulmod(need0 / g_, inv_, step_);
        const Int d = mulmod((step_ - e % step_) % step_, inv_, step_);
        // hits(k) = floor((len(k) - 1 - j0(k) + step) / step), and
        // j0(k) = K + D*k - step * floor((K + D*k) / step).
        const Int128 l0 = addCount128(c0, mulCount128(c1, s0));
        const Int128 l1 = mulCount128(c1, q);
        return addCount128(
            floorSum(cls.hits, step_, l1 - d, l0 - 1 + step_ - k),
            floorSum(cls.hits, step_, d, k));
    }

    /** Sum of c0 + c1*s over the hits s = first, first + stride, ... */
    static Int128
    sumAffine(CongruentCount hit, Int stride, Int128 c0, Int128 c1)
    {
        if (hit.hits == 0)
            return 0;
        const Int128 h = hit.hits;
        const Int128 first = Int128(hit.jLast) - (h - 1) * stride;
        const Int128 at_first = addCount128(c0, mulCount128(c1, first));
        return addCount128(mulCount128(h, at_first),
                           mulCount128(mulCount128(c1, stride),
                                       h * (h - 1) / 2));
    }

  private:
    Int m_ = 1, d_ = 0, g_ = 1, step_ = 1, inv_ = 0;
    Reciprocal mod_m_, mod_step_; //!< divide by m and by step
};

/** One-shot form of CongruentStepper::count. */
inline CongruentCount
countCongruent(Int a, Int delta, uint64_t count, Int m, Int target)
{
    return CongruentStepper(delta, m).count(a, count, target);
}

} // namespace anc::numa

#endif // ANC_NUMA_CONGRUENT_H
