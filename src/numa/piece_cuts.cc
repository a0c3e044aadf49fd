#include "numa/piece_cuts.h"

#include <algorithm>
#include <limits>

namespace anc::numa {

namespace {

/** A value past 128 bits: the planner declines. */
struct Decline
{};

Int128
mul(Int128 a, Int128 b)
{
    Int128 r;
    if (mulOverflow128(a, b, &r))
        throw Decline{};
    return r;
}

Int128
add(Int128 a, Int128 b)
{
    Int128 r;
    if (__builtin_add_overflow(a, b, &r))
        throw Decline{};
    return r;
}

Int128
sub(Int128 a, Int128 b)
{
    Int128 r;
    if (__builtin_sub_overflow(a, b, &r))
        throw Decline{};
    return r;
}

/** Sign of a * d - c * b: how a / b compares with c / d (b, d > 0). */
int
cmpFrac(Int128 a, Int128 b, Int128 c, Int128 d)
{
    const Int128 l = mul(a, d), r = mul(c, b);
    return l < r ? -1 : (l > r ? 1 : 0);
}

std::pair<Int128, Int128>
reduced(Int128 n, Int128 d) // d > 0
{
    const Int128 g = gcd128(n, d);
    return g > 1 ? std::pair{n / g, d / g} : std::pair{n, d};
}

/** (s * x + i) / e with e > 0: a bound or an event as a function of the
 * outer variable x. */
struct Line
{
    Int128 s = 0, i = 0, e = 1;
};

/** A bound of y (k = 0) or of z: k * y + w(x). */
struct Bound
{
    Line w;
    bool lower;
    Int128 k = 0;
};

constexpr size_t kNone = size_t(-1);

/** An event y(x): middle bound a (b == kNone), or where inner bounds a
 * and b cross. */
struct Event
{
    Line y;
    size_t a, b;
};

/** A crossing x = n / d (d > 0) of events i and j, or (i == kNone) of
 * two inner bounds of equal k, which is a cut without further test. */
struct Crossing
{
    Int128 n, d;
    size_t i, j;
    double key = 0; //!< n / d, or NaN where the fraction decides
};

/** Whether v converts to a double exactly. */
bool
fitsDouble(Int128 v)
{
    return v >= -(Int128(1) << 53) && v <= (Int128(1) << 53);
}

Int128
coeffOf(const ir::CompiledAffine &f, size_t k)
{
    return k < f.num.size() ? f.num[k] : 0;
}

/** A thread's planner buffers, reused across runs. */
struct Scratch
{
    std::vector<Bound> mid, in;
    std::vector<Event> events;
    std::vector<Crossing> xs;
    std::vector<Int128> midAt, inAt;
    std::vector<int8_t> midActive;
};

} // namespace

bool
findPieceCuts(const ir::LoopBounds &bounds, Int outerLo, Int outerHi,
              PieceCuts &out)
{
    out.cuts.clear();
    out.slopes.clear();
    static thread_local Scratch scratch;
    std::vector<Bound> &mid = scratch.mid, &in = scratch.in;
    std::vector<Event> &events = scratch.events;
    std::vector<Crossing> &xs = scratch.xs;
    mid.clear();
    in.clear();
    events.clear();
    xs.clear();
    try {
        for (size_t level : {1, 2}) {
            for (bool lower : {true, false}) {
                for (const ir::CompiledAffine &a :
                     lower ? bounds.lowers(level) : bounds.uppers(level)) {
                    const Int128 ky = coeffOf(a, 1);
                    if (level == 2 && ky % a.den != 0)
                        return false;
                    (level == 1 ? mid : in)
                        .push_back({{coeffOf(a, 0), a.cst, a.den},
                                    lower,
                                    level == 2 ? ky / a.den : 0});
                }
            }
        }
        auto slope = [&](const Line &l) {
            if (l.s != 0)
                out.slopes.push_back(reduced(l.s, l.e));
        };
        // The events: the middle bounds, then each inner crossing.
        for (size_t m = 0; m < mid.size(); ++m) {
            slope(mid[m].w);
            events.push_back({mid[m].w, m, kNone});
        }
        for (size_t a = 0; a < in.size(); ++a) {
            const Line &wa = in[a].w;
            slope(wa);
            for (size_t b = a + 1; b < in.size(); ++b) {
                if (in[a].k == in[b].k)
                    continue;
                const Line &wb = in[b].w;
                const Int128 e = mul(mul(wa.e, wb.e), sub(in[a].k, in[b].k));
                const Int128 flip = e < 0 ? -1 : 1;
                const Line y{mul(sub(mul(wb.s, wa.e), mul(wa.s, wb.e)), flip),
                             mul(sub(mul(wb.i, wa.e), mul(wa.i, wb.e)), flip),
                             mul(e, flip)};
                slope(y);
                events.push_back({y, a, b});
            }
        }
        // The crossings within one of the outer range, before anything
        // is evaluated there.
        const Int128 x_lo = Int128(outerLo) - 1, x_hi = Int128(outerHi) + 1;
        auto crossing = [&](const Line &p, const Line &q, size_t i,
                            size_t j) {
            // p(x) == q(x) at x = (q.i p.e - p.i q.e) / (p.s q.e - q.s p.e).
            Int128 d = sub(mul(p.s, q.e), mul(q.s, p.e));
            if (d == 0)
                return; // parallel or the same event
            Int128 n = sub(mul(q.i, p.e), mul(p.i, q.e));
            if (d < 0) {
                n = mul(n, -1);
                d = mul(d, -1);
            }
            if (n >= mul(x_lo, d) && n <= mul(x_hi, d))
                xs.push_back({n, d, i, j});
        };
        for (size_t i = 0; i < events.size(); ++i)
            for (size_t j = i + 1; j < events.size(); ++j)
                crossing(events[i].y, events[j].y, i, j);
        for (size_t a = 0; a < in.size(); ++a)
            for (size_t b = a + 1; b < in.size(); ++b)
                if (in[a].k == in[b].k)
                    crossing(in[a].w, in[b].w, kNone, kNone);
        // By x: where n and d are exact doubles their quotient is
        // correctly rounded, so unequal quotients order their fractions.
        for (Crossing &c : xs)
            c.key = fitsDouble(c.n) && fitsDouble(c.d)
                        ? double(c.n) / double(c.d)
                        : std::numeric_limits<double>::quiet_NaN();
        std::sort(xs.begin(), xs.end(),
                  [](const Crossing &p, const Crossing &q) {
                      if (p.key < q.key || p.key > q.key)
                          return p.key < q.key;
                      return cmpFrac(p.n, p.d, q.n, q.d) < 0;
                  });

        // At one x = n / d, every value below is scaled by d: a bound's
        // numerator there is s * n + i * d over e, and an event's y is
        // Y / E with Y = s * n + i * d.
        std::vector<Int128> &mid_at = scratch.midAt, &in_at = scratch.inAt;
        std::vector<int8_t> &mid_active = scratch.midActive;
        mid_at.resize(mid.size());
        in_at.resize(in.size());
        mid_active.resize(mid.size());
        auto at = [](const Line &l, Int128 n, Int128 d) {
            return add(mul(l.s, n), mul(l.i, d));
        };
        // y within one of the middle range (a missing side counts as 0).
        auto in_range = [&](Int128 Y, Int128 E, Int128 d) {
            const Int128 Ed = mul(E, d);
            bool has_lo = false, has_hi = false;
            for (size_t m = 0; m < mid.size(); ++m) {
                // lower: y + 1 >= v; upper: y - 1 <= v.
                const Int128 l = mul(mid[m].lower ? add(Y, Ed) : sub(Y, Ed),
                                     mid[m].w.e),
                             r = mul(mid_at[m], E);
                if (mid[m].lower ? l < r : l > r)
                    return false;
                (mid[m].lower ? has_lo : has_hi) = true;
            }
            return (has_lo || Y >= -Ed) && (has_hi || Y <= Ed);
        };
        // Whether middle bound t is the max of the lowers / min of the
        // uppers at x (memoized per x).
        auto mid_holds = [&](size_t t) {
            if (mid_active[t] < 0) {
                mid_active[t] = 1;
                for (size_t o = 0; o < mid.size(); ++o) {
                    if (mid[o].lower != mid[t].lower)
                        continue;
                    const int s = cmpFrac(mid_at[o], mid[o].w.e, mid_at[t],
                                          mid[t].w.e);
                    if (mid[t].lower ? s > 0 : s < 0)
                        mid_active[t] = 0;
                }
            }
            return mid_active[t] > 0;
        };
        // Whether inner bound t is the max of the lowers / min of the
        // uppers at (x, y = Y / E): k_o y + U_o / e_o against t's, times
        // E e_o e_t.
        auto in_holds = [&](size_t t, Int128 Y, Int128 E) {
            for (size_t o = 0; o < in.size(); ++o) {
                if (o == t || in[o].lower != in[t].lower)
                    continue;
                const Int128 diff =
                    add(mul(mul(sub(in[o].k, in[t].k), Y),
                            mul(in[o].w.e, in[t].w.e)),
                        mul(E, sub(mul(in_at[o], in[t].w.e),
                                   mul(in_at[t], in[o].w.e))));
                if (in[t].lower ? diff > 0 : diff < 0)
                    return false;
            }
            return true;
        };
        // Inner bounds a and b are equal where they cross: of one side,
        // one holds where the other does.
        auto active = [&](const Event &ev, Int128 Y, Int128 E) {
            if (ev.b == kNone)
                return mid_holds(ev.a);
            return in_holds(ev.a, Y, E) &&
                   (in[ev.a].lower == in[ev.b].lower || in_holds(ev.b, Y, E));
        };
        for (size_t g = 0, h; g < xs.size(); g = h) {
            const Int128 n = xs[g].n, d = xs[g].d;
            for (h = g + 1;
                 h < xs.size() && cmpFrac(xs[h].n, xs[h].d, n, d) == 0; ++h) {
            }
            bool cut = false, evaluated = false;
            for (size_t q = g; q < h && !cut; ++q) {
                if (xs[q].i == kNone) {
                    cut = true;
                    break;
                }
                if (!evaluated) {
                    for (size_t m = 0; m < mid.size(); ++m)
                        mid_at[m] = at(mid[m].w, n, d);
                    for (size_t o = 0; o < in.size(); ++o)
                        in_at[o] = at(in[o].w, n, d);
                    std::fill(mid_active.begin(), mid_active.end(), -1);
                    evaluated = true;
                }
                const Event &ei = events[xs[q].i];
                const Int128 Y = at(ei.y, n, d), E = ei.y.e;
                cut = in_range(Y, E, d) && active(ei, Y, E) &&
                      active(events[xs[q].j], Y, E);
            }
            if (cut)
                out.cuts.push_back(reduced(n, d));
        }
    } catch (const Decline &) {
        return false;
    }
    return true;
}

} // namespace anc::numa
