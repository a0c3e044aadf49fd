#include "piece_cuts_oracle.h"

#include <algorithm>
#include <sstream>

namespace anc::oracle {

namespace {

/** A value past 128 bits: the planner declines. */
struct Decline
{};

Int128
geoMul(Int128 a, Int128 b)
{
    Int128 r;
    if (mulOverflow128(a, b, &r))
        throw Decline{};
    return r;
}

Int128
geoAdd(Int128 a, Int128 b)
{
    Int128 r;
    if (__builtin_add_overflow(a, b, &r))
        throw Decline{};
    return r;
}

Int
coeffOf(const ir::CompiledAffine &f, size_t k)
{
    return k < f.num.size() ? f.num[k] : 0;
}

/** An exact rational in 128 bits, denominator positive; an operation
 * that leaves 128 bits declines (the run walks position by
 * position). */
struct Q
{
    Int128 n = 0, d = 1;
};

Q
qmake(Int128 n, Int128 d)
{
    if (d < 0) {
        n = geoMul(n, -1);
        d = geoMul(d, -1);
    }
    const Int128 g = gcd128(n, d);
    return g > 1 ? Q{n / g, d / g} : Q{n, d};
}

Q
operator+(Q a, Q b)
{
    return qmake(geoAdd(geoMul(a.n, b.d), geoMul(b.n, a.d)),
                 geoMul(a.d, b.d));
}

Q
operator-(Q a, Q b)
{
    return a + Q{geoMul(b.n, -1), b.d};
}

Q
operator*(Q a, Q b)
{
    return qmake(geoMul(a.n, b.n), geoMul(a.d, b.d));
}

Q
operator/(Q a, Q b) // b != 0
{
    return qmake(geoMul(a.n, b.d), geoMul(a.d, b.n));
}

int
cmp(Q a, Q b)
{
    const Int128 l = geoMul(a.n, b.d), r = geoMul(b.n, a.d);
    return l < r ? -1 : (l > r ? 1 : 0);
}

/** slope * x + icpt: a bound or a crossing as a function of the outer
 * variable x. */
struct Line
{
    Q slope, icpt;
    Q at(Q x) const { return slope * x + icpt; }
};

} // namespace

bool
rationalPieceCuts(const ir::LoopBounds &bounds, Int outerLo, Int outerHi,
                  numa::PieceCuts &out)
{
    // Three deep, with outer variable x, middle y and inner z. Each
    // bound of y is a line Y(x); each bound of z is k * y + W(x) with
    // an integral k. At position x the middle run's pieces are the
    // stretches of y between the events: where two inner bounds cross,
    // y = (W_b(x) - W_a(x)) / (k_a - k_b), bounded by the active bounds
    // of y. While no two events that bound pieces cross, the pieces keep
    // their bounds; once every event moves by a whole number per step of
    // x (the caller checks the slopes), the pieces move by whole numbers
    // too. Cut where two events cross and both are active there: a
    // middle bound holds as the max of the lowers / min of the uppers,
    // an inner crossing as the max / min of its side at that point, and
    // it lies within one of the middle range. Two inner bounds with
    // equal k swap everywhere at once: cut wherever they do.
    out.cuts.clear();
    out.slopes.clear();
    struct Bound
    {
        Line w;
        bool lower;
        Int k = 0;
    };
    std::vector<Bound> mid, in;
    try {
        for (size_t level : {1, 2}) {
            for (bool lower : {true, false}) {
                for (const ir::CompiledAffine &a :
                     lower ? bounds.lowers(level) : bounds.uppers(level)) {
                    const Int ky = coeffOf(a, 1);
                    if (level == 2 && ky % a.den != 0)
                        return false;
                    (level == 1 ? mid : in)
                        .push_back({{qmake(coeffOf(a, 0), a.den),
                                     qmake(a.cst, a.den)},
                                    lower,
                                    level == 2 ? ky / a.den : 0});
                }
            }
        }
        auto must_move = [&](Q slope) {
            if (slope.n != 0)
                out.slopes.push_back({slope.n, slope.d});
        };
        // The events: the middle bounds, then each inner crossing.
        struct Event
        {
            Line y;
            size_t a, b; //!< b == SIZE_MAX: middle bound a
        };
        std::vector<Event> events;
        for (size_t i = 0; i < mid.size(); ++i) {
            must_move(mid[i].w.slope);
            events.push_back({mid[i].w, i, SIZE_MAX});
        }
        for (size_t a = 0; a < in.size(); ++a) {
            must_move(in[a].w.slope);
            for (size_t b = a + 1; b < in.size(); ++b) {
                if (in[a].k == in[b].k)
                    continue;
                const Q dk{Int128(in[a].k) - in[b].k, 1};
                const Line y{(in[b].w.slope - in[a].w.slope) / dk,
                             (in[b].w.icpt - in[a].w.icpt) / dk};
                must_move(y.slope);
                events.push_back({y, a, b});
            }
        }
        // Whether bound i of bs is the max of its side's lowers / min of
        // its uppers, each valued by v.
        auto holds = [](const std::vector<Bound> &bs, size_t i, auto &&v) {
            const Q vi = v(bs[i]);
            for (const Bound &o : bs) {
                if (o.lower != bs[i].lower)
                    continue;
                const int s = cmp(v(o), vi);
                if (bs[i].lower ? s > 0 : s < 0)
                    return false;
            }
            return true;
        };
        auto inner_at = [](Q x, Q y) {
            return [x, y](const Bound &o) {
                return Q{o.k, 1} * y + o.w.at(x);
            };
        };
        // The middle range at x, widened by one on each side.
        auto range = [&](Q x, Q &lo, Q &hi) {
            bool has_lo = false, has_hi = false;
            for (const Bound &o : mid) {
                const Q v = o.w.at(x);
                Q &w = o.lower ? lo : hi;
                bool &has = o.lower ? has_lo : has_hi;
                if (!has || (o.lower ? cmp(v, w) > 0 : cmp(v, w) < 0))
                    w = v;
                has = true;
            }
            lo = lo - Q{1, 1};
            hi = hi + Q{1, 1};
        };
        auto active = [&](const Event &e, Q x, Q y) {
            if (e.b == SIZE_MAX)
                return holds(mid, e.a, [&](const Bound &o) {
                    return o.w.at(x);
                });
            return holds(in, e.a, inner_at(x, y)) &&
                   holds(in, e.b, inner_at(x, y));
        };
        const Q x_lo{Int128(outerLo) - 1, 1}, x_hi{Int128(outerHi) + 1, 1};
        std::vector<Q> cuts;
        auto cut = [&](Q x) {
            if (cmp(x, x_lo) >= 0 && cmp(x, x_hi) <= 0)
                cuts.push_back(x);
        };
        for (size_t i = 0; i < events.size(); ++i) {
            for (size_t j = i + 1; j < events.size(); ++j) {
                const Q ds = events[i].y.slope - events[j].y.slope;
                if (ds.n == 0)
                    continue; // parallel or the same event
                const Q x = (events[j].y.icpt - events[i].y.icpt) / ds;
                const Q y = events[i].y.at(x);
                Q lo, hi;
                range(x, lo, hi);
                if (cmp(y, lo) >= 0 && cmp(y, hi) <= 0 &&
                    active(events[i], x, y) && active(events[j], x, y))
                    cut(x);
            }
        }
        for (size_t a = 0; a < in.size(); ++a) {
            for (size_t b = a + 1; b < in.size(); ++b) {
                const Q ds = in[a].w.slope - in[b].w.slope;
                if (in[a].k != in[b].k || ds.n == 0)
                    continue;
                cut((in[b].w.icpt - in[a].w.icpt) / ds);
            }
        }
        std::sort(cuts.begin(), cuts.end(),
                  [](Q a, Q b) { return cmp(a, b) < 0; });
        for (const Q &x : cuts)
            if (out.cuts.empty() ||
                cmp(x, {out.cuts.back().first, out.cuts.back().second}) != 0)
                out.cuts.push_back({x.n, x.d});
    } catch (const Decline &) {
        return false;
    }
    return true;
}


namespace {

std::string
decimal(Int128 v)
{
    if (v < 0)
        return "-" + decimal(-v);
    std::string s;
    do {
        s.insert(s.begin(), char('0' + int(v % 10)));
        v /= 10;
    } while (v != 0);
    return s;
}

std::string
render(bool found, const numa::PieceCuts &p)
{
    if (!found)
        return "declined";
    std::ostringstream os;
    auto list = [&](const char *name, const auto &v) {
        os << name << " [";
        for (const auto &[n, d] : v)
            os << ' ' << decimal(n) << '/' << decimal(d);
        os << " ]";
    };
    list("cuts", p.cuts);
    list(" slopes", p.slopes);
    return os.str();
}

} // namespace

std::string
pieceCutsDifferential(const xform::TransformedNest &nest,
                      const IntVec &params)
{
    if (nest.depth() != 3)
        return "";
    ir::LoopBounds bounds;
    Int lo, hi;
    try {
        bounds = ir::LoopBounds(nest.loops(), params);
        const IntVec origin(3, 0);
        lo = bounds.lower(0, origin);
        hi = bounds.upper(0, origin);
    } catch (const Error &) {
        return ""; // past 64 bits: neither planner runs
    }
    numa::PieceCuts want, got;
    const bool found = rationalPieceCuts(bounds, lo, hi, want);
    const bool fast = numa::findPieceCuts(bounds, lo, hi, got);
    if (found == fast && (!found || got == want))
        return "";
    return "oracle " + render(found, want) + ", planner " + render(fast, got);
}

} // namespace anc::oracle
