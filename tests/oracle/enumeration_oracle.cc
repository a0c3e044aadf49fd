#include "enumeration_oracle.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "numa/recovery.h"

namespace anc::oracle {

namespace {

/** Parameter values tried, in order, until a binding is feasible. */
const std::vector<Int> kParamCandidates = {4, 3, 2, 6, 1, 8};
/** Source-point cap of the lattice and order parts. */
constexpr uint64_t kMaxPoints = 1u << 18;
/** Per-array element cap of the differential part. */
constexpr Int kMaxElements = 1 << 16;
/** Randomized runs of the differential part. */
constexpr int kTrials = 3;
/** Seed of the differential part's inputs ("AN-V"). */
constexpr uint64_t kSeed = 0x414e2d56;

/** Add the source points at and below level k to count, stopping once
 * it passes limit; the innermost level adds its trip count at once. */
void
countSource(const ir::LoopBounds &b, IntVec &v, size_t k, uint64_t limit,
            uint64_t &count)
{
    Int lo = b.lower(k, v);
    Int hi = b.upper(k, v);
    if (lo > hi)
        return;
    if (k + 1 == v.size()) {
        Int128 span = Int128(hi) - lo + 1;
        uint64_t room = limit - count;
        count += span > Int128(room) ? room + 1 : uint64_t(span);
        return;
    }
    for (Int i = lo; i <= hi && count <= limit; ++i) {
        v[k] = i;
        countSource(b, v, k + 1, limit, count);
    }
    v[k] = 0;
}

/** The same for the emitted loops, each level from its first
 * admissible value by its declared stride. */
void
countEmitted(const xform::TransformedNest &nest, const ir::LoopBounds &b,
             IntVec &u, IntVec &y, size_t k, uint64_t limit,
             uint64_t &count)
{
    Int lo = b.lower(k, u);
    Int hi = b.upper(k, u);
    if (lo > hi)
        return;
    Int s = nest.loops()[k].stride;
    Int start = nest.startAt(k, lo, y);
    if (k + 1 == u.size()) {
        if (start <= hi) {
            Int128 trips = (Int128(hi) - start) / s + 1;
            uint64_t room = limit - count;
            count += trips > Int128(room) ? room + 1 : uint64_t(trips);
        }
        return;
    }
    for (Int v = start; v <= hi && count <= limit; v += s) {
        u[k] = v;
        y.push_back(nest.lattice().solveY(k, v, y));
        countEmitted(nest, b, u, y, k + 1, limit, count);
        y.pop_back();
    }
    u[k] = 0;
}

/** Visit the emitted loops' points as the emitted code runs them: the
 * declared stride, not the lattice's, steps each level. */
template <typename Fn>
void
walkEmitted(const xform::TransformedNest &nest, const ir::LoopBounds &b,
            IntVec &u, IntVec &y, size_t k, Fn &fn)
{
    if (k == u.size()) {
        fn(static_cast<const IntVec &>(u));
        return;
    }
    Int hi = b.upper(k, u);
    Int s = nest.loops()[k].stride;
    for (Int v = nest.startAt(k, b.lower(k, u), y); v <= hi; v += s) {
        u[k] = v;
        y.push_back(nest.lattice().solveY(k, v, y));
        walkEmitted(nest, b, u, y, k + 1, fn);
        y.pop_back();
    }
    u[k] = 0;
}

/** -1, 0, +1 for a < b, a == b, a > b in lexicographic order. */
int
lexCompare(const Int *a, const Int *b, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

/** Points stored back to back in one buffer, `depth` coordinates
 * each, in the order they were added. */
struct PointList
{
    size_t depth = 0;
    uint64_t count = 0;
    std::vector<Int> coords;

    const Int *at(size_t i) const { return coords.data() + i * depth; }

    std::string
    str(size_t i) const
    {
        std::ostringstream os;
        os << "(";
        for (size_t d = 0; d < depth; ++d)
            os << (d ? ", " : "") << at(i)[d];
        os << ")";
        return os.str();
    }

    /** Indices of the points in lexicographic order. */
    std::vector<size_t>
    sortedOrder() const
    {
        std::vector<size_t> order(count);
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return lexCompare(at(a), at(b), depth) < 0;
        });
        return order;
    }
};

/** Materialize the `count` points (counted beforehand) a walk visits:
 * walk(visit) must call visit(point) for each. */
template <typename Walk>
PointList
collect(size_t depth, uint64_t count, Walk &&walk)
{
    PointList pts;
    pts.depth = depth;
    pts.count = count;
    pts.coords.reserve(count * depth);
    walk([&](const IntVec &v) {
        pts.coords.insert(pts.coords.end(), v.begin(), v.end());
    });
    return pts;
}

/** Deterministic 64-bit mixer for the differential bindings. */
uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The concrete data shared by the three oracle parts. */
struct Enumeration
{
    bool feasible = false;  //!< a binding under the cap was found
    std::string skipReason; //!< set when !feasible
    IntVec params;
    PointList source;           //!< source points, visit order
    PointList emitted;          //!< emitted points, visit order
    bool emittedCapped = false; //!< emitted enumeration hit its cap
};

/**
 * Find a parameter binding whose source space fits under the cap and
 * enumerate both sides with it. Prefers a binding with a nonempty
 * space so that the comparison is not vacuous. Each side is counted
 * first, stopping just past its cap, so a space too large to compare
 * is refused before any point is stored.
 */
Enumeration
enumerateBoth(const ir::Program &prog, const xform::TransformedNest &nest)
{
    Enumeration en;
    std::vector<Int> candidates = kParamCandidates;
    if (prog.params.empty())
        candidates = {0}; // one attempt; the value is unused
    std::string last_error = "no candidate parameter value worked";
    bool have_empty = false;
    IntVec empty_params;
    for (Int v : candidates) {
        IntVec params(prog.params.size(), v);
        try {
            uint64_t count = countIterations(prog.nest, params, kMaxPoints);
            if (count > kMaxPoints) {
                last_error = "source space exceeds " +
                             std::to_string(kMaxPoints) + " points";
                continue;
            }
            if (count == 0) {
                // Usable, but keep looking for a nonempty space.
                if (!have_empty) {
                    have_empty = true;
                    empty_params = params;
                }
                continue;
            }
            en.source = collect(prog.nest.depth(), count, [&](auto &&visit) {
                ir::forEachIteration(prog.nest, params, visit);
            });
            en.feasible = true;
            en.params = params;
            break;
        } catch (const Error &e) {
            last_error = e.what();
        }
    }
    if (!en.feasible && have_empty) {
        en.feasible = true;
        en.params = empty_params;
        en.source.depth = prog.nest.depth();
    }
    if (!en.feasible) {
        en.skipReason =
            "no feasible small parameter binding (" + last_error + ")";
        return en;
    }

    // The emitted side is the artifact under test: cap it relative to
    // the source count so a wrong nest cannot run away, and remember
    // whether the cap was hit (that alone disproves equivalence).
    uint64_t cap = en.source.count + 1024;
    uint64_t count = countIterations(nest, en.params, cap);
    if (count > cap)
        en.emittedCapped = true;
    else
        en.emitted = collect(nest.depth(), count, [&](auto &&visit) {
            ir::LoopBounds bounds(nest.loops(), en.params);
            IntVec u(nest.depth(), 0), y;
            walkEmitted(nest, bounds, u, y, 0, visit);
        });
    return en;
}

std::string
bindingStr(const ir::Program &prog, const IntVec &params)
{
    if (prog.params.empty())
        return "no parameters";
    std::ostringstream os;
    for (size_t p = 0; p < prog.params.size(); ++p)
        os << (p ? ", " : "") << prog.params[p] << "=" << params[p];
    return os.str();
}

/** Oracle part 1: emitted points == T * (source points), as sets. */
void
oracleLattice(const ir::Program &prog, const xform::TransformedNest &nest,
              const Enumeration &en, EnumerationOracle &o)
{
    if (en.emittedCapped) {
        o.latticeDetail = "emitted nest enumerates more than " +
                          std::to_string(en.source.count + 1024) +
                          " points, but the source space has only " +
                          std::to_string(en.source.count) + " (" +
                          bindingStr(prog, en.params) + ")";
        return;
    }

    // The reference image: every source point mapped through T by hand
    // (plain checked arithmetic, no shared transform code), sorted by
    // image point, then by source point.
    const IntMatrix &t = nest.transform();
    const PointList &src = en.source;
    PointList image;
    image.depth = t.rows();
    image.count = src.count;
    image.coords.assign(image.count * image.depth, 0);
    for (size_t p = 0; p < src.count; ++p) {
        Int *u = image.coords.data() + p * image.depth;
        for (size_t i = 0; i < t.rows(); ++i)
            for (size_t j = 0; j < t.cols(); ++j)
                u[i] = checkedAdd(u[i], checkedMul(t(i, j), src.at(p)[j]));
    }
    std::vector<size_t> img(image.count);
    for (size_t i = 0; i < img.size(); ++i)
        img[i] = i;
    std::sort(img.begin(), img.end(), [&](size_t a, size_t b) {
        int c = lexCompare(image.at(a), image.at(b), image.depth);
        return c != 0 ? c < 0 : lexCompare(src.at(a), src.at(b), src.depth) < 0;
    });

    const PointList &emitted = en.emitted;
    std::vector<size_t> emi = emitted.sortedOrder();

    // A duplicate visit breaks the bijection even if the sets agree.
    for (size_t i = 1; i < emi.size(); ++i) {
        if (lexCompare(emitted.at(emi[i]), emitted.at(emi[i - 1]),
                       emitted.depth) == 0) {
            o.latticeDetail = "emitted nest enumerates point u=" +
                              emitted.str(emi[i]) + " more than once (" +
                              bindingStr(prog, en.params) + ")";
            return;
        }
    }

    // Merge-walk both sorted sequences for the first discrepancy.
    size_t i = 0, j = 0;
    while (i < img.size() || j < emi.size()) {
        int cmp = i == img.size()   ? 1
                  : j == emi.size() ? -1
                                    : lexCompare(image.at(img[i]),
                                                 emitted.at(emi[j]),
                                                 image.depth);
        if (cmp < 0) {
            o.latticeDetail = "counterexample: source iteration x=" +
                              src.str(img[i]) + " has image point u=" +
                              image.str(img[i]) +
                              " which the emitted nest never enumerates (" +
                              bindingStr(prog, en.params) + ")";
            return;
        }
        if (cmp > 0) {
            o.latticeDetail =
                "counterexample: emitted nest enumerates u=" +
                emitted.str(emi[j]) +
                " which is the image of no source iteration (" +
                bindingStr(prog, en.params) + ")";
            return;
        }
        ++i;
        ++j;
    }

    o.latticeOk = true;
    std::ostringstream os;
    os << src.count << " iteration point(s) map bijectively ("
       << bindingStr(prog, en.params) << ")";
    o.latticeDetail = os.str();
}

/** The first visited point at which a level's bounds change with its
 * own or an inner coordinate, or "" when there is none. The walk reads
 * level k's bounds with coordinates k.. zeroed, so such a bound makes
 * the scan depend on values the loop has not set yet. */
std::string
scanPremiseViolation(const xform::TransformedNest &nest,
                     const IntVec &params, const PointList &emitted)
{
    ir::LoopBounds b(nest.loops(), params);
    IntVec full(emitted.depth), outer(emitted.depth);
    for (size_t p = 0; p < emitted.count; ++p) {
        full.assign(emitted.at(p), emitted.at(p) + emitted.depth);
        std::fill(outer.begin(), outer.end(), 0);
        for (size_t k = 0; k < emitted.depth; ++k) {
            if (b.lower(k, full) != b.lower(k, outer) ||
                b.upper(k, full) != b.upper(k, outer))
                return "counterexample: the bounds of loop level " +
                       std::to_string(k) +
                       " change with its own or an inner coordinate at "
                       "u=" +
                       emitted.str(p) +
                       ", so the emitted scan order is ill-defined";
            outer[k] = full[k];
        }
    }
    return "";
}

/** Oracle part 2: emitted scan well-defined and strictly lexicographic. */
void
oracleOrder(const xform::TransformedNest &nest, const Enumeration &en,
            EnumerationOracle &o)
{
    if (en.emittedCapped) {
        o.orderDetail = "emitted enumeration hit its cap";
        return;
    }
    const PointList &emitted = en.emitted;
    for (size_t k = 1; k < emitted.count; ++k) {
        if (lexCompare(emitted.at(k - 1), emitted.at(k), emitted.depth) >=
            0) {
            o.orderDetail = "counterexample: emitted nest visits u=" +
                            emitted.str(k) + " after u=" +
                            emitted.str(k - 1) +
                            ", violating lexicographic execution order";
            return;
        }
    }
    o.orderDetail = scanPremiseViolation(nest, en.params, emitted);
    if (!o.orderDetail.empty())
        return;
    o.orderOk = true;
    std::ostringstream os;
    os << "emitted order verified on " << emitted.count << " point(s)";
    o.orderDetail = os.str();
}

/** Oracle part 3: fletcher64 footprints of both executions match. */
void
oracleDifferential(const ir::Program &prog,
                   const xform::TransformedNest &nest, EnumerationOracle &o)
{
    std::vector<Int> candidates = kParamCandidates;
    if (prog.params.empty())
        candidates = {0};
    uint64_t rng = kSeed;
    std::string skip = "no feasible small parameter binding";
    for (Int v : candidates) {
        IntVec params(prog.params.size(), v);
        try {
            bool feasible = true, too_big = false;
            for (const ir::ArrayDecl &a : prog.arrays) {
                double total = 1;
                for (Int e : a.evalExtents(params)) {
                    if (e <= 0)
                        feasible = false;
                    total *= double(e);
                }
                too_big = too_big || total > double(kMaxElements);
            }
            if (!feasible || too_big) {
                skip = too_big ? "arrays exceed the element cap" : skip;
                continue;
            }
            for (int trial = 0; trial < kTrials; ++trial) {
                ir::ArrayStorage seq(prog, params);
                ir::ArrayStorage xfm(prog, params);
                uint64_t fill = splitmix64(rng) | 1;
                seq.fillDeterministic(fill);
                xfm.fillDeterministic(fill);
                std::vector<double> scalars(prog.scalars.size());
                for (double &s : scalars)
                    s = double(Int(splitmix64(rng) % 9) - 4) / 2.0;
                ir::Bindings binds{params, scalars};
                ir::run(prog, binds, seq);
                try {
                    nest.run(binds, xfm);
                } catch (const Error &e) {
                    // The source ran at this binding, so the nest must.
                    o.differentialRan = true;
                    o.differentialDetail =
                        "counterexample: the transformed nest fails "
                        "where the source runs (" +
                        std::string(e.what()) + "; trial " +
                        std::to_string(trial) + ", " +
                        bindingStr(prog, params) + ")";
                    return;
                }
                for (size_t a = 0; a < seq.numArrays(); ++a) {
                    uint64_t cs = numa::fletcher64(seq.data(a).data(),
                                                   seq.data(a).size());
                    uint64_t cx = numa::fletcher64(xfm.data(a).data(),
                                                   xfm.data(a).size());
                    if (cs != cx) {
                        o.differentialRan = true;
                        std::ostringstream os;
                        os << "counterexample: array '"
                           << prog.arrays[a].name << "' footprint "
                           << std::hex << cx << " != sequential " << cs
                           << std::dec << " (trial " << trial << ", "
                           << bindingStr(prog, params) << ")";
                        o.differentialDetail = os.str();
                        return;
                    }
                }
            }
            o.differentialRan = true;
            o.differentialOk = true;
            std::ostringstream os;
            os << kTrials << " randomized trial(s), fletcher64 "
               << "footprints identical (" << bindingStr(prog, params)
               << ")";
            o.differentialDetail = os.str();
            return;
        } catch (const UserError &) {
            // Binding infeasible for this program; try the next one.
        }
    }
    o.differentialDetail = skip;
}

} // namespace

uint64_t
countIterations(const ir::LoopNest &nest, const IntVec &params,
                uint64_t limit)
{
    if (nest.depth() == 0)
        return 1;
    ir::LoopBounds bounds(nest.loops(), params);
    IntVec vars(nest.depth(), 0);
    uint64_t count = 0;
    countSource(bounds, vars, 0, limit, count);
    return count;
}

uint64_t
countIterations(const xform::TransformedNest &nest, const IntVec &params,
                uint64_t limit)
{
    if (nest.depth() == 0)
        return 1;
    ir::LoopBounds bounds(nest.loops(), params);
    IntVec u(nest.depth(), 0);
    IntVec y;
    uint64_t count = 0;
    countEmitted(nest, bounds, u, y, 0, limit, count);
    return count;
}

EnumerationOracle
enumerationOracle(const ir::Program &prog,
                  const xform::TransformedNest &nest)
{
    EnumerationOracle o;
    Enumeration en = enumerateBoth(prog, nest);
    if (!en.feasible) {
        o.reason = en.skipReason;
        return o;
    }
    o.feasible = true;
    o.params = en.params;
    oracleLattice(prog, nest, en, o);
    oracleOrder(nest, en, o);
    oracleDifferential(prog, nest, o);
    return o;
}

} // namespace anc::oracle
