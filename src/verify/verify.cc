#include "verify/verify.h"

#include <algorithm>
#include <sstream>

#include "numa/recovery.h"
#include "verify/symbolic.h"

namespace anc::verify {

namespace {

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

/** The concrete data shared by the enumeration cross-checks. */
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
enumerateBoth(const ir::Program &prog, const xform::TransformedNest &nest,
              const ValidateOptions &opts)
{
    Enumeration en;
    std::vector<Int> candidates = opts.paramCandidates;
    if (prog.params.empty())
        candidates = {0}; // one attempt; the value is unused
    std::string last_error = "no candidate parameter value worked";
    bool have_empty = false;
    IntVec empty_params;
    for (Int v : candidates) {
        IntVec params(prog.params.size(), v);
        try {
            uint64_t count =
                ir::countIterations(prog.nest, params, opts.maxPoints);
            if (count > opts.maxPoints) {
                last_error = "source space exceeds " +
                             std::to_string(opts.maxPoints) + " points";
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
    uint64_t count = nest.countIterations(en.params, cap);
    if (count > cap)
        en.emittedCapped = true;
    else
        en.emitted = collect(nest.depth(), count, [&](auto &&visit) {
            nest.forEachIteration(en.params, visit);
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

/** Oracle part 2: emitted visit order strictly lexicographic. */
void
oracleOrder(const Enumeration &en, EnumerationOracle &o)
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
    o.orderOk = true;
    std::ostringstream os;
    os << "emitted order verified on " << emitted.count << " point(s)";
    o.orderDetail = os.str();
}

/** Oracle part 3: fletcher64 footprints of both executions match. */
void
oracleDifferential(const ir::Program &prog,
                   const xform::TransformedNest &nest,
                   const ValidateOptions &opts, EnumerationOracle &o)
{
    std::vector<Int> candidates = opts.paramCandidates;
    if (prog.params.empty())
        candidates = {0};
    uint64_t rng = opts.seed;
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
                too_big = too_big || total > double(opts.maxElements);
            }
            if (!feasible || too_big) {
                skip = too_big ? "arrays exceed the element cap" : skip;
                continue;
            }
            for (int trial = 0; trial < opts.trials; ++trial) {
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
                nest.run(binds, xfm);
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
            os << opts.trials << " randomized trial(s), fletcher64 "
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

/**
 * Merge one enumeration cross-check outcome into a symbolic verdict.
 * Agreement strengthens the detail; a concrete violation that the
 * symbolic proof missed is itself a validation failure (divergence).
 */
void
mergeCrossCheck(CheckResult &r, bool oracle_ok,
                const std::string &oracle_detail)
{
    r.method = CheckMethod::SymbolicAndEnumeration;
    if (r.passed && !oracle_ok) {
        r.passed = false;
        r.detail = "cross-check divergence: symbolic proof passed but "
                   "enumeration found a violation -- " +
                   oracle_detail;
    } else if (r.passed) {
        r.detail += "; enumeration cross-check agrees (" +
                    oracle_detail + ")";
    } else if (oracle_ok) {
        r.detail += "; NOTE: enumeration at the cross-check binding "
                    "found no violation (the failure may need larger "
                    "parameters)";
    } else {
        r.detail += "; confirmed by enumeration -- " + oracle_detail;
    }
}

} // namespace

const char *
checkName(CheckKind k)
{
    switch (k) {
    case CheckKind::LatticeEquivalence:
        return "lattice-equivalence";
    case CheckKind::DependencePreservation:
        return "dependence-preservation";
    case CheckKind::DifferentialExecution:
        return "differential-execution";
    }
    return "unknown";
}

const char *
methodName(CheckMethod m)
{
    switch (m) {
    case CheckMethod::Symbolic:
        return "symbolic";
    case CheckMethod::SymbolicAndEnumeration:
        return "symbolic+enumeration";
    }
    return "unknown";
}

bool
ValidationReport::passed() const
{
    for (const CheckResult &c : checks)
        if (!c.passed)
            return false;
    return true;
}

std::string
ValidationReport::firstFailure() const
{
    for (const CheckResult &c : checks)
        if (!c.passed)
            return std::string(checkName(c.kind)) + ": " + c.detail;
    return "";
}

std::string
ValidationReport::render() const
{
    std::ostringstream os;
    os << "translation validation: " << (passed() ? "PASS" : "FAIL")
       << "\n";
    for (const CheckResult &c : checks) {
        os << "  " << checkName(c.kind) << " ["
           << methodName(c.method)
           << "]: " << (c.passed ? "pass" : "FAIL");
        if (!c.detail.empty())
            os << " -- " << c.detail;
        os << "\n";
    }
    return os.str();
}

EnumerationOracle
enumerationOracle(const ir::Program &prog,
                  const xform::TransformedNest &nest,
                  const ValidateOptions &opts)
{
    EnumerationOracle o;
    Enumeration en = enumerateBoth(prog, nest, opts);
    if (!en.feasible) {
        o.reason = en.skipReason;
        return o;
    }
    o.feasible = true;
    o.params = en.params;
    oracleLattice(prog, nest, en, o);
    oracleOrder(en, o);
    oracleDifferential(prog, nest, opts, o);
    return o;
}

ValidationReport
validate(const ir::Program &prog, const xform::TransformedNest &nest,
         const IntMatrix &dep_matrix, const ValidateOptions &opts)
{
    ValidationReport report;
    ProverOptions popts;
    popts.cancel = opts.cancel;

    // Symbolic first: a verdict for every space size and every
    // parameter value. Arithmetic faults propagate to the caller.
    SymbolicVerdict s1 = checkLatticeSymbolic(prog, nest, popts);
    SymbolicVerdict s2 =
        checkDependencesSymbolic(prog, nest, dep_matrix, popts);
    SymbolicVerdict s3 = checkBodySymbolic(prog, nest, popts);

    report.checks = {
        CheckResult{CheckKind::LatticeEquivalence, s1.passed,
                    CheckMethod::Symbolic, s1.detail},
        CheckResult{CheckKind::DependencePreservation, s2.passed,
                    CheckMethod::Symbolic, s2.detail},
        CheckResult{CheckKind::DifferentialExecution, s3.passed,
                    CheckMethod::Symbolic, s3.detail},
    };

    // Enumeration cross-check on small spaces: extra independent
    // evidence through completely different code. The symbolic verdict
    // stands unless the oracle finds a concrete violation the proof
    // missed -- that divergence is a failure, never a downgrade to
    // "skipped".
    if (opts.crossCheck) {
        if (opts.cancel)
            opts.cancel->spend(1);
        EnumerationOracle o = enumerationOracle(prog, nest, opts);
        if (o.feasible) {
            report.params = o.params;
            mergeCrossCheck(report.checks[0], o.latticeOk,
                            o.latticeDetail);
            mergeCrossCheck(report.checks[1], o.orderOk, o.orderDetail);
            if (o.differentialRan)
                mergeCrossCheck(report.checks[2], o.differentialOk,
                                o.differentialDetail);
        }
    }
    return report;
}

} // namespace anc::verify
