/**
 * @file
 * The integer executor held to the exact-rational interpreter.
 *
 * The library runs the IR through one compiled executor (ir/interp.h):
 * integer loop bounds, CompiledAffine subscripts and postfix rhs code.
 * The rational tree-walking interpreter it replaced is the oracle
 * (tests/ir/interp_oracle.h and tests/xform/bounds_oracle.h). Over the
 * gallery, the samples, the examples and the fuzz corpus seeds -- the
 * source program, its compiled nest and every nest the plan search
 * would enumerate -- both must give identical iteration counts, access
 * traces and fletcher64 footprints (FuzzPipeline.TimeBoxedRandomSmoke
 * runs the same check on random programs under a per-run CI seed).
 * Out-of-range, non-integral and overflowing subscripts must fail with
 * the same error class, and with the same message where the message
 * can reach a report. The executor's 128-bit folding may compute a
 * value whose rational evaluation overflows an intermediate; that case
 * is pinned below.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "core/compiler.h"
#include "dsl/parser.h"
#include "enumeration_oracle.h"
#include "executor_oracle.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "xform/search.h"

#ifndef ANC_SOURCE_DIR
#define ANC_SOURCE_DIR "."
#endif

namespace anc {
namespace {

using testutil::bindingFor;
using testutil::checkNestRun;
using testutil::checkSourceRun;

struct Named
{
    std::string name;
    ir::Program prog;
};

/** Every rhs form at once: all four operators (none commutes for the
 * other's operands), a scalar, an index value and reads. */
ir::Program
allOperators()
{
    ir::ProgramBuilder b(2);
    size_t pn = b.param("N");
    size_t alpha = b.scalar("alpha");
    ir::AffineExpr n = b.par(pn);
    size_t arr_a = b.array("A", {n, n});
    size_t arr_b = b.array("B", {n + n, n});
    b.loop("i", b.cst(0), n - b.cst(1));
    b.loop("j", b.var(0), n - b.cst(1));
    auto vi = b.var(0), vj = b.var(1);
    using E = ir::Expr;
    E lhs = E::binary('-', E::arrayRead(b.ref(arr_b, {vi + vj, vi})),
                      E::scalar(alpha));
    E rhs = E::binary('/', E::arrayRead(b.ref(arr_a, {vj, vi})),
                      E::indexValue(vi + vi + b.cst(3)));
    b.assign(b.ref(arr_a, {vi, vj}),
             E::binary('*', E::binary('+', lhs, rhs),
                       E::binary('-', E::number_(0.5),
                                 E::arrayRead(b.ref(arr_a, {vi, vj})))));
    return b.build();
}

/** A program using every rhs form, the gallery kernels, then every
 * parsable .an file among the samples, the examples and the fuzz
 * corpus seeds. */
std::vector<Named>
programs()
{
    std::vector<Named> out = {
        {"allOperators", allOperators()},
        {"figure1", ir::gallery::figure1()},
        {"section3", ir::gallery::section3Example()},
        {"scaling", ir::gallery::scalingExample()},
        {"section5", ir::gallery::section5Example()},
        {"gemm", ir::gallery::gemm()},
        {"gemv", ir::gallery::gemv()},
        {"ger", ir::gallery::ger()},
        {"jacobi2d", ir::gallery::jacobi2d()},
        {"gaussSeidel", ir::gallery::gaussSeidel()},
        {"syr2kBanded", ir::gallery::syr2kBanded()},
        {"skewedScatter", ir::gallery::skewedScatter()},
    };
    namespace fs = std::filesystem;
    for (const char *dir :
         {"tools/samples", "examples", "tests/integration/corpus"}) {
        std::vector<fs::path> files;
        for (const fs::directory_entry &ent :
             fs::directory_iterator(fs::path(ANC_SOURCE_DIR) / dir))
            if (ent.path().extension() == ".an")
                files.push_back(ent.path());
        std::sort(files.begin(), files.end());
        for (const fs::path &file : files) {
            std::ifstream in(file);
            std::stringstream buf;
            buf << in.rdbuf();
            dsl::ParseResult parsed = dsl::parseProgramRecovering(buf.str());
            if (parsed.ok())
                out.push_back({std::string(dir) + "/" +
                                   file.filename().string(),
                               *parsed.program});
        }
    }
    return out;
}

/** True when the program is small enough to trace at this binding. */
bool
small(const ir::Program &prog, const ir::Bindings &binds)
{
    constexpr uint64_t kMaxPoints = 1 << 14;
    try {
        if (oracle::countIterations(prog.nest, binds.paramValues,
                                    kMaxPoints) > kMaxPoints)
            return false;
        for (const ir::ArrayDecl &a : prog.arrays) {
            double elements = 1;
            for (Int e : a.evalExtents(binds.paramValues))
                elements *= double(e);
            if (elements > double(1 << 20))
                return false;
        }
    } catch (const Error &) {
        return true; // both sides must fail alike
    }
    return true;
}

TEST(ExecutorOracleTest, GallerySamplesExamplesAndCorpusSeeds)
{
    uint64_t sources = 0, nests = 0, candidates = 0;
    size_t progs = 0;
    for (const Named &np : programs()) {
        const ir::Program &prog = np.prog;
        ++progs;
        core::Compilation c = core::compileResilient(prog);
        for (Int v : {1, 4, 6}) {
            ir::Bindings binds = bindingFor(prog, v);
            if (!small(prog, binds))
                continue;
            std::string what = np.name + " N=" + std::to_string(v);
            EXPECT_FALSE(checkSourceRun(prog, binds, what));
            ++sources;
            EXPECT_FALSE(checkNestRun(prog, c.nest(), binds, what));
            ++nests;
        }
        if (c.degraded())
            continue; // the normalization of a degraded rung is partial
        xform::SearchOptions so;
        so.enabled = true;
        ir::Bindings binds = bindingFor(prog, 4);
        if (!small(prog, binds))
            continue;
        std::set<std::string> seen;
        for (const xform::SearchCandidate &cand :
             xform::enumerateSearchCandidates(prog, c.normalization, so)) {
            if (!seen.insert(cand.transform.str()).second)
                continue;
            std::optional<xform::TransformedNest> nest;
            try {
                nest = xform::applyTransform(prog, cand.transform);
            } catch (const Error &) {
                continue;
            }
            EXPECT_FALSE(checkNestRun(prog, *nest, binds,
                                      np.name + " T=" +
                                          cand.transform.str()));
            ++candidates;
        }
    }
    EXPECT_GE(progs, 21u);
    EXPECT_GE(sources, 50u);
    EXPECT_GE(nests, 50u);
    EXPECT_GE(candidates, 300u);
}

TEST(ExecutorOracleTest, OutOfRangeSubscriptsFailAlike)
{
    // A[i + 1] over i = 0..N-1 on A(N): the last write is out of range,
    // after N - 1 good iterations.
    ir::ProgramBuilder b(1);
    size_t pn = b.param("N");
    size_t arr = b.array("A", {b.par(pn)});
    b.loop("i", b.cst(0), b.par(pn) - b.cst(1));
    b.assign(b.ref(arr, {b.var(0) + b.cst(1)}),
             ir::Expr::binary('+', ir::Expr::arrayRead(b.ref(arr, {b.var(0)})),
                              ir::Expr::number_(1.0)));
    ir::Program prog = b.build();
    ir::Bindings binds = bindingFor(prog, 5);
    EXPECT_FALSE(checkSourceRun(prog, binds, "out of range"));
    testutil::Observation o = testutil::observe(
        prog, binds, [&](const auto &bb, auto &s, const auto &t) {
            return ir::run(prog, bb, s, t);
        });
    EXPECT_EQ(o.error, "UserError");
    EXPECT_EQ(o.message, "subscript 5 out of range [0, 5) in dimension 0 "
                         "of 'A'");
    EXPECT_EQ(o.trace.size(), 2u * 4u + 1u); // the failing read happened
}

TEST(ExecutorOracleTest, NonIntegralSubscriptsFailAlike)
{
    // The scaling example under T = [2]: the body reads A[u] with
    // u = 2i, so the rewritten subscript is integral only on the
    // stride-2 lattice. A tampered nest that scans every integer u
    // reaches u = 3 first, where i = 3/2.
    ir::Program prog = ir::gallery::scalingExample();
    xform::TransformedNest good = xform::applyTransform(prog, IntMatrix{{2}});
    ASSERT_EQ(good.lattice().stride(0), 2);
    std::vector<xform::TransformedLoop> loops = good.loops();
    loops[0].stride = 1;
    xform::TransformedNest bad(good.transform(), good.inverseTransform(),
                               Lattice(IntMatrix::identity(1)), loops,
                               good.body());
    ir::Bindings binds = bindingFor(prog, 0);
    EXPECT_FALSE(checkNestRun(prog, bad, binds, "tampered lattice"));
    testutil::Observation o = testutil::observe(
        prog, binds, [&](const auto &bb, auto &s, const auto &t) {
            return bad.run(bb, s, t);
        });
    EXPECT_EQ(o.error, "InternalError");
    EXPECT_EQ(o.message, "asInteger on non-integer rational 3/2");
}

TEST(ExecutorOracleTest, OverflowingSubscriptsFailAlike)
{
    // A[2^62 i] at i = 2 is 2^63: out of 64-bit range on both sides.
    ir::ProgramBuilder b(1);
    size_t arr = b.array("A", {b.cst(4)});
    b.loop("i", b.cst(2), b.cst(3));
    b.assign(b.ref(arr, {b.var(0).scaled(Rational(Int(1) << 62))}),
             ir::Expr::number_(1.0));
    ir::Program prog = b.build();
    ir::Bindings binds = bindingFor(prog, 0);
    EXPECT_FALSE(checkSourceRun(prog, binds, "overflow"));
    testutil::Observation o = testutil::observe(
        prog, binds, [&](const auto &bb, auto &s, const auto &t) {
            return ir::run(prog, bb, s, t);
        });
    EXPECT_EQ(o.error, "OverflowError");
}

TEST(ExecutorOracleTest, WideIntermediatesMayRescueAnOverflow)
{
    // A[i + N - M] with N = M = 2^63 - 1. The rational oracle adds the
    // terms left to right and overflows at i + N for i >= 1; the
    // executor folds N - M = 0 in 128 bits first and writes A[i].
    ir::ProgramBuilder b(1);
    size_t pn = b.param("N");
    size_t pm = b.param("M");
    size_t arr = b.array("A", {b.cst(4)});
    b.loop("i", b.cst(0), b.cst(3));
    b.assign(b.ref(arr, {b.var(0) + b.par(pn) - b.par(pm)}),
             ir::Expr::number_(1.0));
    ir::Program prog = b.build();
    Int big = std::numeric_limits<Int>::max();
    ir::Bindings binds{{big, big}, {}};
    EXPECT_TRUE(checkSourceRun(prog, binds, "rescued overflow"));
    ir::ArrayStorage store(prog, binds.paramValues);
    EXPECT_EQ(ir::run(prog, binds, store), 4u);
    EXPECT_EQ(store.data(0), (std::vector<double>{1, 1, 1, 1}));
    ir::ArrayStorage oracle(prog, binds.paramValues);
    EXPECT_THROW(testutil::run(prog, binds, oracle), OverflowError);
}

TEST(ExecutorOracleTest, CountIterationsStopsJustPastTheLimit)
{
    ir::Program prog = ir::gallery::syr2kBanded();
    core::Compilation c = core::compile(prog);
    for (Int n : {1, 4, 9}) {
        IntVec params(prog.params.size(), n);
        uint64_t exact = testutil::forEachIteration(prog.nest, params,
                                                    [](const IntVec &) {});
        uint64_t emitted = testutil::forEachIteration(
            c.nest(), params, [](const IntVec &) {});
        ASSERT_EQ(exact, emitted);
        for (uint64_t limit : {uint64_t(0), exact / 2, exact, exact * 2}) {
            uint64_t want = std::min(exact, limit + 1);
            EXPECT_EQ(oracle::countIterations(prog.nest, params, limit),
                      want)
                << "N=" << n << " limit=" << limit;
            EXPECT_EQ(oracle::countIterations(c.nest(), params, limit),
                      want)
                << "N=" << n << " limit=" << limit;
        }
    }
    // A space of 10^27 points is refused after a few thousand steps.
    ir::ProgramBuilder b(3);
    Int m = 1000000000;
    b.array("A", {b.cst(1)});
    for (int k = 0; k < 3; ++k)
        b.loop("i" + std::to_string(k), b.cst(0), b.cst(m - 1));
    b.assign(b.ref(0, {b.cst(0)}), ir::Expr::number_(1.0));
    EXPECT_EQ(oracle::countIterations(b.build().nest, {}, 1 << 18),
              (1u << 18) + 1);
}

} // namespace
} // namespace anc
