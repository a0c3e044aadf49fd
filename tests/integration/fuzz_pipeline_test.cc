/**
 * @file
 * Randomized whole-pipeline property tests ("fuzzing" the compiler):
 * generate random affine programs with in-range subscripts, run the
 * full access-normalization pipeline, and check the hard invariants --
 * the transformation is invertible and legal, transformed execution is
 * bit-identical to sequential execution, and (when the outer loop is
 * parallel) the simulated SPMD execution is too.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>

#include "../dsl/print_oracle.h"
#include "core/compiler.h"
#include "deps/dependence.h"
#include "dsl/parser.h"
#include "dsl/printer.h"
#include "certificate_oracle.h"
#include "dependence_oracle.h"
#include "enumeration_oracle.h"
#include "sim_walk_oracle.h"
#include "executor_oracle.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "ratmath/fault.h"
#include "ratmath/linalg.h"
#include "svc/service.h"

namespace anc {
namespace {

/** A randomly generated program plus its binding. */
struct GenProgram
{
    ir::Program prog;
    IntVec params; // always empty (concrete bounds keep ranges exact)
};

/**
 * Build a random program of the given depth: box/triangular bounds,
 * one or two statements of the form X[s...] = X[s...] + Y[t...], with
 * array extents computed so that every subscript stays in range. With
 * `bands`, the loops below the outermost are clipped to random bands
 * around the outer variable (and the inner one around the middle one
 * too), as in banded SYR2K, and the outer loop is long.
 */
GenProgram
generate(std::mt19937 &rng, size_t depth, bool bands = false)
{
    std::uniform_int_distribution<Int> extent(3, 6);
    std::uniform_int_distribution<Int> coef(-1, 1);
    std::uniform_int_distribution<Int> shift(0, 1);
    std::uniform_int_distribution<int> kind(0, 2);

    IntVec hi(depth);
    for (size_t k = 0; k < depth; ++k)
        hi[k] = bands ? std::uniform_int_distribution<Int>(
                            k == 0 ? 32 : 12, k == 0 ? 64 : 24)(rng)
                      : extent(rng);

    ir::ProgramBuilder b(depth);

    // Random subscript rows; each row is affine over the loop vars.
    auto random_sub = [&](bool force_var, size_t var) {
        IntVec row(depth, 0);
        bool nonzero = false;
        for (size_t k = 0; k < depth; ++k) {
            row[k] = coef(rng);
            nonzero = nonzero || row[k] != 0;
        }
        if (force_var || !nonzero)
            row[var] = 1;
        return row;
    };
    // 2-D arrays: dim 0 and dim 1 rows.
    size_t nsubs = 2;
    std::vector<IntVec> xrows, yrows;
    for (size_t d = 0; d < nsubs; ++d) {
        xrows.push_back(random_sub(d == 0, d % depth));
        yrows.push_back(random_sub(false, (d + 1) % depth));
    }
    Int xshift = shift(rng), yshift = shift(rng);

    // Extents: evaluate min/max of each row over the box [0, hi].
    auto range_of = [&](const IntVec &row) {
        Int lo = 0, up = 0;
        for (size_t k = 0; k < depth; ++k) {
            if (row[k] > 0)
                up += row[k] * hi[k];
            else
                lo += row[k] * hi[k];
        }
        return std::pair<Int, Int>(lo, up);
    };

    std::vector<ir::AffineExpr> xext, yext;
    IntVec xoff, yoff;
    for (size_t d = 0; d < nsubs; ++d) {
        auto [lo, up] = range_of(xrows[d]);
        xoff.push_back(-lo);
        xext.push_back(
            ir::AffineExpr::constant(Rational(up - lo + 1 + xshift), 0, 0));
        auto [lo2, up2] = range_of(yrows[d]);
        yoff.push_back(-lo2);
        yext.push_back(ir::AffineExpr::constant(
            Rational(up2 - lo2 + 1 + yshift), 0, 0));
    }
    ir::DistributionSpec dist =
        bands || kind(rng) == 0 ? ir::DistributionSpec::wrapped(1)
                       : (kind(rng) == 1 ? ir::DistributionSpec::blocked(1)
                                         : ir::DistributionSpec::wrapped(0));
    size_t ax = b.array("X", xext, dist);
    size_t ay = b.array("Y", yext, ir::DistributionSpec::wrapped(1));

    // Loops: i_0 in [0, hi_0]; deeper loops may start at an outer var.
    for (size_t k = 0; k < depth; ++k) {
        if (k > 0 && !bands && kind(rng) == 0)
            b.loop("i" + std::to_string(k), b.var(k - 1),
                   b.cst(hi[k]));
        else
            b.loop("i" + std::to_string(k), b.cst(0), b.cst(hi[k]));
    }
    // Bands: a * i_j - d <= i_k <= a' * i_j + e for an outer level j,
    // each side drawn or not; i_k stays within [0, hi_k].
    std::uniform_int_distribution<Int> slope(1, 2), width(0, 12);
    for (size_t k = 1; bands && k < depth; ++k) {
        for (size_t j = 0; j < k; ++j) {
            if (kind(rng) != 0)
                b.addLower(k, b.var(j).scaled(Rational(slope(rng))) -
                                  b.cst(width(rng)));
            if (kind(rng) != 0)
                b.addUpper(k, b.var(j).scaled(Rational(slope(rng))) +
                                  b.cst(width(rng)));
        }
    }

    auto make_ref = [&](size_t arr, const std::vector<IntVec> &rows,
                        const IntVec &off, Int extra) {
        std::vector<ir::AffineExpr> subs;
        for (size_t d = 0; d < rows.size(); ++d) {
            ir::AffineExpr e = b.cst(off[d] + (d == 0 ? extra : 0));
            for (size_t k = 0; k < depth; ++k)
                if (rows[d][k] != 0)
                    e = e + b.var(k).scaled(Rational(rows[d][k]));
            subs.push_back(e);
        }
        return b.ref(arr, subs);
    };

    // X[s] = X[s'] + Y[t]: the X read may be shifted by 0/1 in dim 0,
    // which creates constant-distance dependences.
    ir::ArrayRef lhs = make_ref(ax, xrows, xoff, 0);
    ir::Expr rhs = ir::Expr::binary(
        '+', ir::Expr::arrayRead(make_ref(ax, xrows, xoff, xshift)),
        ir::Expr::arrayRead(make_ref(ay, yrows, yoff, 0)));
    b.assign(lhs, rhs);
    return {b.build(), {}};
}

TEST(FuzzPipeline, HundredRandomProgramsSurviveNormalization)
{
    std::mt19937 rng(20260705);
    int value_checked = 0, parallel_checked = 0;
    for (int trial = 0; trial < 100; ++trial) {
        GenProgram g = generate(rng, 2 + size_t(trial % 2));
        SCOPED_TRACE("trial " + std::to_string(trial));

        core::Compilation c;
        ASSERT_NO_THROW(c = core::compile(g.prog));

        // Invariants on the transformation itself.
        EXPECT_TRUE(isInvertible(c.normalization.transform));
        EXPECT_TRUE(deps::isLegalTransformation(
            c.normalization.transform, c.normalization.depMatrix));

        // Transformed sequential execution matches the interpreter.
        ir::Bindings binds{g.params, {}};
        ir::ArrayStorage seq(g.prog, g.params), par(g.prog, g.params);
        seq.fillDeterministic(uint64_t(trial) + 1);
        par.fillDeterministic(uint64_t(trial) + 1);
        ir::run(g.prog, binds, seq);
        c.nest().run(binds, par);
        for (size_t a = 0; a < seq.numArrays(); ++a)
            ASSERT_EQ(seq.data(a), par.data(a)) << "array " << a;
        ++value_checked;

        // SPMD value check whenever the outer loop is parallel.
        if (c.plan.outerParallel) {
            numa::SimOptions opts;
            opts.processors = 3;
            opts.executeValues = true;
            opts.commMatrix = true;
            ir::ArrayStorage spmd(g.prog, g.params);
            spmd.fillDeterministic(uint64_t(trial) + 1);
            numa::Simulator sim(c.program, c.nest(), c.plan, opts);
            numa::SimStats st = sim.run(binds, &spmd);
            for (size_t a = 0; a < seq.numArrays(); ++a)
                ASSERT_EQ(seq.data(a), spmd.data(a)) << "array " << a;
            // Comm-matrix conservation holds on random programs too:
            // each origin's row sums to its remote-access counter.
            for (const numa::ProcStats &p : st.perProc) {
                uint64_t remote = 0, blocks = 0;
                for (const obs::CommEdge &e : p.comm) {
                    remote += e.remoteElements;
                    blocks += e.blockTransfers;
                }
                EXPECT_EQ(remote, p.remoteAccesses);
                EXPECT_EQ(blocks, p.blockTransfers);
            }
            // Full coverage: every iteration ran exactly once.
            uint64_t total = ir::forEachIteration(
                g.prog.nest, g.params, [](const IntVec &) {});
            EXPECT_EQ(st.totalIterations(), total);
            ++parallel_checked;
        }
    }
    EXPECT_EQ(value_checked, 100);
    EXPECT_GT(parallel_checked, 20);
}

/**
 * A random depth-4 nest over a 1-D array whose subscript coefficients
 * are mixed-sign values near 10^5: individual coefficients and extents
 * fit comfortably in 64 bits, but the legality stage's intermediate
 * products genuinely overflow (the 128-bit accumulators no longer
 * narrow back to 64 bits), so plain compile() throws and the resilient
 * driver must degrade. Trip counts stay at 2 per loop so the spaces
 * stay tiny and every tier the ladder tries is cheap to validate.
 */
GenProgram
generateOverflowing(std::mt19937 &rng)
{
    constexpr size_t depth = 3;
    std::uniform_int_distribution<Int> coef(80000, 120000);
    std::uniform_int_distribution<int> sign(0, 1);
    ir::ProgramBuilder b(depth);

    IntVec row(depth);
    Int span = 0, offset = 0;
    for (size_t k = 0; k < depth; ++k) {
        row[k] = coef(rng);
        if (k > 0 && sign(rng))
            row[k] = -row[k];
        span += row[k] < 0 ? -row[k] : row[k];
        offset += row[k] < 0 ? -row[k] : 0;
    }
    size_t ax = b.array("A", {b.cst(span + 1)},
                        ir::DistributionSpec::wrapped(0));
    for (size_t k = 0; k < depth; ++k)
        b.loop("i" + std::to_string(k), b.cst(0), b.cst(1));

    ir::AffineExpr sub = b.cst(offset);
    for (size_t k = 0; k < depth; ++k)
        sub = sub + b.var(k).scaled(Rational(row[k]));
    b.assign(b.ref(ax, {sub}),
             ir::Expr::binary('+',
                              ir::Expr::arrayRead(b.ref(ax, {sub})),
                              ir::Expr::number_(0.5)));
    return {b.build(), {}};
}

TEST(FuzzPipeline, LargeCoefficientProgramsDegradeGracefully)
{
    std::mt19937 rng(20260806);
    int overflowed = 0, validated = 0;
    for (int trial = 0; trial < 30; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        GenProgram g = generateOverflowing(rng);

        // The coefficients genuinely overflow the plain pipeline.
        bool plain_threw = false;
        try {
            core::compile(g.prog);
        } catch (const UserError &) {
            FAIL() << "generated program rejected as user error";
        } catch (const Error &) {
            plain_threw = true;
        }
        overflowed += plain_threw;

        // The resilient driver must absorb the same overflow.
        core::Compilation c;
        ASSERT_NO_THROW(c = core::compileResilient(g.prog));
        if (plain_threw) {
            EXPECT_TRUE(c.degraded());
            EXPECT_TRUE(c.diagnostics.hasWarnings());
        }
        if (c.degraded()) {
            // The degraded nest is proven equivalent to the source.
            EXPECT_TRUE(c.validated) << c.diagnostics.render();
            validated += c.validated;
        }
    }
    EXPECT_GT(overflowed, 15);
    EXPECT_GT(validated, 15);
}

#ifndef ANC_CORPUS_DIR
#define ANC_CORPUS_DIR "tests/integration/corpus"
#endif

TEST(FuzzPipeline, CorpusSeedsNeverCrashTheResilientDriver)
{
    namespace fs = std::filesystem;
    size_t seeds = 0, compiled = 0, degraded = 0, rejected = 0;
    for (const fs::directory_entry &ent :
         fs::directory_iterator(ANC_CORPUS_DIR)) {
        if (ent.path().extension() != ".an")
            continue;
        SCOPED_TRACE(ent.path().filename().string());
        ++seeds;
        std::ifstream in(ent.path());
        ASSERT_TRUE(in.good());
        std::stringstream buf;
        buf << in.rdbuf();

        dsl::ParseResult parsed;
        ASSERT_NO_THROW(parsed = dsl::parseProgramRecovering(buf.str()));
        if (!parsed.ok()) {
            EXPECT_FALSE(parsed.diagnostics.empty());
            ++rejected;
            continue;
        }
        core::Compilation c;
        ASSERT_NO_THROW(c = core::compileResilient(*parsed.program));
        ++compiled;
        // Hostile seeds still explain themselves: whatever rung the
        // compile landed on, the record builds and renders.
        obs::ExplainRecord e;
        ASSERT_NO_THROW(e = core::explain(c));
        EXPECT_EQ(e.degraded, c.degraded());
        EXPECT_FALSE(e.renderJson().empty());
        if (c.degraded()) {
            ++degraded;
            // Degradation is explained and the degraded result is
            // validated -- never silent, never unchecked.
            EXPECT_FALSE(c.diagnostics.empty());
            EXPECT_TRUE(c.validated) << c.diagnostics.render();
        }
    }
    EXPECT_GE(seeds, 6u);
    EXPECT_GE(compiled, 4u);
    EXPECT_GE(degraded, 1u); // the overflow seeds really degrade
    EXPECT_GE(rejected, 1u); // the malformed seed really is rejected
}

TEST(FuzzPipeline, BatchCorpusSeedsNeverCrashTheService)
{
    // The .anb corpus seeds are hostile batch files -- truncated
    // mid-loop, operator soup, separator-only, binary noise -- mixed
    // with well-formed chunks. The service must shed the garbage
    // request by request and still serve every well-formed neighbor:
    // one poisoned chunk never takes down its batch.
    namespace fs = std::filesystem;
    size_t seeds = 0, requests = 0, shed = 0, served = 0;
    for (const fs::directory_entry &ent :
         fs::directory_iterator(ANC_CORPUS_DIR)) {
        if (ent.path().extension() != ".anb")
            continue;
        SCOPED_TRACE(ent.path().filename().string());
        ++seeds;
        std::ifstream in(ent.path());
        ASSERT_TRUE(in.good());
        std::stringstream buf;
        buf << in.rdbuf();

        std::vector<svc::BatchRequest> batch;
        ASSERT_NO_THROW(batch = svc::parseBatch(buf.str()));
        svc::Service s((svc::ServiceOptions()));
        std::vector<svc::Response> rs;
        ASSERT_NO_THROW(rs = s.runBatch(batch));
        ASSERT_EQ(rs.size(), batch.size());
        for (const svc::Response &r : rs) {
            ++requests;
            if (r.verdict == svc::Verdict::Shed) {
                ++shed;
                EXPECT_FALSE(r.diagnostics.empty()) << r.id;
            } else {
                ++served;
                EXPECT_TRUE(r.verdict == svc::Verdict::Compiled ||
                            r.verdict == svc::Verdict::Cached ||
                            r.verdict == svc::Verdict::Degraded)
                    << r.id;
            }
        }
    }
    EXPECT_GE(seeds, 4u);
    EXPECT_GE(requests, 8u);
    EXPECT_GE(shed, 4u);   // the garbage chunks really are shed
    EXPECT_GE(served, 3u); // the well-formed neighbors still compile
}

TEST(FuzzPipeline, JournalCorpusSeedsReplayCrashTolerantly)
{
    // The .jrn corpus seeds are damaged durable cache journals: one
    // truncated mid-append (a crash), one with bit flips in a key, a
    // checksum, and a whole line of binary noise. Replay must keep
    // every intact line, reject every damaged one, never throw -- and
    // a service restored from the damage must still serve normally.
    namespace fs = std::filesystem;
    size_t seeds = 0;
    for (const fs::directory_entry &ent :
         fs::directory_iterator(ANC_CORPUS_DIR)) {
        if (ent.path().extension() != ".jrn")
            continue;
        SCOPED_TRACE(ent.path().filename().string());
        ++seeds;
        std::ifstream in(ent.path(), std::ios::binary);
        ASSERT_TRUE(in.good());
        std::stringstream buf;
        buf << in.rdbuf();

        svc::JournalReplay rep;
        ASSERT_NO_THROW(rep = svc::PlanCache::replayJournal(buf.str()));
        std::string name = ent.path().filename().string();
        if (name == "journal_truncated.jrn") {
            EXPECT_TRUE(rep.truncatedTail);
            EXPECT_EQ(rep.corruptLines, 0u);
            EXPECT_EQ(rep.events.size(), 7u);
        } else if (name == "journal_bitflip.jrn") {
            EXPECT_FALSE(rep.truncatedTail);
            EXPECT_EQ(rep.corruptLines, 3u);
            EXPECT_EQ(rep.events.size(), 5u);
        }

        svc::Service s((svc::ServiceOptions()));
        ASSERT_NO_THROW(s.restoreCacheJournal(buf.str()));
        svc::Response r = s.serveSource("after-replay", R"(param N
array C(N, N) distribute wrapped(1)
array A(N, N) distribute wrapped(1)
array B(N, N) distribute wrapped(1)

for i = 0, N-1
  for j = 0, N-1
    for k = 0, N-1
      C[i, j] = C[i, j] + A[i, k] * B[k, j]
)");
        EXPECT_EQ(r.verdict, svc::Verdict::Compiled) << name;
        EXPECT_TRUE(r.validated) << name;
    }
    EXPECT_EQ(seeds, 2u);

    // Pure binary noise is not a journal at all: every line rejects,
    // nothing throws.
    std::string noise;
    for (int i = 0; i < 4096; ++i)
        noise += char(i * 131 + 7);
    svc::JournalReplay rep;
    ASSERT_NO_THROW(rep = svc::PlanCache::replayJournal(noise));
    EXPECT_TRUE(rep.events.empty());
    EXPECT_GT(rep.corruptLines + (rep.truncatedTail ? 1u : 0u), 0u);
}

TEST(FuzzPipeline, TimeBoxedRandomSmoke)
{
    // CI sets ANC_FUZZ_SECONDS for a longer soak and a fresh
    // ANC_FUZZ_SEED per run; the defaults keep local ctest fast and
    // reproducible. Interleaves well-formed, overflowing, and
    // fault-injected compilations; nothing may escape compileResilient,
    // and every result's compiled loop bounds and executor runs must
    // match the rational oracle's.
    double seconds = 1.0;
    if (const char *s = std::getenv("ANC_FUZZ_SECONDS"))
        seconds = std::atof(s);
    uint64_t seed = 20260806;
    if (const char *s = std::getenv("ANC_FUZZ_SEED"))
        seed = std::strtoull(s, nullptr, 10);
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> mode(0, 4);
    std::uniform_int_distribution<uint64_t> site(1, 400);

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(seconds);
    uint64_t runs = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        int m = mode(rng);
        // Mode 4 draws a long three-deep nest whose inner bounds read
        // the outer variable, so that the simulator charges its slices
        // by stretches.
        GenProgram g = m == 1 ? generateOverflowing(rng)
                              : generate(rng, 2 + size_t(m >= 3), m == 4);
        if (m == 2 || m == 3)
            fault::armAt(site(rng));
        core::Compilation c;
        ASSERT_NO_THROW(c = core::compileResilient(g.prog))
            << "run " << runs << " mode " << m << " seed " << seed;
        fault::disarm();
        EXPECT_TRUE(c.degraded() || c.diagnostics.empty());
        // Explain is part of the crash surface under fuzz: a compile
        // the driver recovered must yield a well-formed (possibly
        // partial) record, never a second failure.
        obs::ExplainRecord e;
        ASSERT_NO_THROW(e = core::explain(c))
            << "run " << runs << " mode " << m << " seed " << seed;
        EXPECT_EQ(e.degraded, c.degraded());
        EXPECT_FALSE(e.renderJson().empty());
        // The walkers' integer bounds and the executor agree with the
        // rational oracle on the source and on every transformed nest
        // the compile produced.
        std::string tag =
            "run " + std::to_string(runs) + " seed " + std::to_string(seed);
        testutil::checkBoundsAgree(c.nest(), g.params, tag);
        // Every bound certificate the checker accepts is a proof.
        try {
            for (const std::string &why :
                 oracle::certificateDifferential(c.program, c.nest())
                     .disagreements)
                ADD_FAILURE() << tag << ": " << why;
        } catch (const Error &) {
            // Coefficients past 64 bits: neither side decides.
        }
        // Validation with the compile's dependence facts, and with the
        // facts of an analysis that also reports input dependences,
        // decides as with a fresh analysis of the source.
        auto factsAgree = [&](const IntMatrix &matrix,
                              const std::vector<deps::DependenceFamily> &fams,
                              bool imprecise, const char *what) {
            EXPECT_EQ(oracle::dependenceDifferential(c.program, c.nest(),
                                                     matrix, fams, imprecise)
                          .mismatch,
                      "")
                << tag << " " << what;
        };
        try {
            const xform::NormalizeResult &n = c.normalization;
            factsAgree(n.depMatrix, n.depFamilies, n.depsImprecise,
                       "compile facts");
            deps::DependenceInfo d = deps::analyzeDependences(c.program, true);
            factsAgree(d.matrix(c.program.nest.depth()), d.families,
                       d.imprecise, "input deps");
        } catch (const Error &) {
            // Coefficients past 64 bits: neither side decides.
        }
        // The append-only renderer matches the ostringstream oracle on
        // the source (or fails with the same error).
        auto rendered = [](auto &&render) {
            try {
                return render();
            } catch (const Error &e) {
                return std::string("error: ") + e.what();
            }
        };
        EXPECT_EQ(rendered([&] { return dsl::printDsl(g.prog); }),
                  rendered([&] { return testutil::oracleDsl(g.prog); }))
            << tag;
        ir::Bindings binds{g.params, {}};
        EXPECT_FALSE(testutil::checkSourceRun(g.prog, binds, tag));
        EXPECT_FALSE(testutil::checkNestRun(g.prog, c.nest(), binds, tag));
        // The simulator's stretch and per-position fast walks
        // (closed-form middle runs) complete wherever the naive walk
        // does, and then equal it, also on the symmetry-aggregated path
        // at P = 256.
        for (Int p : {1, 2, 3, 4, 256}) {
            numa::SimOptions opts;
            opts.processors = p;
            opts.hostThreads = 1;
            if (p == 256)
                opts.symmetry = numa::SymmetryMode::Force;
            oracle::WalkDifferential d = oracle::simWalkDifferential(
                c.program, c.nest(), c.plan, opts, binds);
            EXPECT_EQ(d.mismatch, "") << tag << " P=" << p;
        }
        ++runs;
    }
    EXPECT_GT(runs, 0u);
}

TEST(FuzzPipeline, RandomProgramsWithLegalityDisabledStayBijective)
{
    // Even without the legality pass, applyTransform must remain a
    // bijection on the iteration space (values may differ; the SET of
    // executed iterations may not).
    std::mt19937 rng(777777);
    for (int trial = 0; trial < 40; ++trial) {
        GenProgram g = generate(rng, 2);
        xform::NormalizeOptions opts;
        opts.enforceLegality = false;
        xform::NormalizeResult r;
        ASSERT_NO_THROW(r = xform::accessNormalize(g.prog, opts));
        std::map<IntVec, int> visited;
        r.nest->forEachIteration(g.params, [&](const IntVec &u) {
            visited[r.nest->oldIteration(u)] += 1;
        });
        std::map<IntVec, int> expected;
        ir::forEachIteration(g.prog.nest, g.params, [&](const IntVec &v) {
            expected[v] += 1;
        });
        ASSERT_EQ(visited, expected) << "trial " << trial;
    }
}

TEST(FuzzPipeline, RandomProgramsSurviveTranslationValidation)
{
    // The validator as the fuzz oracle: every random program compiled
    // through the full pipeline must also satisfy the independent
    // translation-validation checks. There is no skipped verdict:
    // every trial must come back fully validated, and on these
    // concrete-bound (enumerable) programs the enumeration oracle must
    // reach the same verdict on the served nest.
    std::mt19937 rng(424242);
    for (int trial = 0; trial < 40; ++trial) {
        GenProgram g = generate(rng, 2 + trial % 2);
        core::ResilientOptions ropts;
        ropts.base.validate = true;
        core::Compilation c;
        ASSERT_NO_THROW(c = core::compileResilient(g.prog, ropts))
            << "trial " << trial;
        ASSERT_TRUE(c.validation.passed())
            << "trial " << trial << "\n" << c.validation.render(c.program);
        ASSERT_EQ(c.validation.checks.size(), 3u);
        ASSERT_TRUE(c.validated) << "trial " << trial;
        ASSERT_EQ(c.validation.render(c.program).find("skipped"),
                  std::string::npos)
            << "trial " << trial << "\n" << c.validation.render(c.program);
        oracle::EnumerationOracle o =
            oracle::enumerationOracle(c.program, c.nest());
        ASSERT_TRUE(o.feasible) << "trial " << trial << ": " << o.reason;
        EXPECT_TRUE(o.allOk())
            << "trial " << trial << ": " << o.latticeDetail << " | "
            << o.orderDetail << " | " << o.differentialDetail;
        EXPECT_EQ(c.validation.passed(), o.allOk()) << "trial " << trial;
    }
}

} // namespace
} // namespace anc
