/**
 * @file
 * Compiler-pass cost ablation: how the paper's algorithms scale with
 * nest depth and matrix size. Not a paper figure -- a design-choice
 * ablation for the exact-arithmetic implementation (DESIGN.md): Hermite
 * normal form, Fourier-Motzkin elimination (both of its callers: the
 * loop-bound solve and the validator's implication proofs), the
 * legality algorithms, and the full pipeline.
 */

#include <benchmark/benchmark.h>

#include <random>

#include "bench_util.h"
#include "core/compiler.h"
#include "ir/builder.h"
#include "ratmath/hnf.h"
#include "ratmath/linalg.h"
#include "ratmath/smith.h"
#include "verify/symbolic.h"
#include "xform/legal.h"
#include "xform/transform.h"

namespace {

using namespace anc;

/** Random nonsingular matrix with small entries (deterministic seed). */
IntMatrix
randomMatrix(size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<Int> d(-4, 4);
    while (true) {
        IntMatrix m(n, n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                m(i, j) = d(rng);
        if (determinant(m) != 0)
            return m;
    }
}

/** A dense triangular nest of the given depth (one statement). */
ir::Program
deepNest(size_t depth)
{
    ir::ProgramBuilder b(depth);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    std::vector<ir::AffineExpr> subs;
    b.array("A", std::vector<ir::AffineExpr>(depth, N + b.cst(1)),
            ir::DistributionSpec::wrapped(depth - 1));
    for (size_t k = 0; k < depth; ++k) {
        if (k == 0)
            b.loop("i0", b.cst(0), N - b.cst(1));
        else
            b.loop("i" + std::to_string(k), b.var(k - 1), N - b.cst(1));
        subs.push_back(b.var(k));
    }
    // Skewed subscripts exercise the whole pipeline.
    for (size_t k = 0; k + 1 < depth; ++k)
        subs[k] = b.var(k) - b.var(k + 1) + N;
    b.assign(b.ref(0, subs),
             ir::Expr::binary('+', ir::Expr::arrayRead(b.ref(0, subs)),
                              ir::Expr::number_(1.0)));
    return b.build();
}

void
BM_Compile_ColumnHNF(benchmark::State &state)
{
    IntMatrix m = randomMatrix(size_t(state.range(0)), 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(columnHNF(m));
}
BENCHMARK(BM_Compile_ColumnHNF)->DenseRange(2, 8, 2);

void
BM_Compile_SmithForm(benchmark::State &state)
{
    IntMatrix m = randomMatrix(size_t(state.range(0)), 43);
    for (auto _ : state)
        benchmark::DoNotOptimize(smithForm(m));
}
BENCHMARK(BM_Compile_SmithForm)->DenseRange(2, 8, 2);

void
BM_Compile_MatrixInverse(benchmark::State &state)
{
    IntMatrix m = randomMatrix(size_t(state.range(0)), 44);
    for (auto _ : state)
        benchmark::DoNotOptimize(inverse(m));
}
BENCHMARK(BM_Compile_MatrixInverse)->DenseRange(2, 8, 2);

void
BM_Compile_FourierMotzkin(benchmark::State &state)
{
    // The bounds side of the engine: solveBounds on a bound-free nest.
    size_t depth = size_t(state.range(0));
    ir::Program p = deepNest(depth);
    xform::TransformedNest body =
        xform::transformBody(p, IntMatrix::identity(depth));
    for (auto _ : state)
        benchmark::DoNotOptimize(xform::solveBounds(p, body));
}
BENCHMARK(BM_Compile_FourierMotzkin)->DenseRange(2, 6, 1)
    ->Unit(benchmark::kMicrosecond);

void
BM_Compile_ProveBound(benchmark::State &state)
{
    // The prove side: the source bounds imply i_{depth-1} >= 0 only
    // through the whole chain i_{depth-1} >= ... >= i_0 >= 0, so the
    // proof projects every level.
    size_t depth = size_t(state.range(0));
    ir::Program p = deepNest(depth);
    std::vector<verify::SymConstraint> sys;
    for (const ir::AffineExpr &e : p.nest.constraints(1))
        sys.push_back(verify::makeConstraint(e, ""));
    verify::SymConstraint goal = verify::makeConstraint(
        ir::AffineExpr::variable(depth - 1, depth, 1), "");
    for (auto _ : state)
        benchmark::DoNotOptimize(verify::proveImplies(sys, goal));
}
BENCHMARK(BM_Compile_ProveBound)->DenseRange(2, 6, 1)
    ->Unit(benchmark::kMicrosecond);

void
BM_Compile_LegalInvt(benchmark::State &state)
{
    size_t n = size_t(state.range(0));
    IntMatrix basis(0, n);
    IntMatrix deps(n, 1);
    deps(n - 1, 0) = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(xform::legalInvertible(basis, deps));
}
BENCHMARK(BM_Compile_LegalInvt)->DenseRange(2, 8, 2);

void
BM_Compile_FullPipeline(benchmark::State &state)
{
    ir::Program p = deepNest(size_t(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(p));
}
BENCHMARK(BM_Compile_FullPipeline)->DenseRange(2, 5, 1)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    // No simulated workload here; the JSON records the wall cost of the
    // full compile pipeline per nest depth (P column carries the depth).
    bench::JsonReport report("compile");
    for (Int depth : {2, 3, 4, 5}) {
        ir::Program p = deepNest(size_t(depth));
        bench::WallTimer timer;
        core::Compilation c = core::compile(p);
        benchmark::DoNotOptimize(c);
        report.run("full_pipeline_depth", depth, timer.seconds(), 0.0);
    }
    report.write();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
