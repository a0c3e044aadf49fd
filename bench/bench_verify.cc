/**
 * @file
 * Symbolic translation-validation latency across nine orders of
 * magnitude of iteration-space size.
 *
 * The point of the figure: the symbolic prover's cost is a function of
 * nest depth and constraint count, NOT of trip count. A GEMM-shaped
 * triple nest with concrete bound M is validated at M = 10^1 .. 10^9
 * (10^27 iterations at the top -- unenumerable by ten orders of
 * magnitude), and three things are asserted, not just printed:
 *
 *   - every verdict is a PASS with all three checks decided (the
 *     serving path would refuse anything less);
 *   - deadline charge is flat: the CancelToken steps consumed at the
 *     largest M must stay within kStepFactor x the smallest M (the
 *     step count is deterministic, so this is the noise-free signal);
 *   - wall time is flat: the M = 10^9 point must finish within
 *     kBudgetFactor x the M = 10 point plus an absolute slack, which
 *     an O(points) enumeration path would miss by orders of magnitude.
 *
 * A parametric GEMM and banded SYR2K row ride along as the
 * production-shaped reference (symbolic over free parameters N, b).
 *
 * Output: BENCH_verify.json with per-point wall time, prover steps,
 * prover calls and verdict; tools/check_bench.py gates every point's
 * wall time and prover calls against the committed baseline's gate
 * block (a bound implication that loses its certificate shows up as a
 * prover call).
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/compiler.h"
#include "deps/dependence.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "verify/symbolic.h"
#include "verify/verify.h"

namespace {

using namespace anc;

constexpr double kBudgetFactor = 4.0;  //!< wall: within 4x of M = 10
constexpr double kBudgetSlackS = 0.05; //!< absolute timer-noise slack
constexpr double kStepFactor = 1.5;    //!< deterministic steps: near-flat

/** GEMM with a concrete trip count M per level: M^3 iterations. */
ir::Program
scaledGemm(Int m)
{
    ir::ProgramBuilder b(3);
    auto M = b.cst(m);
    auto c1 = b.cst(1);
    size_t arr_c = b.array("C", {M, M}, ir::DistributionSpec::wrapped(1));
    size_t arr_a = b.array("A", {M, M}, ir::DistributionSpec::wrapped(1));
    size_t arr_b = b.array("B", {M, M}, ir::DistributionSpec::wrapped(1));
    b.loop("i", b.cst(0), M - c1);
    b.loop("j", b.cst(0), M - c1);
    b.loop("k", b.cst(0), M - c1);
    auto vi = b.var(0), vj = b.var(1), vk = b.var(2);
    ir::Expr rhs = ir::Expr::binary(
        '+', ir::Expr::arrayRead(b.ref(arr_c, {vi, vj})),
        ir::Expr::binary('*', ir::Expr::arrayRead(b.ref(arr_a, {vi, vk})),
                         ir::Expr::arrayRead(b.ref(arr_b, {vk, vj}))));
    b.assign(b.ref(arr_c, {vi, vj}), rhs);
    return b.build();
}

std::vector<Int>
boundSweep()
{
    std::vector<Int> v;
    for (Int m = 10; m <= 1000000000; m *= 10)
        v.push_back(m);
    return v;
}

struct Point
{
    double wallS = 0.0; //!< best of 3 (least interference)
    uint64_t steps = 0; //!< deterministic deadline charge
    /** proveImplies calls of the lattice check: 0 when every bound
     * implication is discharged by its certificate. */
    size_t proverCalls = 0;
    bool passed = false;
};

Point
measureValidation(const core::Compilation &c)
{
    Point pt;
    pt.wallS = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        core::CancelToken token(1u << 22);
        bench::WallTimer timer;
        verify::ValidationReport r =
            verify::validate(c.program, c.nest(),
                             c.normalization.depMatrix, &token);
        pt.wallS = std::min(pt.wallS, timer.seconds());
        pt.steps = token.steps();
        pt.passed = r.passed() && r.checks.size() == 3;
    }
    pt.proverCalls =
        verify::checkLatticeSymbolic(c.program, c.nest()).byProver;
    return pt;
}

void
printVerifySweep()
{
    bench::JsonReport report("verify");
    report.flag("budget_factor", kBudgetFactor);
    report.flag("step_factor", kStepFactor);

    std::printf("\nsymbolic validation latency sweep (GEMM, concrete "
                "bound M)\n");
    std::printf("%14s %16s %12s %10s\n", "M", "iterations", "wall (us)",
                "steps");

    double firstWall = 0.0, lastWall = 0.0;
    uint64_t firstSteps = 0, lastSteps = 0;
    for (Int m : boundSweep()) {
        core::Compilation c = core::compile(scaledGemm(m));
        Point pt = measureValidation(c);
        if (!pt.passed)
            throw InternalError(
                "bench_verify: validation did not pass at M = " +
                std::to_string(m));
        if (m == boundSweep().front()) {
            firstWall = pt.wallS;
            firstSteps = pt.steps;
        }
        if (m == boundSweep().back()) {
            lastWall = pt.wallS;
            lastSteps = pt.steps;
        }
        double iters = double(m) * double(m) * double(m);
        std::printf("%14lld %16.3g %12.1f %10llu\n",
                    static_cast<long long>(m), iters, pt.wallS * 1e6,
                    static_cast<unsigned long long>(pt.steps));
        report.run("gemm_concrete", m, pt.wallS, 0.0, 0.0,
                   {{"steps", std::to_string(pt.steps)},
                    {"prover_calls", std::to_string(pt.proverCalls)},
                    {"passed", pt.passed ? "true" : "false"}});
    }

    // The headline property: validation cost independent of trip count.
    if (firstSteps == 0)
        throw InternalError("bench_verify: no prover steps recorded at "
                            "M = 10");
    if (lastSteps > uint64_t(kStepFactor * double(firstSteps)))
        throw InternalError(
            "bench_verify: prover steps are not flat in M: " +
            std::to_string(lastSteps) + " at M = 10^9 vs " +
            std::to_string(firstSteps) + " at M = 10 (budget " +
            std::to_string(kStepFactor) + "x)");
    if (lastWall > kBudgetFactor * firstWall + kBudgetSlackS)
        throw InternalError(
            "bench_verify: wall time is not flat in M: " +
            std::to_string(lastWall) + " s at M = 10^9 vs " +
            std::to_string(firstWall) + " s at M = 10 (budget " +
            std::to_string(kBudgetFactor) + "x + " +
            std::to_string(kBudgetSlackS) + " s)");

    // Production-shaped reference rows: parameters stay free symbols,
    // so the verdict covers every N (and the banded SYR2K's min/max
    // bounds exercise the multi-bound implication path).
    for (auto [name, make] :
         {std::pair<const char *, ir::Program (*)()>{
              "gemm_parametric", ir::gallery::gemm},
          std::pair<const char *, ir::Program (*)()>{
              "syr2k_banded", ir::gallery::syr2kBanded}}) {
        core::Compilation c = core::compile(make());
        Point pt = measureValidation(c);
        if (!pt.passed)
            throw InternalError(std::string("bench_verify: ") + name +
                                " validation did not pass");
        std::printf("%14s %16s %12.1f %10llu\n", name, "symbolic",
                    pt.wallS * 1e6,
                    static_cast<unsigned long long>(pt.steps));
        report.run(name, 0, pt.wallS, 0.0, 0.0,
                   {{"steps", std::to_string(pt.steps)},
                    {"prover_calls", std::to_string(pt.proverCalls)},
                    {"passed", pt.passed ? "true" : "false"}});
    }
    report.write();
}

void
BM_Verify_SymbolicGemmSmall(benchmark::State &state)
{
    core::Compilation c = core::compile(scaledGemm(10));
    for (auto _ : state)
        benchmark::DoNotOptimize(verify::validate(
            c.program, c.nest(), c.normalization.depMatrix));
}
BENCHMARK(BM_Verify_SymbolicGemmSmall)->Unit(benchmark::kMicrosecond);

void
BM_Verify_SymbolicGemmHuge(benchmark::State &state)
{
    core::Compilation c = core::compile(scaledGemm(1000000000));
    for (auto _ : state)
        benchmark::DoNotOptimize(verify::validate(
            c.program, c.nest(), c.normalization.depMatrix));
}
BENCHMARK(BM_Verify_SymbolicGemmHuge)->Unit(benchmark::kMicrosecond);

void
BM_Verify_SymbolicSyr2kParametric(benchmark::State &state)
{
    core::Compilation c = core::compile(ir::gallery::syr2kBanded());
    for (auto _ : state)
        benchmark::DoNotOptimize(verify::validate(
            c.program, c.nest(), c.normalization.depMatrix));
}
BENCHMARK(BM_Verify_SymbolicSyr2kParametric)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    printVerifySweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
