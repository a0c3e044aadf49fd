/**
 * @file
 * The access-normalizing NUMA compiler: the library's top-level API.
 *
 * compile() runs the paper's whole pipeline on a program --
 * dependence analysis, access normalization (Sections 2-6), NUMA code
 * generation planning (Section 7) -- and returns everything a client
 * needs: the transformation record, the executable transformed nest,
 * the SPMD plan, emitted node code, and helpers to simulate the result
 * on a modeled NUMA machine (Section 8).
 */

#ifndef ANC_CORE_COMPILER_H
#define ANC_CORE_COMPILER_H

#include <string>

#include "codegen/emit_c.h"
#include "codegen/planner.h"
#include "codegen/strength.h"
#include "core/cancel.h"
#include "core/diagnostics.h"
#include "numa/simulator.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "verify/verify.h"
#include "xform/normalize.h"
#include "xform/search.h"

namespace anc::core {

/** Options for one compilation. */
struct CompileOptions
{
    xform::NormalizeOptions normalize;
    /** Skip restructuring entirely: compile the original nest with
     * round-robin outer distribution (the paper's untransformed
     * "gemm"/"syr2k" baselines). */
    bool identityTransform = false;
    /** Run translation validation (verify::validate) on the result.
     * Under compile(), a validation failure throws InternalError; under
     * compileResilient(), it degrades the ladder one tier, making the
     * ladder self-checking (degraded results are validated even when
     * this is off). The report lands in Compilation::validation either
     * way. */
    bool validate = false;
    /**
     * Simulator-scored plan search (xform/search.h): when enabled, the
     * Full tier enumerates legal alternatives to the heuristic plan,
     * scores the survivors on the modeled machine, and adopts a
     * symbolically validated winner that beats the heuristic at every
     * swept machine size. Search failure always falls back to the
     * heuristic plan; it never degrades the tier and never crashes a
     * compile. All fields except hostThreads affect the selected plan
     * and are part of svc::planKey.
     */
    xform::SearchOptions search;
    /** Trace sink for wall-clock compiler-phase spans (null = off).
     * Phase wall times land in Compilation::phaseTimes regardless. */
    obs::Trace *trace = nullptr;
    /** Process track for the phase spans (see obs::Trace::process). */
    int64_t tracePid = 0;
    /**
     * Cooperative deadline (null = none): the pipeline charges one step
     * at every phase boundary it crosses, and an exhausted budget
     * throws DeadlineExceeded through every recovery boundary (it is
     * not an anc::Error, so compileResilient() cannot degrade past it).
     * The step count for a given (program, options, fault schedule) is
     * deterministic; see core/cancel.h.
     */
    CancelToken *cancel = nullptr;
};

/**
 * The rung of compileResilient()'s degradation ladder a compilation
 * came out of. Lower rungs give up optimization, never correctness.
 */
enum class CompileTier
{
    Full,       //!< full access normalization (scaling, HNF strides)
    Unimodular, //!< unimodular-only transformation (Banerjee's special
                //!< case: no scaling, no stride synthesis)
    Identity,   //!< original nest, round-robin outer distribution
};

const char *tierName(CompileTier t);

/** The result of compiling one program. */
struct Compilation
{
    ir::Program program;
    xform::NormalizeResult normalization;
    numa::ExecutionPlan plan;
    std::string nodeProgram; //!< emitted SPMD pseudo-code
    /** Induction plans for the divisions a non-unimodular T introduces
     * (empty for unimodular transformations). When non-empty,
     * nodeProgram is emitted in strength-reduced form. */
    std::vector<codegen::InductionPlan> strengthReduction;

    /** Wall-clock time of every pipeline phase that ran, in execution
     * order, annotated with the degradation-ladder rung it ran under.
     * Rungs that failed partway leave their phases here too: the record
     * answers "where did the compile time go", including time spent on
     * work that was then thrown away. */
    std::vector<obs::PhaseTime> phaseTimes;

    /** Ladder rung this result came out of (compile() runs only the
     * first: Full, or Identity under identityTransform). */
    CompileTier tier = CompileTier::Full;
    /** What was given up and why, with stage provenance. */
    Diagnostics diagnostics;
    /** Plan-search record (SearchResult::ran is false when the search
     * was disabled, skipped, or failed before enumerating). When the
     * search improved on the heuristic, `normalization` and `plan`
     * above already hold the winner. */
    xform::SearchResult search;
    /** Translation-validation verdict (empty checks list when
     * validation did not run: CompileOptions::validate was off and the
     * result was not degraded). */
    verify::ValidationReport validation;
    /** True when translation validation ran and every check passed
     * (there is no skipped verdict: a plan is validated or it is not). */
    bool validated = false;

    /** True when some optimization was given up: a lower ladder rung
     * was used, or normalization conservatively fell back to the
     * identity transformation. */
    bool
    degraded() const
    {
        return tier != CompileTier::Full ||
               normalization.conservativeFallback;
    }

    const xform::TransformedNest &nest() const
    {
        return *normalization.nest;
    }

    /** Full human-readable compilation report. */
    std::string report() const;
};

/**
 * Run the full pipeline: the first rung of compileResilient()'s ladder
 * only (Full, or Identity under identityTransform). Any failure escapes
 * with its original exception type; a validation failure throws
 * InternalError.
 */
Compilation compile(ir::Program prog, const CompileOptions &opts = {});

/** Options for resilient compilation; the ladder has no knobs of its own. */
struct ResilientOptions
{
    CompileOptions base;
};

/**
 * Never-crash compilation: walk the degradation ladder (full access
 * normalization -> unimodular-only -> identity transform), wrapping
 * every pipeline stage in a recovery boundary. Arithmetic overflow,
 * math errors, and internal invariant violations degrade the result to
 * a lower tier instead of escaping; the returned Compilation records
 * the tier reached and a diagnostic for everything given up. Every
 * degraded result is translation-validated (CompileOptions::validate or
 * not), and a result that fails validation drops one more rung.
 *
 * UserError (malformed input) still propagates: bad programs are the
 * caller's to fix, and the parser rejects them with line information.
 * The guarantee is: any program that validates compiles to a correct
 * plan, or -- only if even the identity rung fails, which no
 * non-adversarial input reaches -- throws InternalError carrying the
 * full diagnostic report.
 */
Compilation compileResilient(ir::Program prog,
                             const ResilientOptions &opts = {});

/**
 * Build the plan-explainability record for a finished compilation: the
 * candidate-basis trail (what BasisMatrix kept, what LegalBasis
 * reversed or rejected and which dependence killed it, what padding
 * completed T), the partition tie-break, and per-reference stride
 * scores under the chosen T. Pure function of the Compilation; degraded
 * results yield a well-formed (possibly partial) record.
 */
obs::ExplainRecord explain(const Compilation &c);

/** Simulate a compilation on a modeled NUMA machine. */
numa::SimStats simulate(const Compilation &c, const numa::SimOptions &opts,
                        const ir::Bindings &binds);

/** Sequential (one processor, all local) time for speedup baselines. */
double sequentialTime(const Compilation &c,
                      const numa::MachineParams &machine,
                      const IntVec &params);

} // namespace anc::core

#endif // ANC_CORE_COMPILER_H
