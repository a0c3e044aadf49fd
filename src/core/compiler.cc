#include "core/compiler.h"

#include <optional>
#include <sstream>

#include "ir/printer.h"
#include "obs/explain.h"
#include "verify/verify.h"
#include "xform/stride.h"

namespace anc::core {

const char *
tierName(CompileTier t)
{
    switch (t) {
    case CompileTier::Full:
        return "full";
    case CompileTier::Unimodular:
        return "unimodular";
    case CompileTier::Identity:
        return "identity";
    }
    return "unknown";
}

namespace {

/** One deadline step per pipeline phase boundary (see core/cancel.h). */
void
tick(CancelToken *cancel)
{
    if (cancel)
        cancel->spend();
}

/**
 * Dependence matrix assumed when dependence analysis itself failed: a
 * single outer-carried distance. The identity transformation trivially
 * respects it, the planner sees a carried dependence on the outermost
 * loop (so outer iterations synchronize), and no restructuring is ever
 * attempted against it.
 */
IntMatrix
conservativeDepMatrix(size_t n)
{
    IntMatrix d(n, 1);
    if (n > 0)
        d(0, 0) = 1;
    return d;
}

/** What a recoverable stage failure does. */
enum class OnFailure
{
    Rethrow, //!< compile(): the original exception escapes
    Degrade, //!< compileResilient(): record it and drop one rung
};

Stage
stageOf(xform::NormalizeStep s)
{
    switch (s) {
    case xform::NormalizeStep::Basis:
        return Stage::Normalize;
    case xform::NormalizeStep::LegalBasis:
    case xform::NormalizeStep::LegalInvertible:
    case xform::NormalizeStep::Padding:
        return Stage::Legality;
    case xform::NormalizeStep::Apply:
        return Stage::Transform;
    }
    return Stage::Normalize;
}

/**
 * A restructuring rung (Full or Unimodular), with stage provenance: the
 * caller's `stage` always names the stage that is executing, so a catch
 * site knows exactly where a throw came from.
 */
xform::NormalizeResult
normalizeRung(const ir::Program &prog, const xform::AccessMatrixInfo &access,
              const deps::DependenceInfo &dinfo,
              const xform::NormalizeOptions &nopts, bool unimodular,
              Stage &stage, obs::PhaseClock &pc, CancelToken *cancel)
{
    std::optional<obs::PhaseClock::Scope> span;
    return xform::normalize(prog, access, dinfo, nopts, unimodular,
                            [&](xform::NormalizeStep s) {
                                span.reset();
                                stage = stageOf(s);
                                tick(cancel);
                                span.emplace(pc, xform::stepName(s));
                            });
}

/**
 * The identity rung: the original nest, round-robin outer distribution.
 * It needs neither analysis; a missing dependence analysis is replaced
 * by the conservative outer-carried matrix.
 */
xform::NormalizeResult
identityRung(const ir::Program &prog,
             const std::optional<xform::AccessMatrixInfo> &access,
             const std::optional<deps::DependenceInfo> &dinfo,
             Stage &stage, obs::PhaseClock &pc, CancelToken *cancel)
{
    size_t n = prog.nest.depth();
    stage = Stage::Transform;
    tick(cancel);
    xform::NormalizeResult r;
    if (access)
        r.access = *access;
    if (dinfo) {
        r.depMatrix = dinfo->matrix(n);
        r.depFamilies = dinfo->families;
        r.depsImprecise = dinfo->imprecise;
    } else {
        r.depMatrix = conservativeDepMatrix(n);
        r.depsImprecise = true;
    }
    r.transform = IntMatrix::identity(n);
    r.basis = r.transform;
    r.legal = r.transform;
    r.unimodular = true;
    auto s = pc.phase("apply-transform");
    r.nest = xform::applyTransform(prog, r.transform);
    return r;
}

/**
 * Simulator-scored plan search (xform/search.h): replace the heuristic
 * nest and plan when a symbolically validated candidate beats the
 * heuristic at every swept machine size. Any recoverable failure keeps
 * the heuristic plan -- the search never degrades the tier and never
 * crashes a compile; only deadline exhaustion and UserError propagate.
 */
void
runPlanSearch(Compilation &c, const CompileOptions &opts,
              obs::PhaseClock &pc)
{
    if (!opts.search.enabled || c.normalization.conservativeFallback ||
        !c.normalization.nest)
        return;
    tick(opts.cancel);
    auto s = pc.phase("plan-search");
    try {
        c.search = xform::searchPlan(c.program, c.normalization, c.plan,
                                     opts.search, opts.cancel);
        if (!c.search.ran || !c.search.improved || !c.search.nest)
            return;
        xform::adoptTransform(c.normalization, c.search.transform);
        c.normalization.nest = c.search.nest;
        c.plan = c.search.plan;
        double winner_total = 0, heur_total = 0;
        for (double v : c.search.winnerTimesUs)
            winner_total += v;
        for (double v : c.search.heuristicTimesUs)
            heur_total += v;
        c.diagnostics.note(
            Stage::Plan,
            "plan search adopted '" + c.search.winnerOrigin +
                "' (simulated total " + std::to_string(winner_total) +
                " us vs heuristic " + std::to_string(heur_total) +
                " us)");
    } catch (const UserError &) {
        throw;
    } catch (const Error &e) {
        c.search = {};
        c.diagnostics.warning(
            Stage::Plan, "plan search failed; keeping the heuristic plan",
            e.what());
    }
}

/**
 * Plan, search and strength-reduce (Full rung only), and emit for the
 * current nest.
 */
void
planAndEmit(Compilation &c, bool with_access, bool full,
            const CompileOptions &opts, Stage &stage, obs::PhaseClock &pc)
{
    c.search = xform::SearchResult{}; // no stale record across rungs
    stage = Stage::Plan;
    tick(opts.cancel);
    {
        auto s = pc.phase("plan");
        c.plan = codegen::planCodegen(c.program, *c.normalization.nest,
                                      c.normalization.depMatrix,
                                      with_access ? &c.normalization.access
                                                  : nullptr);
    }
    if (full)
        runPlanSearch(c, opts, pc);
    c.strengthReduction.clear();
    if (full) {
        stage = Stage::StrengthReduce;
        tick(opts.cancel);
        auto s = pc.phase("strength-reduce");
        c.strengthReduction =
            codegen::planStrengthReduction(*c.normalization.nest);
    }
    stage = Stage::Emit;
    tick(opts.cancel);
    auto s = pc.phase("emit");
    c.nodeProgram = codegen::emitNodeProgram(
        c.program, *c.normalization.nest, c.plan,
        c.strengthReduction.empty() ? nullptr : &c.strengthReduction);
}

/**
 * The one compile pipeline: program validation, the shared analyses,
 * then the ladder rungs (Full -> Unimodular -> Identity), each running
 * normalize -> plan -> search -> strength-reduce -> emit -> validate.
 * Under Rethrow only the first rung runs and any failure escapes with
 * its original type; under Degrade every stage sits in a recovery
 * boundary, a failure drops one rung, and every degraded result is
 * translation-validated whether or not the caller asked.
 */
Compilation
runPipeline(ir::Program prog, const CompileOptions &opts, OnFailure policy)
{
    const bool degrade = policy == OnFailure::Degrade;
    Compilation c;
    c.program = std::move(prog);
    Diagnostics &diags = c.diagnostics;
    obs::PhaseClock pc(&c.phaseTimes, opts.trace, opts.tracePid);
    CancelToken *cancel = opts.cancel;

    // A recovery boundary around one whole-program step: UserError is
    // the caller's to fix and always propagates.
    auto guarded = [&](Stage stage, const char *phase, const char *summary,
                       auto &&body) {
        tick(cancel);
        try {
            auto s = pc.phase(phase);
            body();
        } catch (const UserError &) {
            throw;
        } catch (const Error &e) {
            if (!degrade)
                throw;
            diags.warning(stage, summary, e.what());
        }
    };
    // A recoverable fault inside validation (e.g. arithmetic overflow)
    // says nothing about the program's structure.
    guarded(Stage::Validate, "validate",
            "program validation aborted by a recoverable fault; continuing",
            [&] { c.program.validate(); });
    // Losing the access matrix or the dependence information only
    // disables restructuring; the identity rung needs neither.
    const xform::NormalizeOptions &nopts = opts.normalize;
    std::optional<xform::AccessMatrixInfo> access;
    guarded(Stage::Normalize, "access-matrix",
            "data access matrix construction failed; restructuring "
            "disabled",
            [&] {
                access = xform::buildAccessMatrix(c.program,
                                                  nopts.useDistributionHint);
            });
    std::optional<deps::DependenceInfo> dinfo;
    guarded(Stage::Dependence, "dependence",
            "dependence analysis failed; assuming an outer-carried "
            "dependence and compiling the original nest",
            [&] {
                dinfo = deps::analyzeDependences(c.program,
                                                 nopts.includeInputDeps);
            });

    std::vector<CompileTier> rungs;
    if (!opts.identityTransform && access && dinfo)
        rungs = {CompileTier::Full, CompileTier::Unimodular};
    rungs.push_back(CompileTier::Identity);
    if (!degrade)
        rungs.resize(1);

    std::string last_error;
    for (CompileTier tier : rungs) {
        Stage stage = Stage::Normalize;
        pc.setTier(tierName(tier));
        try {
            c.normalization =
                tier == CompileTier::Identity
                    ? identityRung(c.program, access, dinfo, stage, pc,
                                   cancel)
                    : normalizeRung(c.program, *access, *dinfo, nopts,
                                    tier == CompileTier::Unimodular, stage,
                                    pc, cancel);
            planAndEmit(c, access.has_value(), tier == CompileTier::Full,
                        opts, stage, pc);
            c.tier = tier;

            if (c.normalization.conservativeFallback)
                diags.warning(Stage::Legality,
                              "imprecise dependence family rejected the "
                              "candidate transformation; compiled the "
                              "original nest instead");
            if (c.normalization.unimodularDropped > 0)
                diags.note(
                    Stage::Legality,
                    "dropped " +
                        std::to_string(c.normalization.unimodularDropped) +
                        " basis row(s) to keep the transformation "
                        "unimodular");
            if (degrade && c.tier != CompileTier::Full)
                diags.note(Stage::Driver,
                           std::string("compilation degraded to the '") +
                               tierName(c.tier) + "' tier");

            if (opts.validate || (degrade && c.degraded())) {
                stage = Stage::TranslationValidate;
                tick(cancel);
                auto s = pc.phase("translation-validate");
                if (!c.search.validation.checks.empty()) {
                    // The search validated the nest it won with, and
                    // which runPlanSearch adopted, on this program and
                    // depMatrix: adopt that report. Its steps are charged
                    // again, as validating anew charged them, so a request
                    // spends the same steps and meets its deadline at the
                    // same point either way.
                    c.validation = std::move(c.search.validation);
                    for (uint64_t i = 0; i < c.search.validationSteps; ++i)
                        tick(cancel);
                } else {
                    c.validation = verify::validate(
                        c.program, c.nest(), c.normalization.depMatrix,
                        c.normalization.depFamilies,
                        c.normalization.depsImprecise, cancel);
                }
                if (!c.validation.passed()) {
                    last_error = c.validation.firstFailure();
                    if (!degrade)
                        throw InternalError("translation validation failed: " +
                                            last_error);
                    diags.error(Stage::TranslationValidate,
                                std::string("tier '") + tierName(c.tier) +
                                    "' failed translation validation; "
                                    "degrading further",
                                last_error);
                    continue;
                }
                c.validated = true;
                diags.note(Stage::TranslationValidate,
                           "translation validation passed (symbolic, "
                           "all parameter values)");
            }
            return c;
        } catch (const UserError &) {
            throw;
        } catch (const Error &e) {
            if (!degrade)
                throw;
            last_error = e.what();
            diags.warning(stage,
                          std::string("tier '") + tierName(tier) +
                              "' failed in stage '" + stageName(stage) +
                              "'; degrading",
                          e.what());
        }
    }

    diags.error(Stage::Driver,
                "every tier of the degradation ladder failed",
                last_error);
    throw InternalError(
        "compileResilient: even the identity tier failed: " + last_error +
        "\ndiagnostics:\n" + diags.render());
}

} // namespace

Compilation
compile(ir::Program prog, const CompileOptions &opts)
{
    return runPipeline(std::move(prog), opts, OnFailure::Rethrow);
}

Compilation
compileResilient(ir::Program prog, const ResilientOptions &ropts)
{
    return runPipeline(std::move(prog), ropts.base, OnFailure::Degrade);
}

namespace {

std::string
vecStr(const IntVec &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i)
        s += (i ? " " : "") + std::to_string(v[i]);
    return s + "]";
}

std::string
matrixStr(const IntMatrix &m)
{
    std::string s = "[";
    for (size_t i = 0; i < m.rows(); ++i) {
        if (i)
            s += "; ";
        IntVec row = m.row(i);
        for (size_t j = 0; j < row.size(); ++j)
            s += (j ? " " : "") + std::to_string(row[j]);
    }
    return s + "]";
}

} // namespace

obs::ExplainRecord
explain(const Compilation &c)
{
    const xform::NormalizeResult &r = c.normalization;
    obs::ExplainRecord e;
    e.tier = tierName(c.tier);
    e.degraded = c.degraded();
    e.transform = matrixStr(r.transform);
    e.unimodular = r.unimodular;

    // --- Candidate trail. Identity compiles never build a candidate
    // basis, so their record carries no basis/legality trail: mark it
    // partial whether the caller asked for identity or the ladder fell
    // to it (a fault may even have kept the access matrix from being
    // built at all).
    bool identity_tier = c.tier == CompileTier::Identity;
    if (identity_tier && r.basisKeptRows.empty()) {
        e.partial = true;
        if (r.access.rows.empty())
            e.notes.push_back("no access matrix recorded: the compile "
                              "reached the identity rung before one "
                              "was built");
    }
    // Positions (into the candidate list) of rows that survived the
    // legality filter, for the unimodular-drop annotation below.
    std::vector<size_t> legal_kept;
    for (size_t i = 0; i < r.access.rows.size(); ++i) {
        const xform::AccessRow &row = r.access.rows[i];
        obs::ExplainCandidate cand;
        cand.accessRow = Int(i);
        cand.coeffs = vecStr(row.coeffs);
        cand.origin = row.origin;
        cand.count = row.count;
        cand.distDim = row.distDim;
        size_t kept_pos = r.basisKeptRows.size();
        for (size_t k = 0; k < r.basisKeptRows.size(); ++k)
            if (r.basisKeptRows[k] == i)
                kept_pos = k;
        if (identity_tier && r.basisKeptRows.empty()) {
            cand.stage = "basis";
            cand.verdict = "unused";
            cand.reason = "identity tier compiles the original nest";
        } else if (kept_pos == r.basisKeptRows.size()) {
            cand.stage = "basis";
            cand.verdict = "dropped";
            cand.reason =
                "linearly dependent on more important rows";
        } else if (kept_pos < r.legalTrail.size()) {
            const xform::LegalRowVerdict &v = r.legalTrail[kept_pos];
            cand.stage = "legality";
            cand.depsCarried = v.depsCarried;
            switch (v.action) {
            case xform::LegalRowVerdict::Action::Kept:
                cand.verdict = "kept";
                legal_kept.push_back(e.candidates.size());
                break;
            case xform::LegalRowVerdict::Action::Negated:
                cand.verdict = "reversed";
                cand.reason = "all dependence products non-positive: "
                              "kept with the loop reversed";
                legal_kept.push_back(e.candidates.size());
                break;
            case xform::LegalRowVerdict::Action::Discarded:
                cand.verdict = "dropped";
                cand.reason = "mixed dependence signs: the row would "
                              "run a dependence backwards";
                cand.violatedDep = v.violatedCol;
                break;
            }
        } else {
            cand.stage = "basis";
            cand.verdict = "kept";
            legal_kept.push_back(e.candidates.size());
        }
        e.candidates.push_back(std::move(cand));
    }
    // Under the unimodular restriction the trailing kept rows were
    // re-dropped.
    for (size_t k = 0; k < r.unimodularDropped && k < legal_kept.size();
         ++k) {
        obs::ExplainCandidate &cand =
            e.candidates[legal_kept[legal_kept.size() - 1 - k]];
        cand.verdict = "dropped";
        cand.reason =
            "dropped to keep the transformation unimodular";
        cand.depsCarried = 0;
    }
    // Synthesized rows of T: dependence-carrying projections first,
    // then identity padding (coefficients read off the chosen T).
    if (!identity_tier && !r.conservativeFallback) {
        size_t kept = legal_kept.size() >= r.unimodularDropped
                          ? legal_kept.size() - r.unimodularDropped
                          : 0;
        for (size_t i = kept; i < r.transform.rows(); ++i) {
            obs::ExplainCandidate cand;
            cand.coeffs = vecStr(r.transform.row(i));
            bool proj = i < kept + r.projectionRows;
            cand.origin = proj ? "dependence-carrying projection"
                               : "identity padding";
            cand.stage = "padding";
            cand.verdict = "kept";
            cand.reason = proj
                              ? "appended to carry the remaining "
                                "dependences (LegalInvt)"
                              : "identity row on a non-pivot column "
                                "completes an invertible T";
            e.candidates.push_back(std::move(cand));
        }
    }
    if (r.conservativeFallback)
        e.notes.push_back(
            "imprecise dependence family rejected the candidate "
            "transformation; the identity transformation was compiled "
            "instead");

    // --- Plan.
    switch (c.plan.scheme) {
    case numa::PartitionScheme::RoundRobin:
        e.scheme = "round-robin";
        break;
    case numa::PartitionScheme::OwnerWrapped:
        e.scheme = "owner-wrapped";
        break;
    case numa::PartitionScheme::OwnerBlocked:
        e.scheme = "owner-blocked";
        break;
    case numa::PartitionScheme::OwnerBlock2D:
        e.scheme = "owner-block2d";
        break;
    }
    e.planRationale = c.plan.rationale;
    e.tieBreak = c.plan.tieBreak;
    e.outerParallel = c.plan.outerParallel;
    e.hoists = c.plan.hoists.size();

    // --- Plan-search trail (empty, ran=false record when the search
    // was disabled or skipped).
    e.search.ran = c.search.ran;
    e.search.improved = c.search.improved;
    e.search.enumerated = c.search.enumerated;
    e.search.scored = c.search.scored;
    e.search.pruned = c.search.pruned;
    for (Int p : c.search.processorSweep)
        e.search.processorSweep.push_back(p);
    e.search.heuristicTimesUs = c.search.heuristicTimesUs;
    e.search.winnerTimesUs = c.search.winnerTimesUs;
    e.search.winnerOrigin = c.search.winnerOrigin;
    e.search.tieBreak = c.search.tieBreak;
    for (const xform::SearchScore &t : c.search.trail) {
        obs::ExplainSearchScore s;
        s.transform = t.transform;
        s.origin = t.origin;
        s.scheme = t.scheme;
        s.locality = t.locality;
        s.simTimesUs = t.simTimesUs;
        s.totalUs = t.totalUs;
        s.verdict = t.verdict;
        s.detail = t.detail;
        e.search.trail.push_back(std::move(s));
    }

    // --- Per-reference stride/contiguity scores under the chosen T.
    if (r.nest) {
        std::vector<xform::RefStride> strides =
            xform::analyzeInnerStrides(*r.nest);
        std::vector<size_t> read_idx(c.program.nest.body().size(), 0);
        for (const xform::RefStride &rs : strides) {
            obs::ExplainRefScore score;
            const std::string &name = c.program.arrays[rs.arrayId].name;
            size_t ri = 0;
            if (rs.isWrite) {
                score.ref = "stmt " + std::to_string(rs.stmt) +
                            " write " + name;
            } else {
                ri = read_idx[rs.stmt]++;
                score.ref = "stmt " + std::to_string(rs.stmt) + " read " +
                            std::to_string(ri) + " " + name;
            }
            std::string s = "[";
            for (size_t j = 0; j < rs.strides.size(); ++j)
                s += (j ? " " : "") + rs.strides[j].str();
            score.strides = s + "]";
            score.constantStride = rs.constantStride();
            score.singleDimension = rs.singleDimension();
            if (rs.isWrite) {
                score.verdict = "write (owner computes)";
            } else if (c.program.arrays[rs.arrayId].dist.kind ==
                       ir::DistKind::Replicated) {
                score.verdict = "replicated (always local)";
            } else {
                score.verdict = "element-wise access";
                for (const numa::BlockHoist &h : c.plan.hoists)
                    if (h.stmt == rs.stmt && h.readIdx == ri)
                        score.verdict =
                            h.level < 0
                                ? "block transfer (hoisted out of the "
                                  "nest)"
                                : "block transfer (hoisted above level " +
                                      std::to_string(h.level + 1) + ")";
            }
            e.refs.push_back(std::move(score));
        }
    } else {
        e.partial = true;
        e.notes.push_back("no transformed nest: reference scores "
                          "unavailable");
    }

    for (const Diagnostic &d : c.diagnostics.all())
        if (d.severity != Severity::Note)
            e.notes.push_back(d.render());
    return e;
}

std::string
Compilation::report() const
{
    std::ostringstream os;
    os << "=== source program ===\n"
       << ir::printProgram(program) << "\n";
    os << "=== access normalization ===\n"
       << xform::describe(normalization, program) << "\n";
    os << "=== NUMA code generation ===\n"
       << codegen::describePlan(plan, program) << "\n";
    if (tier != CompileTier::Full || !diagnostics.empty()) {
        os << "=== diagnostics ===\n"
           << "tier: " << tierName(tier) << "\n";
        os << diagnostics.render() << "\n";
    }
    if (!validation.checks.empty())
        os << "=== translation validation ===\n"
           << validation.render(program);
    os << "=== node program ===\n" << nodeProgram;
    return os.str();
}

numa::SimStats
simulate(const Compilation &c, const numa::SimOptions &opts,
         const ir::Bindings &binds)
{
    numa::Simulator sim(c.program, c.nest(), c.plan, opts);
    return sim.run(binds);
}

double
sequentialTime(const Compilation &c, const numa::MachineParams &machine,
               const IntVec &params)
{
    return numa::sequentialTime(c.program, c.nest(), machine, params);
}

} // namespace anc::core
