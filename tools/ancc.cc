/**
 * @file
 * ancc -- the access-normalizing NUMA compiler, as a command-line tool.
 *
 * Run `ancc --help` for the option list; it is generated from the same
 * option table the parser dispatches on (kOptSpecs below), so the two
 * cannot drift apart.
 *
 * Exit status:
 *   0  success
 *   1  user error (bad arguments, unreadable file, malformed program)
 *   2  internal error (a compiler bug; please report)
 *   3  compilation succeeded but degraded (only with --strict)
 *   4  input exceeds a limit (e.g. a simulation whose counters would
 *      leave 64 bits; not a bug)
 *
 * For testing the recovery ladder end to end, the environment variable
 * ANCC_INJECT_FAULT=<n> arms the deterministic fault injector to throw
 * on the n-th checked arithmetic operation of the compilation
 * (ANCC_INJECT_KIND=math selects MathError instead of OverflowError).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/profile.h"
#include "dsl/parser.h"
#include "numa/comm.h"
#include "ratmath/fault.h"
#include "xform/suggest.h"

namespace {

using namespace anc;

struct Options
{
    std::string file;
    bool report = true;
    bool emit_only = false;
    bool restructure = true;
    bool suggest = false;
    bool block_transfers = true;
    bool strict = false;
    bool validate = false;
    bool search = false;
    Int search_budget = 0; //!< 0 = keep SearchOptions' default
    bool diag = false;
    bool profile = false;
    bool metrics = false;
    std::string metrics_file; //!< empty with metrics=true means stdout
    bool metrics_prom = false; //!< Prometheus exposition instead of JSON
    bool explain = false;
    std::string explain_file; //!< empty with explain=true means stdout text
    bool comm = false;
    std::string comm_file; //!< empty with comm=true means heatmap only
    std::string trace_file;
    std::vector<Int> processors;
    std::vector<std::pair<std::string, Int>> params;
    numa::MachineParams machine = numa::MachineParams::butterflyGP1000();
    numa::FaultOptions faults;
    numa::SymmetryMode symmetry = numa::SymmetryMode::Auto;
};

/** How an option consumes a value. */
enum class Arg
{
    None,     //!< flag only
    Required, //!< --opt=VALUE or --opt VALUE
    Optional, //!< bare --opt or --opt=VALUE (never the next argv)
};

/**
 * One command-line option: the single source of truth for both the
 * parser and the --help text.
 */
struct OptSpec
{
    const char *name;    //!< "--simulate"
    Arg arg;
    const char *valueHint; //!< "P=<list>"; "" when Arg::None
    const char *help;
};

const OptSpec kOptSpecs[] = {
    {"--report", Arg::None, "", "full pipeline report (default)"},
    {"--emit", Arg::None, "", "only the SPMD node program"},
    {"--no-restructure", Arg::None, "",
     "keep the original loop order (baseline)"},
    {"--suggest", Arg::None, "",
     "propose data distributions (Section 9 mode)"},
    {"--simulate", Arg::Required, "P=<list>",
     "simulate on the machine model, e.g. P=1,4,16"},
    {"--processors", Arg::Required, "<list>",
     "alias for --simulate; scales to planetary machines, e.g. "
     "-P 32,1048576"},
    {"-P", Arg::Required, "<list>", "short form of --processors"},
    {"--symmetry", Arg::Required, "auto|off|force",
     "symmetry-class aggregation: auto (default) aggregates runs "
     "above the threshold, off simulates every processor, force "
     "aggregates whenever the plan allows (results are bit-identical "
     "either way)"},
    {"--param", Arg::Required, "NAME=VALUE",
     "bind a program parameter (repeatable)"},
    {"--machine", Arg::Required, "gp1000|ipsc860",
     "machine model to simulate (default gp1000)"},
    {"--no-block-transfers", Arg::None, "",
     "charge element-wise remote accesses instead of hoisted blocks"},
    {"--inject-machine-fault", Arg::Required, "SPEC",
     "break the simulated machine deterministically, e.g. "
     "drop-transfer/8,remote-fail@3,kill:2@1 (see numa/fault_model.h); "
     "recovery costs show up in the simulation table and a fault "
     "report is printed per run"},
    {"--trace", Arg::Required, "FILE",
     "write a Chrome trace-event / Perfetto JSON trace of the "
     "compilation phases (wall clock) and every simulated run "
     "(simulated clock) to FILE"},
    {"--metrics", Arg::Optional, "FILE",
     "dump a counters/histograms snapshot as JSON to FILE (stdout "
     "when no FILE)"},
    {"--metrics-format", Arg::Required, "json|prom",
     "metrics output format: json (default) or prom (Prometheus "
     "text exposition, stable ordering)"},
    {"--explain", Arg::Optional, "FILE",
     "explain the chosen plan: the candidate-basis decision trail "
     "(legality verdicts with the violated dependence on rejection), "
     "per-reference stride scores, and the partition tie-break; "
     "human-readable to stdout, stable JSON when FILE is given"},
    {"--comm-matrix", Arg::Optional, "FILE",
     "collect the origin->owner communication matrix of every "
     "simulated run (requires --simulate); prints a terminal heatmap, "
     "and writes stable JSON ({\"runs\": [...]}) to FILE when given"},
    {"--profile", Arg::None, "",
     "print the per-phase compile-time table and the per-reference "
     "traffic table of each simulated run"},
    {"--search", Arg::Optional, "BUDGET",
     "simulator-scored plan search: enumerate legal row orders, sign "
     "flips, paddings, and scheme choices, score the best BUDGET "
     "(default 24) on the machine model, and adopt a symbolically "
     "validated winner that beats the heuristic at every swept size; "
     "falls back to the heuristic plan on any search failure"},
    {"--strict", Arg::None, "",
     "exit 3 when compilation degraded (a lower ladder tier or a "
     "conservative fallback)"},
    {"--validate", Arg::None, "",
     "independently validate the compiled nest: symbolic proofs of "
     "lattice equivalence, dependence preservation, and body "
     "equivalence covering all parameter values; every check passes or "
     "fails (never skips); exit 3 when any check fails at any ladder "
     "tier"},
    {"--diag", Arg::None, "",
     "print machine-readable diagnostics to stdout"},
    {"--help", Arg::None, "", "print this help and exit"},
};

/** The usage text, generated from kOptSpecs. */
std::string
usageText()
{
    std::string out = "usage: ancc [options] <program.an>\n\noptions:\n";
    for (const OptSpec &s : kOptSpecs) {
        std::string head = std::string("  ") + s.name;
        if (s.arg == Arg::Required)
            head += std::string(" ") + s.valueHint;
        else if (s.arg == Arg::Optional)
            head += std::string("[=") + s.valueHint + "]";
        out += head;
        // Wrap the help text to column 78, indented past the flags.
        const size_t indent = 24;
        out += head.size() < indent ? std::string(indent - head.size(), ' ')
                                    : "\n" + std::string(indent, ' ');
        std::string line;
        std::istringstream words(s.help);
        std::string w;
        while (words >> w) {
            if (!line.empty() && indent + line.size() + 1 + w.size() > 78) {
                out += line + "\n" + std::string(indent, ' ');
                line.clear();
            }
            if (!line.empty())
                line += " ";
            line += w;
        }
        out += line + "\n";
    }
    return out;
}

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "ancc: %s\n", msg);
    std::fprintf(stderr, "%s", usageText().c_str());
    std::exit(1);
}

const OptSpec *
findSpec(const std::string &name)
{
    for (const OptSpec &s : kOptSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            if (!o.file.empty())
                usage("multiple input files");
            o.file = a;
            continue;
        }
        // Split "--opt=value" and look the name up in the table.
        size_t eq = a.find('=');
        std::string name = eq == std::string::npos ? a : a.substr(0, eq);
        bool has_inline = eq != std::string::npos;
        std::string value = has_inline ? a.substr(eq + 1) : "";
        const OptSpec *spec = findSpec(name);
        if (!spec)
            usage(("unknown option " + name).c_str());
        if (spec->arg == Arg::None && has_inline)
            usage((name + " takes no value").c_str());
        if (spec->arg == Arg::Required && !has_inline) {
            if (i + 1 >= argc)
                usage((name + " needs " + spec->valueHint).c_str());
            value = argv[++i];
        }

        if (name == "--help") {
            std::printf("%s", usageText().c_str());
            std::exit(0);
        } else if (name == "--report") {
            o.report = true;
        } else if (name == "--emit") {
            o.emit_only = true;
        } else if (name == "--no-restructure") {
            o.restructure = false;
        } else if (name == "--suggest") {
            o.suggest = true;
        } else if (name == "--no-block-transfers") {
            o.block_transfers = false;
        } else if (name == "--search") {
            o.search = true;
            if (!value.empty()) {
                o.search_budget = std::strtoll(value.c_str(), nullptr, 10);
                if (o.search_budget <= 0)
                    usage("--search budget must be positive");
            }
        } else if (name == "--strict") {
            o.strict = true;
        } else if (name == "--validate") {
            o.validate = true;
        } else if (name == "--diag") {
            o.diag = true;
        } else if (name == "--profile") {
            o.profile = true;
        } else if (name == "--metrics") {
            o.metrics = true;
            o.metrics_file = value;
        } else if (name == "--metrics-format") {
            if (value == "prom")
                o.metrics_prom = true;
            else if (value == "json")
                o.metrics_prom = false;
            else
                usage("--metrics-format needs json|prom");
        } else if (name == "--explain") {
            o.explain = true;
            o.explain_file = value;
        } else if (name == "--comm-matrix") {
            o.comm = true;
            o.comm_file = value;
        } else if (name == "--trace") {
            if (value.empty())
                usage("--trace needs FILE");
            o.trace_file = value;
        } else if (name == "--simulate" || name == "--processors" ||
                   name == "-P") {
            if (value.rfind("P=", 0) == 0)
                value = value.substr(2);
            std::stringstream ss(value);
            std::string tok;
            while (std::getline(ss, tok, ','))
                o.processors.push_back(
                    std::strtoll(tok.c_str(), nullptr, 10));
            if (o.processors.empty())
                usage((name + " needs a processor list").c_str());
        } else if (name == "--symmetry") {
            if (value == "auto")
                o.symmetry = numa::SymmetryMode::Auto;
            else if (value == "off")
                o.symmetry = numa::SymmetryMode::Off;
            else if (value == "force")
                o.symmetry = numa::SymmetryMode::Force;
            else
                usage("--symmetry needs auto|off|force");
        } else if (name == "--param") {
            size_t veq = value.find('=');
            if (veq == std::string::npos)
                usage("--param needs NAME=VALUE");
            o.params.emplace_back(
                value.substr(0, veq),
                std::strtoll(value.c_str() + veq + 1, nullptr, 10));
        } else if (name == "--inject-machine-fault") {
            o.faults = numa::parseFaultSpec(value);
        } else if (name == "--machine") {
            if (value == "gp1000")
                o.machine = numa::MachineParams::butterflyGP1000();
            else if (value == "ipsc860")
                o.machine = numa::MachineParams::ipsc860();
            else
                usage("unknown machine");
        }
    }
    if (o.file.empty())
        usage("no input file");
    return o;
}

/** Arm the deterministic fault injector from the environment (testing
 * hook for the degradation ladder; see the file comment). */
void
armInjectorFromEnv()
{
    const char *n = std::getenv("ANCC_INJECT_FAULT");
    if (!n || !*n)
        return;
    const char *k = std::getenv("ANCC_INJECT_KIND");
    fault::armAt(std::strtoull(n, nullptr, 10),
                 k && std::strcmp(k, "math") == 0 ? fault::Kind::Math
                                                  : fault::Kind::Overflow);
}

int
run(const Options &o)
{
    std::ifstream in(o.file);
    if (!in)
        throw UserError("cannot open '" + o.file + "'");
    std::stringstream buf;
    buf << in.rdbuf();

    dsl::ParseResult parsed = dsl::parseProgramRecovering(buf.str());
    if (!parsed.ok()) {
        // Report every recovered error, not just the first.
        for (const dsl::ParseDiagnostic &d : parsed.diagnostics) {
            if (d.line >= 0)
                std::fprintf(stderr, "ancc: %s: line %d: %s\n",
                             o.file.c_str(), d.line, d.message.c_str());
            else
                std::fprintf(stderr, "ancc: %s: %s\n", o.file.c_str(),
                             d.message.c_str());
        }
        if (o.diag) {
            core::Diagnostics diags;
            for (const dsl::ParseDiagnostic &d : parsed.diagnostics)
                diags.add({core::Severity::Error, core::Stage::Parse,
                           d.message, "", d.line});
            std::printf("%s", diags.renderMachine().c_str());
        }
        return 1;
    }
    ir::Program prog = std::move(*parsed.program);

    if (o.suggest) {
        xform::DistributionSuggestion s =
            xform::suggestDistributions(prog);
        std::printf("suggested transformation:\n%s",
                    s.transform.str().c_str());
        std::printf("suggested distributions:\n%s", s.rationale.c_str());
        prog = s.applyTo(prog);
    }

    // The observability switches. The Trace exists only under --trace;
    // the registry only under --metrics; per-reference counters only
    // when some consumer (--profile or --metrics) will read them.
    obs::Trace trace;
    const bool tracing = !o.trace_file.empty();
    const bool per_ref = o.profile || o.metrics;
    obs::MetricsRegistry reg;

    core::ResilientOptions ropts;
    ropts.base.identityTransform = !o.restructure;
    ropts.base.validate = o.validate;
    if (o.search) {
        ropts.base.search.enabled = true;
        if (o.search_budget > 0)
            ropts.base.search.budget = o.search_budget;
        // Score candidates on the machine the user will simulate on.
        ropts.base.search.machine = o.machine;
    }
    if (tracing) {
        ropts.base.trace = &trace;
        ropts.base.tracePid = trace.process("compile");
    }
    armInjectorFromEnv();
    core::Compilation c = core::compileResilient(prog, ropts);
    fault::disarm();

    if (o.validate)
        std::printf("%s", c.validation.render(c.program).c_str());

    if (o.search) {
        const xform::SearchResult &sr = c.search;
        if (!sr.ran) {
            std::printf("plan search: skipped (identity transform or "
                        "degraded tier)\n");
        } else {
            double ht = 0, wt = 0;
            for (double v : sr.heuristicTimesUs)
                ht += v;
            for (double v : sr.winnerTimesUs)
                wt += v;
            std::printf("plan search: %llu candidates, %llu scored; "
                        "%s '%s' (heuristic %.1f us, winner %.1f us "
                        "summed over the sweep)\n",
                        static_cast<unsigned long long>(sr.enumerated),
                        static_cast<unsigned long long>(sr.scored),
                        sr.improved ? "adopted" : "kept",
                        sr.improved ? sr.winnerOrigin.c_str()
                                    : "heuristic",
                        ht, wt);
        }
    }

    if (o.emit_only)
        std::printf("%s", c.nodeProgram.c_str());
    else if (o.report)
        std::printf("%s", c.report().c_str());

    if (o.diag) {
        std::printf("tier=%s degraded=%d\n", core::tierName(c.tier),
                    c.degraded() ? 1 : 0);
        std::printf("%s", c.diagnostics.renderMachine().c_str());
    }

    if (o.profile)
        std::printf("\n%s", core::phaseTable(c).c_str());
    if (o.metrics)
        core::recordCompileMetrics(reg, c);

    if (o.explain) {
        obs::ExplainRecord er = core::explain(c);
        if (o.explain_file.empty()) {
            std::printf("\n%s", er.renderText().c_str());
        } else {
            std::ofstream ef(o.explain_file);
            ef << er.renderJson() << "\n";
            if (!ef)
                throw UserError("cannot write '" + o.explain_file + "'");
        }
    }

    if (o.comm && o.processors.empty())
        throw UserError("--comm-matrix needs --simulate (the matrix "
                        "records simulated traffic)");
    std::string comm_runs; // accumulated {"runs": [...]} body

    if (!o.processors.empty()) {
        IntVec params(prog.params.size(), 0);
        std::vector<bool> bound(prog.params.size(), false);
        for (const auto &[name, value] : o.params) {
            params[prog.paramIndex(name)] = value;
            bound[prog.paramIndex(name)] = true;
        }
        for (size_t q = 0; q < bound.size(); ++q)
            if (!bound[q])
                throw UserError("parameter '" + prog.params[q] +
                                "' needs --param " + prog.params[q] +
                                "=<value>");
        ir::Bindings binds{params, std::vector<double>(
                                       prog.scalars.size(), 1.0)};
        double seq = core::sequentialTime(c, o.machine, params);
        std::printf("\nsimulation (%s)%s:\n", o.machine.name.c_str(),
                    o.block_transfers ? "" : " without block transfers");
        if (o.faults.any())
            std::printf("injecting machine faults: %s\n",
                        o.faults.str().c_str());
        std::printf("%6s %10s %14s %12s %12s %8s\n", "P", "speedup",
                    "time (us)", "remote", "blocks", "sync");
        for (Int p : o.processors) {
            numa::SimOptions sopts;
            sopts.processors = p;
            sopts.machine = o.machine;
            sopts.blockTransfers = o.block_transfers;
            sopts.faults = o.faults;
            sopts.perReference = per_ref;
            sopts.commMatrix = o.comm;
            sopts.symmetry = o.symmetry;
            if (tracing) {
                sopts.trace = &trace;
                sopts.tracePid = trace.process(
                    "simulate P=" + std::to_string(p));
            }
            numa::SimStats s = core::simulate(c, sopts, binds);
            std::printf("%6lld %10.2f %14.0f %12llu %12llu %8llu\n",
                        static_cast<long long>(p), s.speedup(seq),
                        s.parallelTime(),
                        static_cast<unsigned long long>(
                            s.totalRemoteAccesses()),
                        static_cast<unsigned long long>(
                            s.totalBlockTransfers()),
                        static_cast<unsigned long long>(s.totalSyncs()));
            if (s.aggregated)
                std::printf("       aggregated into %zu symmetry "
                            "classes\n",
                            s.classes.size());
            numa::FaultReport fr = s.faultReport();
            if (fr.any())
                std::printf("       %s\n", fr.str().c_str());
            if (o.comm) {
                obs::CommMatrix m = numa::buildCommMatrix(s);
                std::printf("\n%s", m.renderHeatmap().c_str());
                if (!o.comm_file.empty()) {
                    if (!comm_runs.empty())
                        comm_runs += ",";
                    comm_runs += m.renderJson();
                }
            }
            if (o.profile && !s.refNames.empty())
                std::printf("\n%s\n", core::refTable(s).c_str());
            if (o.metrics)
                core::recordSimMetrics(
                    reg, s, o.machine,
                    "sim.p" + std::to_string(p) + ".");
        }
    }

    if (o.comm && !o.comm_file.empty()) {
        std::ofstream cf(o.comm_file);
        cf << "{\"runs\":[" << comm_runs << "]}\n";
        if (!cf)
            throw UserError("cannot write '" + o.comm_file + "'");
    }

    if (tracing)
        trace.writeFile(o.trace_file);
    if (o.metrics) {
        std::string rendered =
            o.metrics_prom ? reg.renderExposition() : reg.renderJson();
        if (o.metrics_file.empty()) {
            std::printf("%s\n", rendered.c_str());
        } else {
            std::ofstream mf(o.metrics_file);
            mf << rendered << "\n";
            if (!mf)
                throw UserError("cannot write '" + o.metrics_file + "'");
        }
    }

    if (o.validate) {
        // A tier that failed validation was degraded away by the
        // ladder, so the failure lives in the diagnostics; the final
        // report failing means even the surviving tier is wrong.
        bool tier_failed = false;
        for (const core::Diagnostic &d : c.diagnostics.all())
            tier_failed =
                tier_failed ||
                (d.severity == core::Severity::Error &&
                 d.stage == core::Stage::TranslationValidate);
        if (tier_failed || !c.validation.passed()) {
            std::fprintf(stderr,
                         "ancc: translation validation failed "
                         "(--validate):\n%s%s",
                         c.validation.render(c.program).c_str(),
                         c.diagnostics.render().c_str());
            return 3;
        }
    }

    if (o.strict && c.degraded()) {
        std::fprintf(stderr,
                     "ancc: compilation degraded to the '%s' tier "
                     "(--strict):\n%s",
                     core::tierName(c.tier),
                     c.diagnostics.render().c_str());
        return 3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const UserError &e) {
        std::fprintf(stderr, "ancc: %s\n", e.what());
        return 1;
    } catch (const LimitError &e) {
        std::fprintf(stderr, "ancc: input exceeds a limit: %s\n",
                     e.what());
        return 4;
    } catch (const Error &e) {
        std::fprintf(stderr,
                     "ancc: internal error: %s\n"
                     "ancc: this is a bug in the compiler; please "
                     "report it together with the input program and "
                     "the diagnostics above\n",
                     e.what());
        return 2;
    }
}
