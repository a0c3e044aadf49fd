/**
 * @file
 * Structured compilation diagnostics.
 *
 * Every recoverable event in the compilation pipeline -- a stage that
 * overflowed and was retried at a lower tier, a dependence family that
 * could not be represented exactly, a degraded result that failed
 * translation validation -- is recorded as a Diagnostic with a
 * severity, the pipeline stage it originated from, and a message. A
 * Diagnostics list travels inside core::Compilation so that callers
 * (and ancc) can render what the compiler gave up and why, in
 * human-readable or machine-readable form.
 */

#ifndef ANC_CORE_DIAGNOSTICS_H
#define ANC_CORE_DIAGNOSTICS_H

#include <string>
#include <vector>

namespace anc::core {

/** How serious a diagnostic is. */
enum class Severity
{
    Note,    //!< informational (e.g. which ladder tier was reached)
    Warning, //!< something was given up; the result is still correct
    Error,   //!< the stage failed outright (always paired with recovery
             //!< at a lower tier, or with an exception to the caller)
};

/** Which pipeline stage a diagnostic originated from. */
enum class Stage
{
    Parse,               //!< dsl parsing
    Validate,            //!< structural program validation
    Dependence,          //!< dependence analysis
    Normalize,           //!< access matrix / basis construction
    Legality,            //!< LegalBasis / LegalInvt / family checks
    Transform,           //!< applyTransform (bounds, lattice)
    Plan,                //!< NUMA codegen planning
    StrengthReduce,      //!< HNF-based induction-variable planning
    Emit,                //!< node program emission
    TranslationValidate, //!< independent translation validation
    Driver,              //!< the compileResilient ladder itself
};

const char *severityName(Severity s);
const char *stageName(Stage s);

/** One diagnostic event. */
struct Diagnostic
{
    Severity severity = Severity::Note;
    Stage stage = Stage::Driver;
    std::string message;
    /** Underlying cause when recovering from an exception (its text). */
    std::string detail;
    /** 1-based source line when known, -1 otherwise. */
    int line = -1;
    /** Provenance: which service request this diagnostic was produced
     * for (the svc request id; "" outside the service). Lets a
     * diagnostic pulled out of a results file or CI artifact stay
     * attributable on its own. */
    std::string origin;

    /** "warning [legality]: message (detail) [request id]" */
    std::string render() const;

    /** One parseable line: severity=... stage=... line=... message="..."
     * detail="..." origin="..." with backslash/quote/newline escaping. */
    std::string renderMachine() const;

    /** One JSON object with a STABLE field set and order:
     * {"severity": "...", "stage": "...", "line": n, "message": "...",
     *  "detail": "...", "origin": "..."} -- always all six keys, in
     * that order, so ancd responses and CI artifacts parse without
     * special cases. */
    std::string renderJson() const;
};

/** An ordered list of diagnostics for one compilation. */
class Diagnostics
{
  public:
    void add(Diagnostic d) { diags_.push_back(std::move(d)); }
    void note(Stage stage, std::string message, std::string detail = "");
    void warning(Stage stage, std::string message, std::string detail = "");
    void error(Stage stage, std::string message, std::string detail = "");

    bool empty() const { return diags_.empty(); }
    size_t size() const { return diags_.size(); }
    const std::vector<Diagnostic> &all() const { return diags_; }
    const Diagnostic &operator[](size_t i) const { return diags_[i]; }

    bool hasErrors() const;
    bool hasWarnings() const;

    /** True if some diagnostic mentions the given stage. */
    bool mentionsStage(Stage stage) const;

    /** Set `origin` on every diagnostic that does not have one yet
     * (diagnostics merged from another request keep theirs). */
    void stampOrigin(const std::string &origin);

    /** Human-readable report, one diagnostic per line. */
    std::string render() const;

    /** Machine-readable report, one diagnostic per line. */
    std::string renderMachine() const;

    /** JSON array of Diagnostic::renderJson() objects, in order
     * ("[]" when empty; no trailing newline). */
    std::string renderJson() const;

  private:
    std::vector<Diagnostic> diags_;
};

} // namespace anc::core

#endif // ANC_CORE_DIAGNOSTICS_H
