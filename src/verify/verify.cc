#include "verify/verify.h"

#include <sstream>

#include "verify/symbolic.h"

namespace anc::verify {

namespace {

/** The sentence a rendered report appends to a passing check 3: the
 * source nest's symbolicTripCount, or why there is no polynomial
 * closed form. Informational only: no verdict reads it. */
std::string
tripCountNote(const ir::Program &prog)
{
    std::optional<Polynomial> tc;
    try {
        tc = symbolicTripCount(prog);
    } catch (const OverflowError &) {
        // Constant bounds so large the count itself exceeds 64-bit
        // range (e.g. 10^9 per level). The count is informational:
        // equality follows from the lattice bijection regardless.
        tc = std::nullopt;
    }
    if (tc)
        return "symbolic trip count " + tc->str(prog.params) +
               " (abstract acceleration), emitted count equal by the "
               "lattice bijection";
    return "no polynomial trip-count closed form (multi-bound level or "
           "out-of-range count); count equality follows from the "
           "lattice bijection";
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
ValidationReport::render(const ir::Program &prog) const
{
    std::ostringstream os;
    os << "translation validation: " << (passed() ? "PASS" : "FAIL")
       << "\n";
    for (const CheckResult &c : checks) {
        os << "  " << checkName(c.kind) << ": "
           << (c.passed ? "pass" : "FAIL");
        if (!c.detail.empty())
            os << " -- " << c.detail;
        if (c.kind == CheckKind::DifferentialExecution && c.passed)
            os << "; " << tripCountNote(prog);
        os << "\n";
    }
    return os.str();
}

ValidationReport
validate(const ir::Program &prog, const xform::TransformedNest &nest,
         const IntMatrix &dep_matrix,
         const std::vector<deps::DependenceFamily> &dep_families,
         bool deps_imprecise, core::CancelToken *cancel)
{
    // A verdict for every space size and every parameter value.
    // Arithmetic faults propagate to the caller.
    ProverOptions popts;
    popts.cancel = cancel;
    SymbolicVerdict s1 = checkLatticeSymbolic(prog, nest, popts);
    SymbolicVerdict s2 =
        checkDependencesSymbolic(nest, dep_matrix, dep_families,
                                 deps_imprecise, popts);
    SymbolicVerdict s3 = checkBodySymbolic(prog, nest, popts);

    ValidationReport report;
    report.checks = {
        CheckResult{CheckKind::LatticeEquivalence, s1.passed, s1.detail},
        CheckResult{CheckKind::DependencePreservation, s2.passed,
                    s2.detail},
        CheckResult{CheckKind::DifferentialExecution, s3.passed,
                    s3.detail},
    };
    return report;
}

} // namespace anc::verify
