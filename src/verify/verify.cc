#include "verify/verify.h"

#include <sstream>

#include "verify/symbolic.h"

namespace anc::verify {

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
ValidationReport::render() const
{
    std::ostringstream os;
    os << "translation validation: " << (passed() ? "PASS" : "FAIL")
       << "\n";
    for (const CheckResult &c : checks) {
        os << "  " << checkName(c.kind) << ": "
           << (c.passed ? "pass" : "FAIL");
        if (!c.detail.empty())
            os << " -- " << c.detail;
        os << "\n";
    }
    return os.str();
}

ValidationReport
validate(const ir::Program &prog, const xform::TransformedNest &nest,
         const IntMatrix &dep_matrix, core::CancelToken *cancel)
{
    // A verdict for every space size and every parameter value.
    // Arithmetic faults propagate to the caller.
    ProverOptions popts;
    popts.cancel = cancel;
    SymbolicVerdict s1 = checkLatticeSymbolic(prog, nest, popts);
    SymbolicVerdict s2 =
        checkDependencesSymbolic(prog, nest, dep_matrix, popts);
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
