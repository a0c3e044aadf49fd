#include "certificate_oracle.h"

#include "ratmath/linalg.h"
#include "verify/symbolic.h"

namespace anc::oracle {

CertificateDifferential
certificateDifferential(const ir::Program &prog,
                        const xform::TransformedNest &nest)
{
    using verify::SymConstraint;
    size_t n = prog.nest.depth(), m = prog.params.size();
    std::vector<SymConstraint> source, emitted;
    for (const ir::AffineExpr &e : prog.nest.constraints(m))
        source.push_back(verify::makeConstraint(e));
    std::vector<const IntVec *> certs;
    RatMatrix t = toRational(nest.transform());
    for (size_t k = 0; k < n; ++k) {
        const xform::TransformedLoop &l = nest.loops()[k];
        ir::AffineExpr uk = ir::AffineExpr::variable(k, n, m);
        for (size_t i = 0; i < l.lower.size(); ++i) {
            emitted.push_back(verify::makeConstraint(
                (uk - l.lower[i]).composeWithVarMap(t)));
            certs.push_back(i < l.lowerCert.size() ? &l.lowerCert[i]
                                                   : nullptr);
        }
        for (size_t i = 0; i < l.upper.size(); ++i) {
            emitted.push_back(verify::makeConstraint(
                (l.upper[i] - uk).composeWithVarMap(t)));
            certs.push_back(i < l.upperCert.size() ? &l.upperCert[i]
                                                   : nullptr);
        }
    }

    CertificateDifferential out;
    auto compare = [&](const std::vector<SymConstraint> &sys,
                       const SymConstraint &goal, bool accepted,
                       const std::string &what) {
        ++out.implications;
        verify::ProofStatus st = verify::proveImplies(sys, goal).status;
        out.accepted += accepted;
        out.proven += st == verify::ProofStatus::Proven;
        if (accepted && st != verify::ProofStatus::Proven)
            out.disagreements.push_back(
                what + ": certificate accepted, prover says " +
                (st == verify::ProofStatus::Refuted ? "refuted"
                                                    : "unknown"));
    };
    for (size_t j = 0; j < emitted.size(); ++j)
        compare(source, emitted[j],
                certs[j] &&
                    verify::checkCertificate(source, *certs[j], emitted[j]),
                "forward implication " + std::to_string(j));
    for (size_t i = 0; i < source.size(); ++i)
        compare(emitted, source[i],
                verify::unitCertificate(emitted, source[i]) <
                    emitted.size(),
                "backward implication " + std::to_string(i));
    return out;
}

} // namespace anc::oracle
