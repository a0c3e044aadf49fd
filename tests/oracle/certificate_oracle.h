/**
 * @file
 * The certificate check against the full prover, implication by
 * implication.
 *
 * checkLatticeSymbolic discharges a bound implication by a Farkas
 * certificate where one checks, and calls the Fourier-Motzkin prover
 * only where none does. This helper runs both sides on every forward
 * (source ⟹ emitted bound) and backward (emitted ⟹ source bound)
 * implication of one (program, nest) pair, rebuilding the rows itself.
 * Wherever a certificate is accepted the prover must return Proven: a
 * certificate that passes what the prover cannot prove is a soundness
 * bug in the checker.
 */

#ifndef ANC_TESTS_ORACLE_CERTIFICATE_ORACLE_H
#define ANC_TESTS_ORACLE_CERTIFICATE_ORACLE_H

#include <string>
#include <vector>

#include "xform/transform.h"

namespace anc::oracle {

/** What the two sides said, over every implication of one nest. */
struct CertificateDifferential
{
    size_t implications = 0; //!< forward plus backward
    size_t accepted = 0;     //!< discharged by a certificate
    size_t proven = 0;       //!< proved by proveImplies
    /** Implications a certificate accepted and the prover did not
     * prove, each with the prover's status; empty when they agree. */
    std::vector<std::string> disagreements;
};

/** Run the certificate check and proveImplies on every bound
 * implication of (prog, nest). Arithmetic faults propagate. */
CertificateDifferential certificateDifferential(
    const ir::Program &prog, const xform::TransformedNest &nest);

} // namespace anc::oracle

#endif // ANC_TESTS_ORACLE_CERTIFICATE_ORACLE_H
