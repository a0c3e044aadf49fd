/**
 * @file
 * Fourier-Motzkin projection over primitive integer rows: the one
 * eliminator behind the emitted loop bounds (xform::solveBounds) and
 * the translation validator's implication proofs (verify::proveImplies).
 *
 * A row  z·u + cst >= 0  is an integer inequality over the unknowns
 * u = [params..., vars...]. Variables sit at the high indices, so
 * eliminating the highest unknown first removes loop variables
 * innermost-first and parameters last. Eliminating u_k keeps the rows
 * without u_k and adds, for every lower row l (a = l.z[k] > 0) and
 * every upper row u (b = -u.z[k] > 0), the combination b·l + a·u, which
 * cancels u_k. One projection step serves both callers; they differ
 * only in what happens to a derived row's constant (Rounding).
 *
 * Under Rounding::Exact every row may carry a Farkas certificate: the
 * nonnegative combination of the caller's base rows that equals it.
 * solveBounds hands its certificates to the validator, which checks
 * them by multiply, add and compare instead of re-running this
 * projection; a certificate is a witness the checker recomputes from
 * its own rows, so a wrong one can only fail the check, never pass it.
 */

#ifndef ANC_XFORM_FM_H
#define ANC_XFORM_FM_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "ir/affine.h"

namespace anc::xform::fm {

/** One inequality  z·u + cst >= 0  over u = [params..., vars...]. */
struct Row
{
    IntVec z;
    Int cst = 0;
};

/**
 * A Farkas certificate of a row r: nonnegative multipliers m over a
 * fixed family of base rows B that the caller chooses, and a scale
 * s > 0, with  sum_i m_i * B_i = s * r  exactly, coefficients and
 * constant alike. An empty m means no certificate is known.
 */
struct Certificate
{
    IntVec m;
    Int scale = 1;
};

/** What a row's constant becomes when the row is divided by the gcd g
 * of its coefficients. */
enum class Rounding
{
    /** The rational halfspace is kept: the row is divided only by a
     * factor g shares with the constant. Loop bounds need this, so
     * that x >= 0 and 2x + 1 >= 0 stay two rows of one direction. */
    Exact,
    /** The constant is floored after dividing by g (a Gomory cut):
     * exact over integer points, stronger over the rationals. The
     * prover needs this. */
    Floor,
};

/** The row of `e >= 0`: the lcm of e's denominators clears them, then
 * the row is reduced per `mode`. Throws OverflowError when a scaled
 * coefficient leaves 64 bits. */
Row toRow(const ir::AffineExpr &e, Rounding mode);

/** The bound row r puts on loop variable k of a system over n
 * variables and m parameters: with a = r.z[m + k], u_k >= -r'/a when
 * a > 0 and u_k <= -r'/a when a < 0, where r' is r without u_k. The
 * bound is over the outer variables and the parameters; r must not
 * mention an inner variable, and a must be nonzero. */
ir::AffineExpr boundOf(const Row &r, size_t k, size_t n, size_t m);

/**
 * A working set of rows, at most one per direction. Rows share a
 * direction when their coefficient vectors, each divided by its gcd,
 * are equal; of such rows only the tightest (smallest constant per
 * unit of that gcd) is kept, at the position where the first of them
 * was inserted. A row without coefficients is a truth value: it is
 * dropped, and a negative constant marks the system contradictory.
 * Arithmetic is checked: a combination leaving 64 bits throws
 * OverflowError.
 *
 * Under Rounding::Exact the system also keeps one certificate per row
 * (see Certificate): a row given one keeps it through its reduction,
 * a combination b*l + a*u gets the same combination of its parents'
 * certificates, and of parallel rows the certificate of the kept row
 * stays. The bookkeeping changes no row: it makes no fault checkpoint
 * and never throws, and a certificate whose arithmetic leaves 64 bits
 * is dropped. Floor mode keeps none (a floored constant is not a
 * linear combination).
 */
class System
{
  public:
    /** `max_rows` caps the directions kept: once that many are held, a
     * row in a new direction is dropped (rows parallel to a kept one
     * still tighten it). Dropping rows only weakens the system. */
    explicit System(Rounding mode, size_t max_rows = SIZE_MAX)
        : mode_(mode), maxRows_(max_rows)
    {}

    /** Reduce r per the rounding mode and insert it (see class doc),
     * with certificate c for it (Exact mode only; empty: none). */
    void add(Row r, Certificate c = {});

    /** The kept rows, in insertion order. */
    const std::vector<Row> &rows() const { return rows_; }

    /** The certificate of rows()[i]; its m is empty when none is
     * known. */
    const Certificate &certificate(size_t i) const { return certs_[i]; }

    /** Some row was a negative constant: the system has no rational
     * solution (under Floor, no integer one). Sticky across
     * elimination. */
    bool contradiction() const { return contradiction_; }

    /**
     * Project u_k away: the rows without u_k, then b·l + a·u for every
     * lower row l and upper row u (in row order, lower-major). With no
     * lower or no upper rows u_k is unbounded on that side and the
     * projection is just the rows without it.
     */
    System eliminate(size_t k) const;

  private:
    Rounding mode_;
    size_t maxRows_;
    std::vector<Row> rows_;
    std::vector<Certificate> certs_; //!< parallel to rows_
    /** Direction (coefficients over their gcd) -> index into rows_. */
    std::map<IntVec, size_t> index_;
    bool contradiction_ = false;
};

} // namespace anc::xform::fm

#endif // ANC_XFORM_FM_H
