#include "xform/normalize.h"

#include <sstream>

#include "ratmath/linalg.h"
#include "xform/basis.h"
#include "xform/legal.h"

namespace anc::xform {

namespace {

/**
 * Banerjee's unimodular restriction of a padding step: pad the longest
 * prefix of `rows` whose padded matrix is unimodular; when even the
 * empty prefix fails, return the identity, which is always legal.
 */
template <class Pad>
IntMatrix
unimodularPrefix(const IntMatrix &rows, size_t depth, Pad pad,
                 size_t *dropped, size_t *projection_rows)
{
    for (size_t keep = rows.rows() + 1; keep-- > 0;) {
        IntMatrix prefix(0, depth);
        for (size_t i = 0; i < keep; ++i)
            prefix.appendRow(rows.row(i));
        try {
            size_t proj = 0;
            IntMatrix t = pad(prefix, &proj);
            if (isUnimodular(t)) {
                *dropped = rows.rows() - keep;
                *projection_rows = proj;
                return t;
            }
        } catch (const Error &) {
            // Padding this prefix failed (overflow, degenerate
            // projection); a shorter prefix may still work.
        }
    }
    *dropped = rows.rows();
    *projection_rows = 0;
    return IntMatrix::identity(depth);
}

} // namespace

const char *
stepName(NormalizeStep s)
{
    switch (s) {
    case NormalizeStep::Basis:
        return "basis-matrix";
    case NormalizeStep::LegalBasis:
        return "legal-basis";
    case NormalizeStep::LegalInvertible:
        return "legal-invertible";
    case NormalizeStep::Padding:
        return "padding";
    case NormalizeStep::Apply:
        return "apply-transform";
    }
    return "unknown";
}

NormalizeResult
normalize(const ir::Program &prog, const AccessMatrixInfo &access,
          const deps::DependenceInfo &dinfo, const NormalizeOptions &opts,
          bool unimodular, const StepHook &onStep)
{
    auto enter = [&](NormalizeStep s) {
        if (onStep)
            onStep(s);
    };
    size_t n = prog.nest.depth();
    NormalizeResult r;
    r.access = access;
    r.depMatrix = dinfo.matrix(n);
    r.depFamilies = dinfo.families;
    r.depsImprecise = dinfo.imprecise;

    enter(NormalizeStep::Basis);
    BasisResult basis = basisMatrix(r.access.matrix);
    r.basis = basis.basis;
    r.basisKeptRows = basis.keptRows;

    if (opts.enforceLegality) {
        enter(NormalizeStep::LegalBasis);
        r.legal = legalBasis(r.basis, r.depMatrix, &r.legalTrail);
        enter(NormalizeStep::LegalInvertible);
    } else {
        enter(NormalizeStep::Padding);
        r.legal = r.basis;
    }
    auto pad = [&](const IntMatrix &rows, size_t *projection_rows) {
        return opts.enforceLegality
                   ? legalInvertible(rows, r.depMatrix, projection_rows)
                   : padToInvertible(rows);
    };
    IntMatrix t = unimodular ? unimodularPrefix(r.legal, n, pad,
                                                &r.unimodularDropped,
                                                &r.projectionRows)
                             : pad(r.legal, &r.projectionRows);
    if (opts.enforceLegality) {
        if (!deps::isLegalTransformation(t, r.depMatrix))
            throw InternalError("normalization produced illegal transform");
        // The distance-vector algorithms above are exact when every
        // dependence has a constant distance or a single lattice
        // generator. For imprecise families, verify against the full
        // solution family and fall back to the (always legal) identity
        // if the check fails.
        if (dinfo.imprecise && !deps::preservesLexSign(t, dinfo.families)) {
            t = IntMatrix::identity(n);
            r.conservativeFallback = true;
            r.projectionRows = 0;
        }
    }

    enter(NormalizeStep::Apply);
    adoptTransform(r, std::move(t));
    r.nest = applyTransform(prog, r.transform);
    return r;
}

NormalizeResult
accessNormalize(const ir::Program &prog, const NormalizeOptions &opts)
{
    prog.validate();
    AccessMatrixInfo access =
        buildAccessMatrix(prog, opts.useDistributionHint);
    deps::DependenceInfo dinfo =
        deps::analyzeDependences(prog, opts.includeInputDeps);
    return normalize(prog, access, dinfo, opts, /*unimodular=*/false);
}

void
adoptTransform(NormalizeResult &r, IntMatrix t)
{
    bool unimodular = isUnimodular(t);
    std::vector<NormalizedLoop> hits;
    for (size_t l = 0; l < t.rows(); ++l) {
        IntVec row = t.row(l);
        IntVec neg_row = row;
        for (Int &v : neg_row)
            v = checkedNeg(v);
        for (size_t a = 0; a < r.access.rows.size(); ++a) {
            if (r.access.rows[a].coeffs == row ||
                r.access.rows[a].coeffs == neg_row) {
                hits.push_back({l, a, r.access.rows[a].distDim});
                break;
            }
        }
    }
    r.transform = std::move(t);
    r.unimodular = unimodular;
    r.normalized = std::move(hits);
    r.rowsRetained = r.normalized.size();
}

std::string
describe(const NormalizeResult &r, const ir::Program &prog)
{
    std::ostringstream os;
    os << "data access matrix (importance order):\n";
    for (size_t i = 0; i < r.access.rows.size(); ++i) {
        const AccessRow &row = r.access.rows[i];
        os << "  [";
        for (size_t j = 0; j < row.coeffs.size(); ++j)
            os << (j ? " " : "") << row.coeffs[j];
        os << "]  x" << row.count << (row.distDim ? "  dist" : "")
           << "  (" << row.origin << ")\n";
    }
    os << "dependence matrix (" << r.depMatrix.cols() << " column"
       << (r.depMatrix.cols() == 1 ? "" : "s") << ")";
    if (r.depsImprecise)
        os << " [imprecise]";
    os << ":\n" << r.depMatrix.str();
    os << "basis matrix:\n" << r.basis.str();
    os << "legal basis:\n" << r.legal.str();
    os << "transformation T (" << (r.unimodular ? "unimodular" : "invertible")
       << ", det " << determinant(r.transform) << "):\n"
       << r.transform.str();
    os << "normalized subscripts: " << r.normalized.size() << "\n";
    for (const NormalizedLoop &nl : r.normalized) {
        os << "  loop " << newLoopVarName(nl.loopLevel) << " <- "
           << r.access.rows[nl.accessRow].origin
           << (nl.distDim ? " (distribution dimension)" : "") << "\n";
    }
    if (r.nest)
        os << "transformed nest:\n" << printTransformedNest(*r.nest, prog);
    return os.str();
}

} // namespace anc::xform
