#include "verify/symbolic.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "deps/dependence.h"
#include "ratmath/diophantine.h"
#include "ratmath/hnf.h"
#include "ratmath/linalg.h"
#include "ratmath/smith.h"
#include "xform/fm.h"

namespace anc::verify {

namespace {

std::string
pointStr(const IntVec &v)
{
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << ")";
    return os.str();
}

std::string
matStr(const IntMatrix &m)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < m.rows(); ++i) {
        os << (i ? "; " : "");
        for (size_t j = 0; j < m.cols(); ++j)
            os << (j ? " " : "") << m(i, j);
    }
    os << "]";
    return os.str();
}

std::string
bindingStr(const std::vector<std::string> &names, const IntVec &vals)
{
    if (names.empty())
        return "no parameters";
    std::ostringstream os;
    for (size_t p = 0; p < names.size(); ++p)
        os << (p ? ", " : "") << names[p] << "=" << vals[p];
    return os.str();
}

/** T * x with plain checked arithmetic. */
IntVec
applyT(const IntMatrix &t, const IntVec &x)
{
    IntVec u(t.rows(), 0);
    for (size_t i = 0; i < t.rows(); ++i)
        for (size_t j = 0; j < t.cols(); ++j)
            u[i] = checkedAdd(u[i], checkedMul(t(i, j), x[j]));
    return u;
}

/** -1, 0 or +1: the sign of the leading nonzero entry of v. */
int
lexSign(const IntVec &v)
{
    for (Int x : v)
        if (x != 0)
            return x < 0 ? -1 : 1;
    return 0;
}

/**
 * Why dependence family f fails under t: a member d = d0 + gens*z,
 * z in [-2, 2]^k, whose image t*d has another lexicographic sign, or
 * the family itself when no member in that box shows it (the exact
 * family test decides over the rationals, in the safe direction).
 */
std::string
familyViolation(const IntMatrix &t, const deps::DependenceFamily &f)
{
    std::string family = "family d0 + G*z with d0=" + pointStr(f.d0) +
                         ", G=" + matStr(f.gens);
    size_t k = f.gens.cols();
    IntVec z(k, -2);
    for (;;) {
        IntVec d = f.d0;
        for (size_t c = 0; c < k; ++c)
            for (size_t i = 0; i < d.size(); ++i)
                d[i] = checkedAdd(d[i], checkedMul(f.gens(i, c), z[c]));
        IntVec td = applyT(t, d);
        if (lexSign(d) != 0 && lexSign(td) != lexSign(d))
            return "counterexample: dependence distance d=" + pointStr(d) +
                   " of " + family + " maps to T*d=" + pointStr(td) +
                   ", which reverses its lexicographic sign: the emitted "
                   "loop order runs the dependent iteration first";
        size_t c = 0;
        while (c < k && z[c] == 2)
            z[c++] = -2;
        if (c == k)
            break;
        ++z[c];
    }
    return "cannot prove that every distance of dependence " + family +
           " keeps its lexicographic sign under T";
}

void
tick(const ProverOptions &opts, uint64_t n = 1)
{
    if (opts.cancel)
        opts.cancel->spend(n);
}

namespace fm = xform::fm;
using fm::Row;

/**
 * The full Fourier-Motzkin elimination cascade of a row system.
 * levels[k] is the working set at the moment z_k was the highest
 * remaining unknown; every row in it mentions only z_0..z_k. The
 * cascade both decides rational infeasibility (a derived all-zero row
 * with a negative constant) and hands the witness search per-level
 * bounds.
 */
struct Cascade
{
    bool contradiction = false;
    std::vector<std::vector<Row>> levels;
};

Cascade
eliminate(const std::vector<Row> &rows, size_t total,
          const ProverOptions &opts)
{
    Cascade cas;
    cas.levels.resize(total);
    // Integer rows: every derived constant is floored (a Gomory cut).
    fm::System sys(fm::Rounding::Floor, opts.maxRows);
    for (const Row &r : rows)
        sys.add(r);
    for (size_t k = total; k-- > 0;) {
        tick(opts);
        if (sys.contradiction())
            break;
        cas.levels[k] = sys.rows();
        sys = sys.eliminate(k);
    }
    cas.contradiction = sys.contradiction();
    return cas;
}

/** Exact satisfaction check of a full assignment against raw rows. */
bool
satisfiesAll(const std::vector<Row> &rows, const IntVec &z)
{
    for (const Row &r : rows) {
        Int acc = r.cst;
        for (size_t j = 0; j < z.size(); ++j)
            acc = checkedAdd(acc, checkedMul(r.z[j], z[j]));
        if (acc < 0)
            return false;
    }
    return true;
}

/**
 * Backtracking integer witness search guided by the cascade's
 * per-level bounds. Returns an assignment satisfying every original
 * row, or nullopt; sets `exhausted` when the node budget ran out
 * before the (heuristically truncated) space was covered.
 */
std::optional<IntVec>
searchWitness(const std::vector<Row> &original, const Cascade &cas,
              size_t total, const ProverOptions &opts, bool &exhausted)
{
    IntVec z(total, 0);
    uint64_t nodes = 0;
    exhausted = false;

    std::function<bool(size_t)> assign = [&](size_t k) -> bool {
        if (k == total)
            return satisfiesAll(original, z);
        bool has_lo = false, has_hi = false;
        Int lo = 0, hi = 0;
        for (const Row &r : cas.levels[k]) {
            if (r.z[k] == 0)
                continue;
            Int rest = r.cst;
            for (size_t j = 0; j < k; ++j)
                rest = checkedAdd(rest, checkedMul(r.z[j], z[j]));
            if (r.z[k] > 0) {
                Int b = ceilDiv(checkedNeg(rest), r.z[k]);
                lo = has_lo ? std::max(lo, b) : b;
                has_lo = true;
            } else {
                Int b = floorDiv(rest, checkedNeg(r.z[k]));
                hi = has_hi ? std::min(hi, b) : b;
                has_hi = true;
            }
        }
        std::vector<Int> candidates;
        Int span = opts.candidateSpan;
        if (has_lo && has_hi) {
            if (hi < lo)
                return false;
            if (hi - lo + 1 <= span) {
                for (Int v = lo; v <= hi; ++v)
                    candidates.push_back(v);
            } else {
                for (Int v = lo; v < lo + span - 1; ++v)
                    candidates.push_back(v);
                candidates.push_back(hi);
                exhausted = true; // range truncated
            }
        } else if (has_lo) {
            for (Int v = lo; v < checkedAdd(lo, span); ++v)
                candidates.push_back(v);
            exhausted = true; // half-line truncated
        } else if (has_hi) {
            for (Int v = hi; v > checkedSub(hi, span); --v)
                candidates.push_back(v);
            exhausted = true;
        } else {
            // Free unknown: try small magnitudes first.
            candidates.push_back(0);
            for (Int v = 1; v <= span / 2; ++v) {
                candidates.push_back(v);
                candidates.push_back(-v);
            }
            exhausted = true;
        }
        for (Int v : candidates) {
            if (++nodes > opts.maxNodes) {
                exhausted = true;
                return false;
            }
            if (nodes % 256 == 0)
                tick(opts);
            z[k] = v;
            if (assign(k + 1))
                return true;
        }
        z[k] = 0;
        return false;
    };

    if (assign(0))
        return z;
    return std::nullopt;
}

/** Affine expression over (vars, params) -> polynomial over the
 * combined symbols [vars..., params...]. Requires integer coeffs. */
Polynomial
affineToPoly(const ir::AffineExpr &e, size_t n, size_t m)
{
    RatVec coeffs(n + m);
    for (size_t k = 0; k < n; ++k)
        coeffs[k] = e.varCoeff(k);
    for (size_t p = 0; p < m; ++p)
        coeffs[n + p] = e.paramCoeff(p);
    return Polynomial::affine(coeffs, e.constantTerm());
}

/** Recursive structural comparison of expression trees, where every
 * source affine is composed through T^{-1} before comparing. Returns
 * a mismatch description or "" when equal. */
std::string
exprMismatch(const ir::Expr &src, const ir::Expr &emit,
             const RatMatrix &tinv, const ir::NameTable &names,
             const std::string &path)
{
    using K = ir::Expr::Kind;
    if (src.kind != emit.kind)
        return path + ": operand kind differs";
    switch (src.kind) {
    case K::Number:
        if (src.number != emit.number)
            return path + ": literal differs";
        return "";
    case K::Scalar:
        if (src.scalarId != emit.scalarId)
            return path + ": scalar operand differs";
        return "";
    case K::Index: {
        ir::AffineExpr want = src.index.composeWithVarMap(tinv);
        if (want != emit.index)
            return path + ": index expression is " +
                   emit.index.str(names) + " but the source requires " +
                   want.str(names);
        return "";
    }
    case K::Ref: {
        if (src.ref.arrayId != emit.ref.arrayId)
            return path + ": reads a different array";
        if (src.ref.subscripts.size() != emit.ref.subscripts.size())
            return path + ": subscript arity differs";
        for (size_t j = 0; j < src.ref.subscripts.size(); ++j) {
            ir::AffineExpr want =
                src.ref.subscripts[j].composeWithVarMap(tinv);
            if (want != emit.ref.subscripts[j])
                return path + " subscript " + std::to_string(j) +
                       ": is " + emit.ref.subscripts[j].str(names) +
                       " but the source requires " + want.str(names);
        }
        return "";
    }
    case K::Binary: {
        if (src.op != emit.op)
            return path + ": operator '" + std::string(1, emit.op) +
                   "' differs from source '" + std::string(1, src.op) +
                   "'";
        if (src.kids.size() != emit.kids.size())
            return path + ": operand count differs";
        for (size_t j = 0; j < src.kids.size(); ++j) {
            std::string r = exprMismatch(
                src.kids[j], emit.kids[j], tinv, names,
                path + (j == 0 ? " lhs" : " rhs"));
            if (!r.empty())
                return r;
        }
        return "";
    }
    }
    return path + ": unknown expression kind";
}

} // namespace

Int
SymConstraint::evaluate(const IntVec &x, const IntVec &p) const
{
    Int acc = cst;
    for (size_t k = 0; k < var.size(); ++k)
        acc = checkedAdd(acc, checkedMul(var[k], x[k]));
    for (size_t j = 0; j < param.size(); ++j)
        acc = checkedAdd(acc, checkedMul(param[j], p[j]));
    return acc;
}

SymConstraint
makeConstraint(const ir::AffineExpr &e, std::string origin)
{
    size_t m = e.numParams();
    Row r = fm::toRow(e, fm::Rounding::Floor);
    SymConstraint c;
    c.param.assign(r.z.begin(), r.z.begin() + std::ptrdiff_t(m));
    c.var.assign(r.z.begin() + std::ptrdiff_t(m), r.z.end());
    c.cst = r.cst;
    c.origin = std::move(origin);
    return c;
}

ProofResult
proveImplies(const std::vector<SymConstraint> &sys,
             const SymConstraint &goal, const ProverOptions &opts)
{
    size_t n = goal.var.size(), m = goal.param.size();
    size_t total = m + n;
    tick(opts);

    // Rows over z = [params..., vars...], the engine's unknown order.
    auto row = [&](const SymConstraint &c) {
        Row r;
        r.z = c.param;
        r.z.insert(r.z.end(), c.var.begin(), c.var.end());
        r.cst = c.cst;
        return r;
    };
    std::vector<Row> rows;
    rows.reserve(sys.size() + 1);
    for (const SymConstraint &c : sys)
        rows.push_back(row(c));
    // Negate the goal over integers: goal < 0  <=>  -goal - 1 >= 0.
    Row neg = row(goal);
    for (Int &v : neg.z)
        v = checkedNeg(v);
    neg.cst = checkedSub(checkedNeg(neg.cst), 1);
    rows.push_back(std::move(neg));

    Cascade cas = eliminate(rows, total, opts);
    ProofResult res;
    if (cas.contradiction) {
        // {sys, not goal} is rationally infeasible, hence integer
        // infeasible, for EVERY parameter value: proven.
        res.status = ProofStatus::Proven;
        return res;
    }

    bool exhausted = false;
    std::optional<IntVec> z =
        searchWitness(rows, cas, total, opts, exhausted);
    if (z) {
        res.status = ProofStatus::Refuted;
        auto mid = z->begin() + std::ptrdiff_t(m);
        res.witnessParams.assign(z->begin(), mid);
        res.witnessVars.assign(mid, z->end());
        return res;
    }
    res.status = ProofStatus::Unknown;
    res.note = exhausted
                   ? "no rational refutation; integer witness search "
                     "exhausted its budget"
                   : "no rational refutation and no integer point "
                     "satisfies the negation";
    return res;
}

bool
checkCertificate(const std::vector<SymConstraint> &sys, const IntVec &lambda,
                 const SymConstraint &goal)
{
    size_t n = goal.var.size(), m = goal.param.size();
    if (lambda.size() != sys.size())
        return false;
    // C = sum_i lambda_i * sys_i, over the checker's own rows.
    IntVec cv(n, 0), cp(m, 0);
    Int cc = 0;
    for (size_t i = 0; i < sys.size(); ++i) {
        Int l = lambda[i];
        if (l < 0)
            return false;
        if (l == 0)
            continue;
        const SymConstraint &r = sys[i];
        if (r.var.size() != n || r.param.size() != m)
            return false;
        for (size_t k = 0; k < n; ++k)
            cv[k] = checkedAdd(cv[k], checkedMul(l, r.var[k]));
        for (size_t p = 0; p < m; ++p)
            cp[p] = checkedAdd(cp[p], checkedMul(l, r.param[p]));
        cc = checkedAdd(cc, checkedMul(l, r.cst));
    }
    // C's coefficients must be g times the goal's, g > 0.
    Int g = 0;
    auto scaled = [&](Int c, Int e) {
        if (e == 0)
            return c == 0;
        if (g == 0) {
            g = floorDiv(c, e);
            if (g <= 0)
                return false;
        }
        return checkedMul(g, e) == c;
    };
    for (size_t k = 0; k < n; ++k)
        if (!scaled(cv[k], goal.var[k]))
            return false;
    for (size_t p = 0; p < m; ++p)
        if (!scaled(cp[p], goal.param[p]))
            return false;
    // C >= 0 makes g times the goal's coefficient part >= -C.cst; that
    // part is an integer, so it is >= -floor(C.cst / g) (one
    // Chvatal-Gomory round), and the goal holds when its constant is
    // >= floor(C.cst / g).
    return g > 0 && goal.cst >= floorDiv(cc, g);
}

size_t
unitCertificate(const std::vector<SymConstraint> &sys,
                const SymConstraint &goal)
{
    for (size_t j = 0; j < sys.size(); ++j)
        if (sys[j].cst <= goal.cst && sys[j].var == goal.var &&
            sys[j].param == goal.param)
            return j;
    return sys.size();
}

SymbolicVerdict
checkLatticeSymbolic(const ir::Program &prog,
                     const xform::TransformedNest &nest,
                     const ProverOptions &opts)
{
    SymbolicVerdict v;
    size_t n = prog.nest.depth();
    size_t m = prog.params.size();
    const IntMatrix &t = nest.transform();
    tick(opts);

    if (t.rows() != n || t.cols() != n || nest.depth() != n) {
        v.detail = "transformation shape mismatch: T is " +
                   std::to_string(t.rows()) + "x" +
                   std::to_string(t.cols()) + " for a depth-" +
                   std::to_string(n) + " nest";
        return v;
    }
    if (!isInvertible(t)) {
        v.detail = "transformation T=" + matStr(t) + " is singular";
        return v;
    }

    // --- Lattice part: T.Z^n versus the emitted stride/anchor walk.
    ColumnHNF h = columnHNF(t);
    const IntMatrix &lh = nest.lattice().hnf();
    if (!(h.h == lh)) {
        v.detail = "counterexample: emitted lattice HNF " + matStr(lh) +
                   " differs from the column HNF of T " + matStr(h.h) +
                   ": the stride/anchor walk scans a different lattice "
                   "than T.Z^n";
        return v;
    }
    for (size_t k = 0; k < n; ++k) {
        if (nest.loops()[k].stride != nest.lattice().stride(k)) {
            v.detail = "counterexample: loop level " +
                       std::to_string(k) + " declares stride " +
                       std::to_string(nest.loops()[k].stride) +
                       " but the lattice walks stride " +
                       std::to_string(nest.lattice().stride(k));
            return v;
        }
    }
    // Independent cross-checks through different code paths: the
    // Smith invariant factors of T must multiply to the lattice index,
    // and every HNF generator must be Diophantine-solvable as an
    // integer combination of T's columns (and vice versa).
    SmithForm sf = smithForm(t);
    Int smith_index = 1;
    for (size_t k = 0; k < n; ++k) {
        Int d = sf.s(k, k);
        smith_index = checkedMul(smith_index, d < 0 ? -d : d);
    }
    if (smith_index != nest.lattice().index()) {
        v.detail = "counterexample: Smith invariant factors of T "
                   "multiply to " +
                   std::to_string(smith_index) +
                   " but the emitted lattice has index " +
                   std::to_string(nest.lattice().index());
        return v;
    }
    for (size_t k = 0; k < n; ++k) {
        tick(opts);
        if (!solveDiophantine(t, lh.column(k))) {
            v.detail = "counterexample: emitted lattice generator " +
                       pointStr(lh.column(k)) +
                       " is not an integer combination of T's columns";
            return v;
        }
        if (!solveDiophantine(lh, t.column(k))) {
            v.detail = "counterexample: T column " +
                       pointStr(t.column(k)) +
                       " is not a point of the emitted lattice";
            return v;
        }
    }

    // --- Polyhedron part, entirely in source space: substituting
    // u = T x turns the emitted bounds into constraints over integer
    // x, and T.Z^n membership becomes free (x ranges over all of Z^n).
    // Origins are rendered only for a failure report.
    std::vector<ir::AffineExpr> cons = prog.nest.constraints(m);
    std::vector<SymConstraint> source;
    source.reserve(cons.size());
    for (const ir::AffineExpr &e : cons)
        source.push_back(makeConstraint(e));
    auto sourceOrigin = [&](size_t i) {
        return "bound " + cons[i].str(prog.names()) + " >= 0";
    };

    RatMatrix trat = toRational(t);
    /** An emitted row's bound and its certificate (null: none). */
    struct Emitted
    {
        const xform::TransformedLoop *loop;
        const ir::AffineExpr *bound;
        bool lower;
        const IntVec *cert;
    };
    std::vector<SymConstraint> emitted;
    std::vector<Emitted> where;
    for (size_t k = 0; k < n; ++k) {
        const xform::TransformedLoop &l = nest.loops()[k];
        ir::AffineExpr uk = ir::AffineExpr::variable(k, n, m);
        for (bool lower : {true, false}) {
            const std::vector<ir::AffineExpr> &bounds =
                lower ? l.lower : l.upper;
            const std::vector<IntVec> &certs =
                lower ? l.lowerCert : l.upperCert;
            for (size_t i = 0; i < bounds.size(); ++i) {
                ir::AffineExpr row = lower ? uk - bounds[i] : bounds[i] - uk;
                emitted.push_back(makeConstraint(row.composeWithVarMap(trat)));
                where.push_back({&l, &bounds[i], lower,
                                 i < certs.size() ? &certs[i] : nullptr});
            }
        }
    }
    auto emittedOrigin = [&](size_t j) {
        ir::NameTable enames;
        for (const xform::TransformedLoop &l : nest.loops())
            enames.vars.push_back(l.var);
        enames.params = prog.params;
        return "bound " + where[j].loop->var +
               (where[j].lower ? " >= " : " <= ") +
               where[j].bound->str(enames);
    };

    // Forward: every source point's image is scanned. The transformer's
    // certificate discharges the implication; the prover runs only
    // where it is missing or fails the check.
    for (size_t j = 0; j < emitted.size(); ++j) {
        tick(opts);
        if (where[j].cert &&
            checkCertificate(source, *where[j].cert, emitted[j])) {
            ++v.byCertificate;
            continue;
        }
        ++v.byProver;
        ProofResult pr = proveImplies(source, emitted[j], opts);
        if (pr.status == ProofStatus::Refuted) {
            IntVec u = applyT(t, pr.witnessVars);
            v.detail = "counterexample: source iteration x=" +
                       pointStr(pr.witnessVars) + " (" +
                       bindingStr(prog.params, pr.witnessParams) +
                       ") has image point u=" + pointStr(u) +
                       " violating emitted " + emittedOrigin(j) +
                       ", which the emitted nest never enumerates";
            return v;
        }
        if (pr.status == ProofStatus::Unknown) {
            v.detail = "cannot prove the emitted " + emittedOrigin(j) +
                       " covers every source iteration (" + pr.note +
                       ")";
            return v;
        }
    }

    // Backward: every scanned point is the image of a source point.
    // Each source row is emitted at its innermost new variable or
    // dominated there, so a unit certificate discharges it.
    for (size_t i = 0; i < source.size(); ++i) {
        tick(opts);
        if (unitCertificate(emitted, source[i]) < emitted.size()) {
            ++v.byCertificate;
            continue;
        }
        ++v.byProver;
        ProofResult pr = proveImplies(emitted, source[i], opts);
        if (pr.status == ProofStatus::Refuted) {
            IntVec u = applyT(t, pr.witnessVars);
            v.detail = "counterexample: emitted nest enumerates u=" +
                       pointStr(u) + " (" +
                       bindingStr(prog.params, pr.witnessParams) +
                       "), which is the image of no source iteration: "
                       "x = T^-1 u = " +
                       pointStr(pr.witnessVars) + " violates source " +
                       sourceOrigin(i);
            return v;
        }
        if (pr.status == ProofStatus::Unknown) {
            v.detail = "cannot prove every emitted point satisfies "
                       "source " +
                       sourceOrigin(i) + " (" + pr.note + ")";
            return v;
        }
    }

    v.passed = true;
    std::ostringstream os;
    os << "proven for all parameter values: HNF(T) matches the "
          "emitted lattice (index "
       << nest.lattice().index()
       << ", Smith and Diophantine cross-checked), "
       << emitted.size() + source.size()
       << " bound implication(s) discharged";
    v.detail = os.str();
    return v;
}

SymbolicVerdict
checkDependencesSymbolic(const ir::Program &prog,
                         const xform::TransformedNest &nest,
                         const IntMatrix &dep_matrix,
                         const ProverOptions &opts)
{
    SymbolicVerdict v;
    size_t n = nest.depth();
    const IntMatrix &t = nest.transform();
    tick(opts);

    // Premise re-derivation: the T*d criterion assumes the emitted
    // nest scans in strictly increasing lexicographic order. That
    // holds by construction iff bounds at level k reference only
    // outer variables and the lattice walk ascends with a positive
    // stride at every level (lower-triangular HNF, positive diagonal).
    for (size_t k = 0; k < n; ++k) {
        const xform::TransformedLoop &l = nest.loops()[k];
        std::vector<const ir::AffineExpr *> bounds;
        for (const ir::AffineExpr &b : l.lower)
            bounds.push_back(&b);
        for (const ir::AffineExpr &b : l.upper)
            bounds.push_back(&b);
        for (const ir::AffineExpr *b : bounds) {
            if (b->innermostVar() >= int(k)) {
                v.detail = "counterexample: bound at level " +
                           std::to_string(k) + " references variable " +
                           nest.loops()[size_t(b->innermostVar())].var +
                           ", so the scan order premise does not hold";
                return v;
            }
        }
    }
    const IntMatrix &lh = nest.lattice().hnf();
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            if (lh(i, j) != 0) {
                v.detail = "counterexample: lattice HNF is not "
                           "lower-triangular; the forward-substitution "
                           "scan is ill-defined";
                return v;
            }
        }
        if (lh(i, i) < 1 || nest.loops()[i].stride < 1) {
            v.detail = "counterexample: level " + std::to_string(i) +
                       " stride is not positive; the scan does not "
                       "ascend";
            return v;
        }
    }

    // The criterion itself: every dependence column maps to a
    // lexicographically positive distance in the new space.
    for (size_t c = 0; c < dep_matrix.cols(); ++c) {
        tick(opts);
        IntVec d(dep_matrix.rows());
        for (size_t i = 0; i < dep_matrix.rows(); ++i)
            d[i] = dep_matrix(i, c);
        IntVec td = applyT(t, d);
        if (lexSign(td) < 0 || (lexSign(td) == 0 && lexSign(d) != 0)) {
            v.detail = "counterexample: dependence column " +
                       std::to_string(c) + " d=" + pointStr(d) +
                       " maps to T*d=" + pointStr(td) +
                       ", which is not lexicographically positive: the "
                       "emitted loop order runs the dependent iteration "
                       "first";
            return v;
        }
    }

    // The columns are exact for constant distances and single-generator
    // families. Where the source's dependence analysis is imprecise, a T
    // can keep every column positive yet reverse a combination of them
    // (d1 - d2, say), so each family is decided as a whole. The identity
    // keeps every sign and needs no analysis.
    if (!(t == IntMatrix::identity(n))) {
        deps::DependenceInfo dinfo = deps::analyzeDependences(prog);
        if (dinfo.imprecise) {
            for (const deps::DependenceFamily &f : dinfo.families) {
                tick(opts);
                if (!deps::preservesLexSign(t, f)) {
                    v.detail = familyViolation(t, f);
                    return v;
                }
            }
        }
    }

    v.passed = true;
    std::ostringstream os;
    os << dep_matrix.cols() << " dependence column(s) stay "
       << "lexicographically positive; scan order proven "
       << "lexicographic symbolically (triangular bounds, positive "
       << "strides)";
    v.detail = os.str();
    return v;
}

SymbolicVerdict
checkBodySymbolic(const ir::Program &prog,
                  const xform::TransformedNest &nest,
                  const ProverOptions &opts)
{
    SymbolicVerdict v;
    size_t n = prog.nest.depth();
    const IntMatrix &t = nest.transform();
    const RatMatrix &tinv = nest.inverseTransform();
    tick(opts);

    if (tinv.rows() != n || tinv.cols() != n) {
        v.detail = "inverse transform shape mismatch";
        return v;
    }
    RatMatrix prod = toRational(t) * tinv;
    RatMatrix ident = RatMatrix::identity(n);
    if (!(prod == ident)) {
        v.detail = "counterexample: the carried inverse is wrong, "
                   "T * T^-1 != I, so the rewritten body reads and "
                   "writes the wrong source iteration";
        return v;
    }

    if (nest.body().size() != prog.nest.body().size()) {
        v.detail = "counterexample: emitted body has " +
                   std::to_string(nest.body().size()) +
                   " statement(s) but the source has " +
                   std::to_string(prog.nest.body().size());
        return v;
    }

    ir::NameTable enames;
    for (const xform::TransformedLoop &l : nest.loops())
        enames.vars.push_back(l.var);
    enames.params = prog.params;

    for (size_t s = 0; s < nest.body().size(); ++s) {
        tick(opts);
        const ir::Statement &src = prog.nest.body()[s];
        const ir::Statement &emit = nest.body()[s];
        std::string where = "statement " + std::to_string(s);
        if (src.lhs.arrayId != emit.lhs.arrayId) {
            v.detail = "symbolic footprint differs: " + where +
                       " writes a different array";
            return v;
        }
        if (src.lhs.subscripts.size() != emit.lhs.subscripts.size()) {
            v.detail = "symbolic footprint differs: " + where +
                       " write subscript arity differs";
            return v;
        }
        for (size_t j = 0; j < src.lhs.subscripts.size(); ++j) {
            ir::AffineExpr want =
                src.lhs.subscripts[j].composeWithVarMap(tinv);
            if (want != emit.lhs.subscripts[j]) {
                v.detail = "symbolic footprint differs: " + where +
                           " write subscript " + std::to_string(j) +
                           " is " +
                           emit.lhs.subscripts[j].str(enames) +
                           " but the source requires " +
                           want.str(enames);
                return v;
            }
        }
        std::string mism =
            exprMismatch(src.rhs, emit.rhs, tinv, enames, where);
        if (!mism.empty()) {
            v.detail = "symbolic footprint differs: " + mism;
            return v;
        }
    }

    std::optional<Polynomial> tc;
    try {
        tc = symbolicTripCount(prog);
    } catch (const OverflowError &) {
        // Constant bounds so large the count itself exceeds 64-bit
        // range (e.g. 10^9 per level). The count is informational:
        // equality follows from the lattice bijection regardless, and
        // a verdict must never depend on trip-count magnitude.
        tc = std::nullopt;
    }
    std::ostringstream os;
    os << "emitted body proven identical to the source body under "
          "x = T^-1 u ("
       << nest.body().size() << " statement(s)); ";
    if (tc)
        os << "symbolic trip count " << tc->str(prog.params)
           << " (abstract acceleration), emitted count equal by the "
              "lattice bijection";
    else
        os << "no polynomial trip-count closed form (multi-bound "
              "level or out-of-range count); count equality follows "
              "from the lattice bijection";
    v.passed = true;
    v.detail = os.str();
    return v;
}

std::optional<Polynomial>
symbolicTripCount(const ir::Program &prog)
{
    size_t n = prog.nest.depth();
    size_t m = prog.params.size();
    Polynomial count = Polynomial::constant(Rational(1), n + m);
    for (size_t k = n; k-- > 0;) {
        const ir::Loop &l = prog.nest.loops()[k];
        if (l.lower.size() != 1 || l.upper.size() != 1)
            return std::nullopt; // e.g. banded SYR2K max/min bounds
        if (!l.lower[0].hasIntegerCoeffs() ||
            !l.upper[0].hasIntegerCoeffs())
            return std::nullopt; // floor/ceil break the closed form
        count = sumOverSymbol(count, k, affineToPoly(l.lower[0], n, m),
                              affineToPoly(l.upper[0], n, m));
    }
    // The variable symbols are summed away; re-index onto params only.
    Polynomial out(m);
    for (const auto &[e, c] : count.terms()) {
        Polynomial::Exponents pe(m);
        for (size_t k = 0; k < n; ++k)
            if (e[k] != 0)
                throw InternalError(
                    "trip count still mentions a loop variable");
        for (size_t p = 0; p < m; ++p)
            pe[p] = e[n + p];
        out.addTerm(pe, c);
    }
    return out;
}

} // namespace anc::verify
