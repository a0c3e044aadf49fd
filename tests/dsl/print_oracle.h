/**
 * @file
 * Test oracle: the ostringstream renderer for affine expressions, IR
 * nests and DSL source.
 *
 * This is how the library rendered before its append-only renderer
 * (AffineExpr::appendTo, ir::append*): one ostringstream per
 * expression, literals through `os << double`. It shares no rendering
 * code with the library, so tests hold the renderer to it byte for
 * byte. The one intended difference is literals: the oracle writes
 * them with 6 significant digits, the library with the shortest
 * round-trip fixed notation, so the two agree only on programs whose
 * literals have at most 6 significant digits and render without an
 * exponent.
 */

#ifndef ANC_TESTS_DSL_PRINT_ORACLE_H
#define ANC_TESTS_DSL_PRINT_ORACLE_H

#include <sstream>
#include <string>

#include "ir/loop_nest.h"

namespace anc::testutil {

inline void
oracleTerm(std::ostringstream &os, bool &first, const Rational &c,
           const std::string &name)
{
    if (c.isZero())
        return;
    Rational a = c.abs();
    if (first) {
        if (c.isNegative())
            os << "-";
        first = false;
    } else {
        os << (c.isNegative() ? " - " : " + ");
    }
    if (name.empty()) {
        os << a.str();
    } else {
        if (a != Rational(1))
            os << a.str() << "*";
        os << name;
    }
}

inline std::string
oracleAffine(const ir::AffineExpr &e, const ir::NameTable &names)
{
    std::ostringstream os;
    bool first = true;
    for (size_t k = 0; k < e.numVars(); ++k)
        oracleTerm(os, first, e.varCoeff(k), names.vars[k]);
    for (size_t p = 0; p < e.numParams(); ++p)
        oracleTerm(os, first, e.paramCoeff(p), names.params[p]);
    oracleTerm(os, first, e.constantTerm(), "");
    if (first)
        return "0";
    return os.str();
}

inline std::string
oracleBoundList(const std::vector<ir::AffineExpr> &bounds, const char *comb,
                const ir::NameTable &names)
{
    if (bounds.size() == 1)
        return oracleAffine(bounds[0], names);
    std::ostringstream os;
    os << comb << "(";
    for (size_t i = 0; i < bounds.size(); ++i) {
        if (i)
            os << ", ";
        os << oracleAffine(bounds[i], names);
    }
    os << ")";
    return os.str();
}

inline std::string
oracleRef(const ir::ArrayRef &r, const ir::Program &prog,
          const ir::NameTable &names)
{
    std::ostringstream os;
    os << prog.arrays[r.arrayId].name << "[";
    for (size_t i = 0; i < r.subscripts.size(); ++i) {
        if (i)
            os << ", ";
        os << oracleAffine(r.subscripts[i], names);
    }
    os << "]";
    return os.str();
}

inline std::string
oracleExpr(const ir::Expr &e, const ir::Program &prog,
           const ir::NameTable &names)
{
    switch (e.kind) {
      case ir::Expr::Kind::Number: {
        std::ostringstream os;
        os << e.number;
        return os.str();
      }
      case ir::Expr::Kind::Scalar:
        return prog.scalars[e.scalarId];
      case ir::Expr::Kind::Index:
        return "(" + oracleAffine(e.index, names) + ")";
      case ir::Expr::Kind::Ref:
        return oracleRef(e.ref, prog, names);
      case ir::Expr::Kind::Binary: {
        std::string a = oracleExpr(e.kids[0], prog, names);
        std::string b = oracleExpr(e.kids[1], prog, names);
        if (e.op == '+' || e.op == '-')
            return a + " " + e.op + " " + b;
        auto wrap = [](const ir::Expr &k, const std::string &s) {
            if (k.kind == ir::Expr::Kind::Binary &&
                (k.op == '+' || k.op == '-'))
                return "(" + s + ")";
            return s;
        };
        return wrap(e.kids[0], a) + " " + e.op + " " + wrap(e.kids[1], b);
      }
    }
    throw InternalError("unknown expression kind");
}

inline std::string
oracleStatement(const ir::Statement &s, const ir::Program &prog,
                const ir::NameTable &names)
{
    return oracleRef(s.lhs, prog, names) + " = " +
           oracleExpr(s.rhs, prog, names);
}

/** ir::printNest as the oracle renders it. */
inline std::string
oracleNest(const ir::LoopNest &nest, const ir::Program &prog)
{
    ir::NameTable names;
    for (const ir::Loop &l : nest.loops())
        names.vars.push_back(l.var);
    names.params = prog.params;

    std::ostringstream os;
    std::string indent;
    for (const ir::Loop &l : nest.loops()) {
        os << indent << "for " << l.var << " = "
           << oracleBoundList(l.lower, "max", names) << ", "
           << oracleBoundList(l.upper, "min", names) << "\n";
        indent += "  ";
    }
    for (const ir::Statement &s : nest.body())
        os << indent << oracleStatement(s, prog, names) << "\n";
    return os.str();
}

/** dsl::printDsl as the oracle renders it. */
inline std::string
oracleDsl(const ir::Program &prog)
{
    prog.validate();
    std::ostringstream os;
    auto name_list = [&](const std::vector<std::string> &names,
                         const char *kw) {
        if (names.empty())
            return;
        os << kw << " ";
        for (size_t i = 0; i < names.size(); ++i) {
            if (i)
                os << ", ";
            os << names[i];
        }
        os << "\n";
    };
    name_list(prog.params, "param");
    name_list(prog.scalars, "scalar");

    ir::NameTable ext_names;
    ext_names.params = prog.params;
    for (const ir::ArrayDecl &a : prog.arrays) {
        os << "array " << a.name << "(";
        for (size_t d = 0; d < a.extents.size(); ++d) {
            if (d)
                os << ", ";
            os << oracleAffine(a.extents[d], ext_names);
        }
        os << ")";
        const std::vector<size_t> &dims = a.dist.dims;
        switch (a.dist.kind) {
          case ir::DistKind::Replicated:
            break;
          case ir::DistKind::Wrapped:
            os << " distribute wrapped(" << dims[0] << ")";
            break;
          case ir::DistKind::Blocked:
            os << " distribute blocked(" << dims[0] << ")";
            break;
          case ir::DistKind::Block2D:
            os << " distribute block2d(" << dims[0] << ", " << dims[1]
               << ")";
            break;
        }
        os << "\n";
    }
    os << oracleNest(prog.nest, prog);
    return os.str();
}

} // namespace anc::testutil

#endif // ANC_TESTS_DSL_PRINT_ORACLE_H
