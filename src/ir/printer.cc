#include "ir/printer.h"

#include <charconv>
#include <cmath>

namespace anc::ir {

namespace {

/** Append "open e1, e2, ... close". */
void
appendList(std::string &out, const char *open,
           const std::vector<AffineExpr> &es, const NameTable &names,
           char close)
{
    out += open;
    for (size_t i = 0; i < es.size(); ++i) {
        if (i)
            out += ", ";
        es[i].appendTo(out, names);
    }
    out += close;
}

void
appendRef(std::string &out, const ArrayRef &r, const Program &prog,
          const NameTable &names)
{
    out += prog.arrays[r.arrayId].name;
    appendList(out, "[", r.subscripts, names, ']');
}

/** The shortest fixed-notation decimal that reads back as v. */
void
appendNumber(std::string &out, double v)
{
    char buf[400]; // the fixed rendering of any finite double fits
    const char *end =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed)
            .ptr;
    out.append(buf, size_t(end - buf));
    // From 1e18 on, an integral value may overflow the lexer's 64-bit
    // integer literal; ".0" makes it a number literal.
    if (std::isfinite(v) && std::fabs(v) >= 1e18)
        out += ".0";
}

void
appendExpr(std::string &out, const Expr &e, const Program &prog,
           const NameTable &names)
{
    switch (e.kind) {
      case Expr::Kind::Number:
        return appendNumber(out, e.number);
      case Expr::Kind::Scalar:
        out += prog.scalars[e.scalarId];
        return;
      case Expr::Kind::Index:
        out += '(';
        e.index.appendTo(out, names);
        out += ')';
        return;
      case Expr::Kind::Ref:
        return appendRef(out, e.ref, prog, names);
      case Expr::Kind::Binary:
        for (size_t i = 0; i < 2; ++i) {
            const Expr &k = e.kids[i];
            // A sum under * or / gets parentheses.
            bool paren = (e.op == '*' || e.op == '/') &&
                         k.kind == Expr::Kind::Binary &&
                         (k.op == '+' || k.op == '-');
            if (i)
                out.append({' ', e.op, ' '});
            if (paren)
                out += '(';
            appendExpr(out, k, prog, names);
            if (paren)
                out += ')';
        }
        return;
    }
    throw InternalError("unknown expression kind");
}

} // namespace

void
appendStatement(std::string &out, const Statement &s, const Program &prog,
                const NameTable &names)
{
    appendRef(out, s.lhs, prog, names);
    out += " = ";
    appendExpr(out, s.rhs, prog, names);
}

void
appendBoundList(std::string &out, const std::vector<AffineExpr> &bounds,
                const char *comb, const NameTable &names, const char *round)
{
    for (size_t i = 0; i < bounds.size(); ++i) {
        if (i)
            out += ", ";
        else if (bounds.size() > 1)
            out.append(comb).append("(");
        bool rounded = round && !bounds[i].hasIntegerCoeffs();
        if (rounded)
            out.append(round).append("(");
        bounds[i].appendTo(out, names);
        if (rounded)
            out += ')';
    }
    if (bounds.size() > 1)
        out += ')';
}

void
appendNest(std::string &out, const LoopNest &nest, const Program &prog,
           const NameTable &names)
{
    size_t indent = 0;
    for (const Loop &l : nest.loops()) {
        out.append(indent, ' ').append("for ").append(l.var).append(" = ");
        appendBoundList(out, l.lower, "max", names);
        out += ", ";
        appendBoundList(out, l.upper, "min", names);
        out += '\n';
        indent += 2;
    }
    for (const Statement &s : nest.body()) {
        out.append(indent, ' ');
        appendStatement(out, s, prog, names);
        out += '\n';
    }
}

void
appendArrayDecl(std::string &out, const ArrayDecl &a, const NameTable &names,
                bool dsl)
{
    static const char *const kKinds[] = {"replicated", "wrapped", "blocked",
                                         "block2d"};
    out.append("array ").append(a.name);
    appendList(out, "(", a.extents, names, ')');
    const std::vector<size_t> &dims = a.dist.dims;
    if (a.dist.kind != DistKind::Replicated || !dsl)
        out.append(dsl ? " distribute " : " ")
            .append(kKinds[size_t(a.dist.kind)]);
    const char *open = dsl ? "(" : dims.size() > 1 ? "(dims " : "(dim ";
    for (size_t i = 0; i < dims.size(); ++i)
        out.append(i ? ", " : open).append(std::to_string(dims[i]));
    out += dims.empty() ? "\n" : ")\n";
}

std::string
printNest(const LoopNest &nest, const Program &prog)
{
    NameTable names{{}, prog.params};
    for (const Loop &l : nest.loops())
        names.vars.push_back(l.var);
    std::string out;
    appendNest(out, nest, prog, names);
    return out;
}

std::string
printProgram(const Program &prog)
{
    std::string out;
    NameTable ext_names{{}, prog.params};
    for (const ArrayDecl &a : prog.arrays)
        appendArrayDecl(out, a, ext_names, /*dsl=*/false);
    return out + printNest(prog.nest, prog);
}

} // namespace anc::ir
