#include "dsl/parser.h"

#include <algorithm>
#include <limits>

#include "dsl/lexer.h"

namespace anc::dsl {

namespace {

using ir::AffineExpr;
using ir::Expr;

class Parser
{
  public:
    explicit Parser(const std::string &source)
        : toks_(tokenize(source))
    {
        // Pre-scan: the nest depth fixes the shape of every affine
        // expression before any bound is parsed.
        for (const Token &t : toks_)
            if (t.kind == Tok::KwFor)
                ++depth_;
    }

    ir::Program
    parse()
    {
        parseDecls();
        if (depth_ == 0)
            fail("program has no loop nest");
        while (at(Tok::KwFor))
            parseForLine();
        if (!at(Tok::Ident))
            fail("expected a statement after the loop headers");
        while (at(Tok::Ident))
            parseStatement();
        expect(Tok::End);
        prog_.validate();
        return prog_;
    }

    ParseResult
    parseRecovering(size_t max_errors)
    {
        ParseResult out;
        while (!at(Tok::End) && out.diagnostics.size() < max_errors) {
            try {
                if (at(Tok::KwParam) || at(Tok::KwScalar) ||
                    at(Tok::KwArray))
                    parseOneDecl();
                else if (at(Tok::KwFor))
                    parseForLine();
                else if (at(Tok::Ident))
                    parseStatement();
                else
                    fail("expected a declaration, loop header, or "
                         "statement");
            } catch (const UserError &e) {
                out.diagnostics.push_back(
                    {cur().line, stripLinePrefix(e.what())});
                syncToNextUnit();
            }
        }
        if (!at(Tok::End))
            out.diagnostics.push_back(
                {cur().line, "too many errors; giving up"});
        else if (depth_ == 0)
            out.diagnostics.push_back(
                {cur().line, "program has no loop nest"});
        try {
            if (prog_.nest.body().empty())
                throw UserError("program has no statements");
            prog_.validate();
            out.program = std::move(prog_);
        } catch (const UserError &e) {
            // Whatever survived recovery is not a whole program; keep
            // the cause only when no earlier error explains it.
            if (out.diagnostics.empty())
                out.diagnostics.push_back({-1, e.what()});
        }
        return out;
    }

  private:
    std::vector<Token> toks_;
    size_t pos_ = 0;
    size_t depth_ = 0;
    ir::Program prog_;

    /** Declared names, all kinds in one flat table: programs declare a
     * handful, so a linear scan beats any map. Views point into the
     * source, which outlives the parser. */
    enum class Kind
    {
        Param,
        Scalar,
        Array,
        Var,
    };
    struct Name
    {
        std::string_view text;
        Kind kind;
        size_t index;
    };
    std::vector<Name> names_;

    const Name *
    find(std::string_view text) const
    {
        for (const Name &n : names_)
            if (n.text == text)
                return &n;
        return nullptr;
    }

    const Name *
    find(std::string_view text, Kind kind) const
    {
        const Name *n = find(text);
        return n && n->kind == kind ? n : nullptr;
    }

    const Token &cur() const { return toks_[pos_]; }
    bool at(Tok t) const { return cur().kind == t; }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw UserError("line " + std::to_string(cur().line) + ": " + msg);
    }

    const Token &
    expect(Tok t)
    {
        if (!at(t))
            fail("expected " + tokName(t) + ", found " +
                 tokName(cur().kind) +
                 (cur().text.empty()
                      ? ""
                      : " '" + std::string(cur().text) + "'"));
        return toks_[pos_++];
    }

    bool
    accept(Tok t)
    {
        if (!at(t)) {
            return false;
        }
        ++pos_;
        return true;
    }

    void
    declareName(std::string_view name)
    {
        if (find(name))
            fail("name '" + std::string(name) + "' is already declared");
    }

    // --- error recovery --------------------------------------------

    /** "line 12: expected ..." -> "expected ..." (the line is carried
     * separately in ParseDiagnostic). */
    static std::string
    stripLinePrefix(const std::string &msg)
    {
        if (msg.rfind("line ", 0) == 0) {
            size_t colon = msg.find(": ");
            if (colon != std::string::npos)
                return msg.substr(colon + 2);
        }
        return msg;
    }

    /** Skip to the first token on a later line that can start a new
     * unit (declaration keyword, 'for', or an identifier). */
    void
    syncToNextUnit()
    {
        int err_line = cur().line;
        if (!at(Tok::End))
            ++pos_;
        while (!at(Tok::End)) {
            if (cur().line > err_line &&
                (at(Tok::KwFor) || at(Tok::KwParam) || at(Tok::KwScalar) ||
                 at(Tok::KwArray) || at(Tok::Ident)))
                return;
            ++pos_;
        }
    }

    // --- declarations ----------------------------------------------

    void
    parseDecls()
    {
        while (at(Tok::KwParam) || at(Tok::KwScalar) || at(Tok::KwArray))
            parseOneDecl();
    }

    void
    parseOneDecl()
    {
        if (accept(Tok::KwParam)) {
            do {
                std::string_view t = expect(Tok::Ident).text;
                declareName(t);
                names_.push_back({t, Kind::Param, prog_.params.size()});
                prog_.params.emplace_back(t);
            } while (accept(Tok::Comma));
        } else if (accept(Tok::KwScalar)) {
            do {
                std::string_view t = expect(Tok::Ident).text;
                declareName(t);
                names_.push_back({t, Kind::Scalar, prog_.scalars.size()});
                prog_.scalars.emplace_back(t);
            } while (accept(Tok::Comma));
        } else {
            expect(Tok::KwArray);
            parseArrayDecl();
        }
    }

    void
    parseArrayDecl()
    {
        std::string_view name = expect(Tok::Ident).text;
        declareName(name);
        ir::ArrayDecl decl;
        decl.name = name;
        expect(Tok::LParen);
        do {
            AffineExpr e = parseAffine(/*num_vars=*/0);
            decl.extents.push_back(std::move(e));
        } while (accept(Tok::Comma));
        expect(Tok::RParen);
        if (accept(Tok::KwDistribute))
            decl.dist = parseDist(decl.extents.size());
        names_.push_back({name, Kind::Array, prog_.arrays.size()});
        prog_.arrays.push_back(std::move(decl));
    }

    ir::DistributionSpec
    parseDist(size_t ndims)
    {
        auto dim_arg = [&]() {
            expect(Tok::LParen);
            Int d = expect(Tok::Integer).intValue;
            if (d < 0 || size_t(d) >= ndims)
                fail("distribution dimension out of range");
            return size_t(d);
        };
        if (accept(Tok::KwReplicated))
            return ir::DistributionSpec::replicated();
        if (accept(Tok::KwWrapped)) {
            size_t d = dim_arg();
            expect(Tok::RParen);
            return ir::DistributionSpec::wrapped(d);
        }
        if (accept(Tok::KwBlocked)) {
            size_t d = dim_arg();
            expect(Tok::RParen);
            return ir::DistributionSpec::blocked(d);
        }
        if (accept(Tok::KwBlock2d)) {
            size_t d0 = dim_arg();
            expect(Tok::Comma);
            Int d1 = expect(Tok::Integer).intValue;
            if (d1 < 0 || size_t(d1) >= ndims)
                fail("distribution dimension out of range");
            expect(Tok::RParen);
            return ir::DistributionSpec::block2d(d0, size_t(d1));
        }
        fail("expected a distribution kind");
    }

    // --- loops -----------------------------------------------------

    void
    parseForLine()
    {
        expect(Tok::KwFor);
        std::string_view var = expect(Tok::Ident).text;
        declareName(var);
        ir::Loop loop;
        loop.var = var;
        size_t level = prog_.nest.depth();
        expect(Tok::Assign);
        if (accept(Tok::KwMax)) {
            expect(Tok::LParen);
            do
                loop.lower.push_back(parseAffine(depth_));
            while (accept(Tok::Comma));
            expect(Tok::RParen);
        } else {
            loop.lower.push_back(parseAffine(depth_));
        }
        expect(Tok::Comma);
        if (accept(Tok::KwMin)) {
            expect(Tok::LParen);
            do
                loop.upper.push_back(parseAffine(depth_));
            while (accept(Tok::Comma));
            expect(Tok::RParen);
        } else {
            loop.upper.push_back(parseAffine(depth_));
        }
        names_.push_back({var, Kind::Var, level});
        prog_.nest.loops().push_back(std::move(loop));
    }

    // --- affine expressions ----------------------------------------

    /**
     * An affine expression under construction. While every step stays
     * integral it is a row of integers [vars..., params..., constant];
     * a division that leaves a non-integral coefficient turns it into
     * the exact rational AffineExpr, and the rest of that expression is
     * rational arithmetic. The integer steps compute in 128 bits and
     * narrow, so they overflow exactly where, and with the error that,
     * the rational arithmetic would.
     */
    struct Lin
    {
        std::vector<Int> row; //!< the value, while !rational
        bool rational = false;
        AffineExpr expr; //!< the value, once rational
    };

    Lin
    linUnit(size_t num_vars, size_t at, Int v)
    {
        Lin l;
        l.row.assign(num_vars + prog_.params.size() + 1, 0);
        l.row[at] = v;
        return l;
    }

    static bool
    isConstant(const Lin &l)
    {
        if (l.rational)
            return l.expr.isConstant();
        for (size_t i = 0; i + 1 < l.row.size(); ++i)
            if (l.row[i] != 0)
                return false;
        return true;
    }

    static Rational
    constantOf(const Lin &l)
    {
        return l.rational ? l.expr.constantTerm() : Rational(l.row.back());
    }

    void
    makeRational(Lin &l, size_t num_vars)
    {
        if (l.rational)
            return;
        l.expr = AffineExpr(num_vars, prog_.params.size());
        for (size_t k = 0; k < num_vars; ++k)
            l.expr.varCoeff(k) = l.row[k];
        for (size_t p = 0; p < prog_.params.size(); ++p)
            l.expr.paramCoeff(p) = l.row[num_vars + p];
        l.expr.constantTerm() = l.row.back();
        l.rational = true;
    }

    /** l *= f for an integer f. */
    static void
    scaleRow(Lin &l, Int f)
    {
        for (Int &c : l.row)
            if (c != 0)
                c = narrow128(Int128(c) * f);
    }

    AffineExpr
    parseAffine(size_t num_vars)
    {
        Lin l = parseAffineSum(num_vars);
        makeRational(l, num_vars);
        return std::move(l.expr);
    }

    Lin
    parseAffineSum(size_t num_vars)
    {
        Lin acc = parseAffineProduct(num_vars);
        while (at(Tok::Plus) || at(Tok::Minus)) {
            bool add = accept(Tok::Plus);
            if (!add)
                expect(Tok::Minus);
            Lin rhs = parseAffineProduct(num_vars);
            if (!acc.rational && !rhs.rational) {
                for (size_t i = 0; i < acc.row.size(); ++i) {
                    Int128 r = rhs.row[i];
                    if (r != 0)
                        acc.row[i] = narrow128(acc.row[i] + (add ? r : -r));
                }
                continue;
            }
            makeRational(acc, num_vars);
            makeRational(rhs, num_vars);
            acc.expr = add ? acc.expr + rhs.expr : acc.expr - rhs.expr;
        }
        return acc;
    }

    Lin
    parseAffineProduct(size_t num_vars)
    {
        Lin acc = parseAffineUnary(num_vars);
        while (at(Tok::Star) || at(Tok::Slash)) {
            bool mul = accept(Tok::Star);
            if (!mul)
                expect(Tok::Slash);
            Lin rhs = parseAffineUnary(num_vars);
            if (mul) {
                if (!isConstant(rhs)) {
                    if (!isConstant(acc))
                        fail("non-affine product (both factors are "
                             "symbolic)");
                    std::swap(acc, rhs);
                }
                // acc *= the constant rhs
                if (!acc.rational && !rhs.rational) {
                    scaleRow(acc, rhs.row.back());
                } else {
                    makeRational(acc, num_vars);
                    acc.expr = acc.expr.scaled(constantOf(rhs));
                }
                continue;
            }
            if (!isConstant(rhs))
                fail("division by a symbolic expression");
            Rational d = constantOf(rhs);
            if (d.isZero())
                fail("division by zero");
            // 1/INT64_MIN does not fit: leave that to the rationals,
            // which raise the overflow.
            auto divides = [&](Int c) { return Int128(c) % d.num() == 0; };
            if (!acc.rational && d.isInteger() &&
                d.num() != std::numeric_limits<Int>::min() &&
                std::all_of(acc.row.begin(), acc.row.end(), divides)) {
                for (Int &c : acc.row)
                    c = narrow128(Int128(c) / d.num());
                continue;
            }
            makeRational(acc, num_vars);
            acc.expr = acc.expr.scaled(d.inverse());
        }
        return acc;
    }

    Lin
    parseAffineUnary(size_t num_vars)
    {
        if (accept(Tok::Minus)) {
            Lin l = parseAffineUnary(num_vars);
            if (l.rational)
                l.expr = -l.expr;
            else
                scaleRow(l, -1);
            return l;
        }
        if (at(Tok::Integer))
            return linUnit(num_vars, num_vars + prog_.params.size(),
                           toks_[pos_++].intValue);
        if (accept(Tok::LParen)) {
            Lin e = parseAffineSum(num_vars);
            expect(Tok::RParen);
            return e;
        }
        if (at(Tok::Ident)) {
            std::string_view t = toks_[pos_++].text;
            const Name *n = find(t);
            if (n && n->kind == Kind::Var) {
                if (num_vars == 0)
                    fail("loop variable '" + std::string(t) +
                         "' is not allowed here");
                return linUnit(num_vars, n->index, 1);
            }
            if (n && n->kind == Kind::Param)
                return linUnit(num_vars, num_vars + n->index, 1);
            fail("unknown identifier '" + std::string(t) +
                 "' in an affine expression");
        }
        fail("expected an affine expression");
    }

    // --- statements ------------------------------------------------

    ir::ArrayRef
    parseRef(std::string_view name)
    {
        const Name *n = find(name, Kind::Array);
        if (!n)
            fail("unknown array '" + std::string(name) + "'");
        ir::ArrayRef ref;
        ref.arrayId = n->index;
        expect(Tok::LBracket);
        do
            ref.subscripts.push_back(parseAffine(depth_));
        while (accept(Tok::Comma));
        expect(Tok::RBracket);
        return ref;
    }

    void
    parseStatement()
    {
        std::string_view name = expect(Tok::Ident).text;
        if (!find(name, Kind::Array))
            fail("statement must assign to an array element");
        ir::ArrayRef lhs = parseRef(name);
        expect(Tok::Assign);
        Expr rhs = parseExpr();
        prog_.nest.body().push_back({std::move(lhs), std::move(rhs)});
    }

    Expr
    parseExpr()
    {
        Expr acc = parseTerm();
        while (at(Tok::Plus) || at(Tok::Minus)) {
            char op = accept(Tok::Plus) ? '+' : (expect(Tok::Minus), '-');
            acc = Expr::binary(op, std::move(acc), parseTerm());
        }
        return acc;
    }

    Expr
    parseTerm()
    {
        Expr acc = parseFactor();
        while (at(Tok::Star) || at(Tok::Slash)) {
            char op = accept(Tok::Star) ? '*' : (expect(Tok::Slash), '/');
            acc = Expr::binary(op, std::move(acc), parseFactor());
        }
        return acc;
    }

    Expr
    parseFactor()
    {
        if (accept(Tok::Minus))
            return Expr::binary('-', Expr::number_(0.0), parseFactor());
        if (at(Tok::Float))
            return Expr::number_(toks_[pos_++].floatValue);
        if (at(Tok::Integer))
            return Expr::number_(double(toks_[pos_++].intValue));
        if (accept(Tok::LParen)) {
            Expr e = parseExpr();
            expect(Tok::RParen);
            return e;
        }
        if (at(Tok::Ident)) {
            std::string_view t = toks_[pos_++].text;
            const Name *n = find(t);
            if (n) {
                switch (n->kind) {
                  case Kind::Array:
                    return Expr::arrayRead(parseRef(t));
                  case Kind::Scalar:
                    return Expr::scalar(n->index);
                  case Kind::Var:
                    return Expr::indexValue(AffineExpr::variable(
                        n->index, depth_, prog_.params.size()));
                  case Kind::Param:
                    return Expr::indexValue(AffineExpr::parameter(
                        n->index, depth_, prog_.params.size()));
                }
            }
            fail("unknown identifier '" + std::string(t) +
                 "' in expression");
        }
        fail("expected an expression");
    }
};

} // namespace

ir::Program
parseProgram(const std::string &source)
{
    return Parser(source).parse();
}

ParseResult
parseProgramRecovering(const std::string &source, size_t max_errors)
{
    return Parser(source).parseRecovering(max_errors);
}

} // namespace anc::dsl
