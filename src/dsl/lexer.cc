#include "dsl/lexer.h"

#include <charconv>

#include "ratmath/error.h"

namespace anc::dsl {

namespace {

bool isDigit(char c) { return c >= '0' && c <= '9'; }

bool
isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Keyword or identifier: a switch on the length leaves at most three
 * candidates to compare. */
Tok
wordKind(std::string_view w)
{
    switch (w.size()) {
      case 3:
        if (w == "for")
            return Tok::KwFor;
        if (w == "max")
            return Tok::KwMax;
        if (w == "min")
            return Tok::KwMin;
        break;
      case 5:
        if (w == "param")
            return Tok::KwParam;
        if (w == "array")
            return Tok::KwArray;
        break;
      case 6:
        if (w == "scalar")
            return Tok::KwScalar;
        break;
      case 7:
        if (w == "wrapped")
            return Tok::KwWrapped;
        if (w == "blocked")
            return Tok::KwBlocked;
        if (w == "block2d")
            return Tok::KwBlock2d;
        break;
      case 10:
        if (w == "distribute")
            return Tok::KwDistribute;
        if (w == "replicated")
            return Tok::KwReplicated;
        break;
    }
    return Tok::Ident;
}

} // namespace

std::string
tokName(Tok t)
{
    switch (t) {
      case Tok::Ident:
        return "identifier";
      case Tok::Integer:
        return "integer";
      case Tok::Float:
        return "number";
      case Tok::KwParam:
        return "'param'";
      case Tok::KwScalar:
        return "'scalar'";
      case Tok::KwArray:
        return "'array'";
      case Tok::KwDistribute:
        return "'distribute'";
      case Tok::KwFor:
        return "'for'";
      case Tok::KwMax:
        return "'max'";
      case Tok::KwMin:
        return "'min'";
      case Tok::KwReplicated:
        return "'replicated'";
      case Tok::KwWrapped:
        return "'wrapped'";
      case Tok::KwBlocked:
        return "'blocked'";
      case Tok::KwBlock2d:
        return "'block2d'";
      case Tok::Assign:
        return "'='";
      case Tok::Plus:
        return "'+'";
      case Tok::Minus:
        return "'-'";
      case Tok::Star:
        return "'*'";
      case Tok::Slash:
        return "'/'";
      case Tok::LParen:
        return "'('";
      case Tok::RParen:
        return "')'";
      case Tok::LBracket:
        return "'['";
      case Tok::RBracket:
        return "']'";
      case Tok::Comma:
        return "','";
      case Tok::End:
        return "end of input";
    }
    return "?";
}

std::vector<Token>
tokenize(std::string_view source)
{
    std::vector<Token> out;
    int line = 1, col = 1;
    size_t i = 0;
    const size_t n = source.size();

    auto push = [&](Tok kind, size_t start) {
        Token t;
        t.kind = kind;
        t.text = source.substr(start, i - start);
        t.line = line;
        t.col = col;
        col += int(i - start);
        out.push_back(t);
        return &out.back();
    };
    auto outOfRange = [&](const char *what, size_t start) {
        throw UserError("line " + std::to_string(line) + ": " + what +
                        " '" + std::string(source.substr(start, i - start)) +
                        "' is out of range");
    };

    while (i < n) {
        char c = source[i];
        if (c == '\n') {
            ++line;
            col = 1;
            ++i;
            continue;
        }
        if (isSpace(c)) {
            ++col;
            ++i;
            continue;
        }
        if (c == '#') {
            while (i < n && source[i] != '\n')
                ++i;
            continue;
        }
        const size_t start = i;
        if (isAlpha(c) || c == '_') {
            while (i < n && (isAlpha(source[i]) || isDigit(source[i]) ||
                             source[i] == '_'))
                ++i;
            push(wordKind(source.substr(start, i - start)), start);
            continue;
        }
        if (isDigit(c)) {
            while (i < n && isDigit(source[i]))
                ++i;
            const char *first = source.data() + start;
            if (i + 1 < n && source[i] == '.' && isDigit(source[i + 1])) {
                ++i;
                while (i < n && isDigit(source[i]))
                    ++i;
                double v = 0;
                if (std::from_chars(first, source.data() + i, v).ec !=
                    std::errc())
                    outOfRange("number literal", start);
                push(Tok::Float, start)->floatValue = v;
            } else {
                Int v = 0;
                if (std::from_chars(first, source.data() + i, v).ec !=
                    std::errc())
                    outOfRange("integer literal", start);
                push(Tok::Integer, start)->intValue = v;
            }
            continue;
        }
        Tok kind;
        switch (c) {
          case '=':
            kind = Tok::Assign;
            break;
          case '+':
            kind = Tok::Plus;
            break;
          case '-':
            kind = Tok::Minus;
            break;
          case '*':
            kind = Tok::Star;
            break;
          case '/':
            kind = Tok::Slash;
            break;
          case '(':
            kind = Tok::LParen;
            break;
          case ')':
            kind = Tok::RParen;
            break;
          case '[':
            kind = Tok::LBracket;
            break;
          case ']':
            kind = Tok::RBracket;
            break;
          case ',':
            kind = Tok::Comma;
            break;
          default:
            throw UserError("line " + std::to_string(line) +
                            ": unexpected character '" +
                            std::string(1, c) + "'");
        }
        ++i;
        push(kind, start);
    }
    push(Tok::End, i);
    return out;
}

} // namespace anc::dsl
