/**
 * @file
 * Tokenizer for the FORTRAN-D-flavoured loop-nest language.
 *
 * The language covers the paper's input programs: parameter and scalar
 * declarations, array declarations with data-distribution annotations
 * (Section 2.1), and one perfect loop nest with affine max/min bounds
 * and affine array subscripts. '#' starts a comment to end of line.
 */

#ifndef ANC_DSL_LEXER_H
#define ANC_DSL_LEXER_H

#include <string>
#include <string_view>
#include <vector>

#include "ratmath/int_util.h"

namespace anc::dsl {

enum class Tok
{
    Ident,
    Integer,
    Float,
    // keywords
    KwParam,
    KwScalar,
    KwArray,
    KwDistribute,
    KwFor,
    KwMax,
    KwMin,
    KwReplicated,
    KwWrapped,
    KwBlocked,
    KwBlock2d,
    // punctuation
    Assign,    // =
    Plus,      // +
    Minus,     // -
    Star,      // *
    Slash,     // /
    LParen,    // (
    RParen,    // )
    LBracket,  // [
    RBracket,  // ]
    Comma,     // ,
    End,       // end of input
};

/**
 * One token. `text` is a view into the source passed to tokenize(), so
 * tokens are valid only while that source lives; the lexer copies
 * nothing.
 */
struct Token
{
    Tok kind;
    std::string_view text;
    Int intValue = 0;     //!< for Tok::Integer
    double floatValue = 0; //!< for Tok::Float
    int line = 0;
    int col = 0;
};

/** Tokenize the whole source; throws UserError on bad characters and
 * on number literals a 64-bit integer or a double cannot hold. */
std::vector<Token> tokenize(std::string_view source);

/** Printable token-kind name for error messages. */
std::string tokName(Tok t);

} // namespace anc::dsl

#endif // ANC_DSL_LEXER_H
