/**
 * @file
 * Pretty printer rendering IR as pseudo-code in the paper's style. The
 * append* functions grow one string and are shared by the DSL printer,
 * the transformed-nest printer and the C emitter; print* wrap them.
 */

#ifndef ANC_IR_PRINTER_H
#define ANC_IR_PRINTER_H

#include <string>

#include "ir/loop_nest.h"

namespace anc::ir {

/** Append one statement like "A[i, j + k] = 0.5 * B[i]" (no newline).
 * A literal renders as the shortest fixed-notation decimal that reads
 * back to the same double. */
void appendStatement(std::string &out, const Statement &s,
                     const Program &prog, const NameTable &names);

/** Append one bound as is, several as comb(b1, b2, ...); with `round`,
 * a bound with a non-integral coefficient renders as round(b). */
void appendBoundList(std::string &out, const std::vector<AffineExpr> &bounds,
                     const char *comb, const NameTable &names,
                     const char *round = nullptr);

/** Append an "array NAME(extent, ...)" line with the distribution in
 * the DSL's spelling (" distribute wrapped(1)", nothing if replicated)
 * or printProgram's (" wrapped(dim 1)", " replicated"). */
void appendArrayDecl(std::string &out, const ArrayDecl &a,
                     const NameTable &names, bool dsl);

/** Append the nest as printNest renders it. */
void appendNest(std::string &out, const LoopNest &nest, const Program &prog,
                const NameTable &names);

/**
 * Render the whole nest, e.g.
 *   for i = 0, N1-1
 *     for j = i, i+b-1
 *       B[i, j-i] = B[i, j-i] + A[i, j+k]
 * Multiple bounds render as max(...)/min(...).
 */
std::string printNest(const LoopNest &nest, const Program &prog);

/** Render declarations plus the nest. */
std::string printProgram(const Program &prog);

} // namespace anc::ir

#endif // ANC_IR_PRINTER_H
