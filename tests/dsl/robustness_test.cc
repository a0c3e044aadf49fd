/**
 * @file
 * Parser robustness: malformed input must always surface as UserError
 * with a line number, never crash or loop. Includes a truncation fuzz
 * (every prefix of a valid program) and a token-deletion fuzz.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "dsl/parser.h"
#include "ir/printer.h"

#ifndef ANC_SOURCE_DIR
#define ANC_SOURCE_DIR "."
#endif

namespace anc::dsl {
namespace {

const char *kValid = R"(
param N, b
scalar alpha
array A(N, 2*b-1) distribute wrapped(1)
array B(N, N) distribute blocked(0)
for i = 0, N-1
  for j = max(i-b+1, 0), min(i+b-1, N-1)
    A[i, j-i+b-1] = A[i, j-i+b-1] + alpha * B[i, j]
)";

TEST(Robustness, ValidProgramParses)
{
    EXPECT_NO_THROW(parseProgram(kValid));
}

TEST(Robustness, EveryPrefixFailsCleanly)
{
    std::string src = kValid;
    size_t parsed_ok = 0;
    for (size_t len = 0; len < src.size(); ++len) {
        std::string prefix = src.substr(0, len);
        try {
            parseProgram(prefix);
            ++parsed_ok; // only possible very near the end
        } catch (const UserError &) {
            // expected: clean rejection
        }
        // Any other exception type fails the test by escaping.
    }
    // A handful of prefixes are themselves valid programs (truncating
    // the final expression at an operator boundary); the invariant is
    // that nothing crashes or escapes as a non-UserError.
    EXPECT_LT(parsed_ok, 10u);
}

TEST(Robustness, TokenDeletionFailsCleanly)
{
    // Remove each whitespace-delimited token in turn; the parser must
    // reject (or, rarely, accept a still-valid program) without any
    // internal error.
    std::string src = kValid;
    std::vector<std::pair<size_t, size_t>> tokens;
    size_t i = 0;
    while (i < src.size()) {
        while (i < src.size() && std::isspace((unsigned char)src[i]))
            ++i;
        size_t start = i;
        while (i < src.size() && !std::isspace((unsigned char)src[i]))
            ++i;
        if (i > start)
            tokens.push_back({start, i - start});
    }
    ASSERT_GT(tokens.size(), 20u);
    for (auto [pos, len] : tokens) {
        std::string mutated = src;
        mutated.erase(pos, len);
        try {
            parseProgram(mutated);
        } catch (const UserError &) {
        }
    }
}

TEST(Robustness, ErrorsCarryLineNumbers)
{
    try {
        parseProgram("param N\narray A(N)\nfor i = 0, N-1\n  A[q] = 1.0");
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
            << e.what();
    }
}

TEST(Robustness, DeepParenthesesNest)
{
    std::string expr = "i";
    for (int d = 0; d < 40; ++d)
        expr = "(" + expr + ")";
    std::string src = "array A(64)\nfor i = 0, 9\n  A[" + expr +
                      "] = 1.0";
    EXPECT_NO_THROW(parseProgram(src));
}

TEST(Robustness, UnbalancedBracketsRejected)
{
    EXPECT_THROW(parseProgram("array A(4)\nfor i = 0, 3\n A[i = 1.0"),
                 UserError);
    EXPECT_THROW(parseProgram("array A(4\nfor i = 0, 3\n A[i] = 1.0"),
                 UserError);
    EXPECT_THROW(
        parseProgram("array A(4)\nfor i = 0, 3\n A[i] = (1.0"),
        UserError);
}

TEST(Robustness, GarbageAfterProgramRejected)
{
    EXPECT_THROW(
        parseProgram("array A(4)\nfor i = 0, 3\n A[i] = 1.0\n ) )"),
        UserError);
}

TEST(Robustness, HugeIntegerLiteralsDoNotWrap)
{
    // Arithmetic on enormous constants must hit the overflow guard
    // (OverflowError is also an anc::Error; just ensure no wraparound
    // silently succeeds into a bogus program).
    std::string src = "array A(4611686018427387904)\nfor i = 0, 3\n "
                      "A[i] = 1.0";
    EXPECT_NO_THROW(parseProgram(src));
    std::string bad = "array A(4611686018427387904 * 4)\nfor i = 0, 3\n "
                      "A[i] = 1.0";
    EXPECT_THROW(parseProgram(bad), Error);
}

// --- bounded error recovery -----------------------------------------

TEST(Recovery, ValidProgramRecoversIdentically)
{
    ParseResult r = parseProgramRecovering(kValid);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_EQ(r.program->nest.depth(), 2u);
    EXPECT_EQ(r.program->arrays.size(), 2u);
}

TEST(Recovery, OneBadStatementStillYieldsProgram)
{
    // The malformed middle statement is skipped; the two good ones
    // survive, and exactly one diagnostic names its line.
    const char *src = "array A(16)\n"
                      "for i = 0, 15\n"
                      "  A[i] = 1.0\n"
                      "  A[i] = * 2.0\n"
                      "  A[i] = 3.0\n";
    ParseResult r = parseProgramRecovering(src);
    ASSERT_TRUE(r.program.has_value());
    EXPECT_EQ(r.program->nest.body().size(), 2u);
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].line, 4);
}

TEST(Recovery, MultipleErrorsAllReported)
{
    // Three independent mistakes on three lines: one pass finds all
    // three instead of stopping at the first.
    const char *src = "array A(16)\n"
                      "array B(8, ) \n"           // bad extent list
                      "for i = 0, 15\n"
                      "  A[i] = C[i]\n"            // unknown array C
                      "  A[i] = + \n"              // bad expression
                      "  A[i] = 1.0\n";
    ParseResult r = parseProgramRecovering(src);
    ASSERT_EQ(r.diagnostics.size(), 3u);
    EXPECT_EQ(r.diagnostics[0].line, 2);
    EXPECT_EQ(r.diagnostics[1].line, 4);
    EXPECT_EQ(r.diagnostics[2].line, 5);
    EXPECT_NE(r.diagnostics[1].message.find("unknown identifier"),
              std::string::npos);
    ASSERT_TRUE(r.program.has_value());
    EXPECT_EQ(r.program->nest.body().size(), 1u);
}

TEST(Recovery, ErrorCountIsBounded)
{
    // A long stream of bad statements stops at the cap instead of
    // producing an unbounded report.
    std::string src = "array A(16)\nfor i = 0, 15\n  A[i] = 1.0\n";
    for (int k = 0; k < 100; ++k)
        src += "  A[i] = *\n";
    ParseResult r = parseProgramRecovering(src, /*max_errors=*/10);
    EXPECT_EQ(r.diagnostics.size(), 11u); // 10 errors + "giving up"
    EXPECT_NE(r.diagnostics.back().message.find("too many errors"),
              std::string::npos);
}

TEST(Recovery, NothingUsableLeavesNoProgram)
{
    ParseResult r = parseProgramRecovering("for i = 0, ***\n");
    EXPECT_FALSE(r.program.has_value());
    EXPECT_FALSE(r.diagnostics.empty());
    EXPECT_FALSE(r.ok());

    ParseResult empty = parseProgramRecovering("");
    EXPECT_FALSE(empty.program.has_value());
    ASSERT_FALSE(empty.diagnostics.empty());
    EXPECT_NE(empty.diagnostics[0].message.find("no loop nest"),
              std::string::npos);
}

TEST(Recovery, NeverThrowsOnTruncatedSource)
{
    // Same truncation fuzz as EveryPrefixFailsCleanly, but through the
    // recovering entry point, which must not throw at all.
    std::string src = kValid;
    for (size_t len = 0; len < src.size(); ++len)
        EXPECT_NO_THROW(parseProgramRecovering(src.substr(0, len)));
}

// --- recorded diagnostics -------------------------------------------

/** Every input above, each prefix, whitespace-token and character
 * deletion of kValid, and lexer edge cases. */
std::vector<std::string>
diagnosticInputs()
{
    std::string v = kValid;
    std::vector<std::string> out = {
        v,
        "param N\narray A(N)\nfor i = 0, N-1\n  A[q] = 1.0",
        "array A(4)\nfor i = 0, 3\n A[i = 1.0",
        "array A(4\nfor i = 0, 3\n A[i] = 1.0",
        "array A(4)\nfor i = 0, 3\n A[i] = (1.0",
        "array A(4)\nfor i = 0, 3\n A[i] = 1.0\n ) )",
        "array A(4611686018427387904)\nfor i = 0, 3\n A[i] = 1.0",
        "array A(4611686018427387904 * 4)\nfor i = 0, 3\n A[i] = 1.0",
        "array A(99999999999999999999)\nfor i = 0, 3\n A[i] = 1.0",
        "array A(4)\nfor i = 0, 3\n A[i] = 99999999999999999999",
        "array A(4)\nfor i = 0, 3\n A[i] = 2.5 * 0.125 + 3",
        "array A(4)\nfor i = 0, 3\n A[i] = 1. + .5",
        "array A(4)\nfor i = 0, 3\n A[i] = $",
        "array A(4)\n\tfor i = 0, 3 # comment\r\n A[i] = 1",
        "param formax, param_, block2dx, N9\narray A(N9) distribute "
        "block2d(0, 0)\nfor i = 0, N9-1\n A[i] = formax",
        "param N\narray A(N, N) distribute block2d(0, 1)\n"
        "for i = max(0, 1), min(N-1, N/2)\n for j = (2*i)/2, N-1\n"
        "  A[i, j] = A[i, j] * (i + j) / 3 - -N",
        "array A(8)\nfor i = 0, 3\n A[i / 0] = 1",
        "array A(8)\nfor i = 0, 3\n A[i * i] = 1",
        "array A(8)\nfor i = 0, 3\n A[i / i] = 1",
        "array A(8)\nfor i = 0, 3\n A[1 / 2 * 2 + i] = 1",
        "array A(8) distribute wrapped(3)\nfor i = 0, 3\n A[i] = 1",
        "array A(8) distribute sideways(0)\nfor i = 0, 3\n A[i] = 1",
        "array A(8)\nfor i = 0, i\n A[i] = 1",
        "array A(8)\narray A(4)\nfor i = 0, 3\n A[i] = 1",
        "array A(8)\nfor i = 0, 3\n B[i] = 1",
        "array A(8)\nfor i = 0, 3\n",
        "for i = 0, ***\n",
        "",
    };
    for (size_t len = 0; len < v.size(); ++len)
        out.push_back(v.substr(0, len));
    for (size_t i = 0; i < v.size(); ++i)
        out.push_back(v.substr(0, i) + v.substr(i + 1));
    for (size_t i = 0; i < v.size();) {
        while (i < v.size() && std::isspace((unsigned char)v[i]))
            ++i;
        size_t start = i;
        while (i < v.size() && !std::isspace((unsigned char)v[i]))
            ++i;
        if (i > start)
            out.push_back(v.substr(0, start) + v.substr(i));
    }
    // Affine arithmetic: integral steps, steps through a non-integral
    // coefficient, and each way a coefficient can overflow.
    for (const char *sub :
         {"(2*i)/2 + i/2*2 + (i+1)/2 - i/2", "i * (1/2) * 2", "i/3 + i/6",
          "-(-9223372036854775807 - 1) + i", "0 / (-9223372036854775807 - 1)",
          "(-9223372036854775807 - 1) / -1", "9223372036854775807 + 1",
          "4611686018427387904 * 2", "i * 4611686018427387904 * 2",
          "(i / 2) * 4611686018427387904 * 4"})
        out.push_back("array A(8)\nfor i = 0, 3\n A[" + std::string(sub) +
                      "] = 1");
    return out;
}

std::string
oneLine(std::string s)
{
    for (size_t p; (p = s.find('\n')) != std::string::npos;)
        s.replace(p, 1, "\\n");
    return s;
}

/** What both entry points make of one input, on one line. */
std::string
outcome(const std::string &src)
{
    std::string out;
    try {
        out = "ok " + oneLine(ir::printProgram(parseProgram(src)));
    } catch (const UserError &e) {
        out = std::string("UserError ") + e.what();
    } catch (const OverflowError &e) {
        out = std::string("OverflowError ") + e.what();
    } catch (const Error &e) {
        out = std::string("Error ") + e.what();
    } catch (const std::exception &e) {
        out = std::string("exception ") + e.what();
    }
    out += " |";
    try {
        ParseResult r = parseProgramRecovering(src);
        for (const ParseDiagnostic &d : r.diagnostics)
            out += " " + std::to_string(d.line) + ": " + d.message + ";";
        out += r.program ? " program" : " none";
    } catch (const std::exception &e) {
        out += std::string(" throws ") + e.what();
    }
    return out;
}

TEST(Robustness, DiagnosticsMatchRecorded)
{
    const std::string file =
        ANC_SOURCE_DIR "/tests/dsl/robustness_diagnostics.txt";
    std::vector<std::string> inputs = diagnosticInputs();
    if (const char *path = std::getenv("ANC_WRITE_GOLDEN")) {
        std::ofstream out(path);
        for (const std::string &src : inputs)
            out << oneLine(outcome(src)) << "\n";
        GTEST_SKIP() << "wrote " << inputs.size() << " lines to " << path;
    }
    std::ifstream in(file);
    ASSERT_TRUE(in) << file;
    std::vector<std::string> want;
    for (std::string l; std::getline(in, l);)
        want.push_back(l);
    ASSERT_EQ(want.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(oneLine(outcome(inputs[i])), want[i])
            << "input " << i << ": " << inputs[i];
}

} // namespace
} // namespace anc::dsl
