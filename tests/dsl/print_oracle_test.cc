/**
 * @file
 * The append-only renderer held to the ostringstream oracle
 * (print_oracle.h): byte-identical DSL source, nests and canonical
 * texts over every input whose plan key is pinned (the gallery, the
 * samples, the examples, the corpus seeds and the clustered request
 * streams). Literal rendering is the one intended difference and has
 * its own cases in roundtrip_test.cc.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "../svc/golden_inputs.h"
#include "dsl/printer.h"
#include "ir/printer.h"
#include "print_oracle.h"

namespace anc {
namespace {

/** Either a rendering or the error it raised, for comparison. */
template <typename Fn>
std::string
outcome(Fn &&render)
{
    try {
        return render();
    } catch (const Error &e) {
        return std::string("error: ") + e.what();
    }
}

void
expectSameRendering(const ir::Program &p, const std::string &name)
{
    EXPECT_EQ(outcome([&] { return dsl::printDsl(p); }),
              outcome([&] { return testutil::oracleDsl(p); }))
        << name;
    EXPECT_EQ(outcome([&] { return ir::printNest(p.nest, p); }),
              outcome([&] { return testutil::oracleNest(p.nest, p); }))
        << name;
    svc::CanonicalForm c;
    try {
        c = svc::canonicalize(p);
    } catch (const Error &) {
        return;
    }
    EXPECT_EQ(c.text, testutil::oracleDsl(c.program)) << name;
}

std::optional<ir::Program>
programOf(const golden::Input &in)
{
    if (in.program)
        return in.program;
    try {
        return dsl::parseProgramRecovering(in.source).program;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

TEST(PrintOracle, FixedInputsRenderAsTheOracle)
{
    size_t checked = 0;
    for (const golden::Input &in : golden::fixedInputs()) {
        if (std::optional<ir::Program> p = programOf(in)) {
            expectSameRendering(*p, in.name);
            ++checked;
        }
    }
    EXPECT_GT(checked, 30u);
}

TEST(PrintOracle, StreamRequestsRenderAsTheOracle)
{
    std::unordered_set<std::string> seen;
    for (const golden::Stream &s : golden::streams()) {
        for (const svc::BatchRequest &q : svc::clusteredWorkload(s.options)) {
            if (!seen.insert(q.source).second)
                continue;
            std::optional<ir::Program> p =
                programOf({q.id, std::nullopt, q.source});
            ASSERT_TRUE(p) << s.name << " " << q.id;
            // Except for the rescaled bounds, a stream's sources are
            // printDsl renderings themselves.
            if (q.id.find("-rescaled") == std::string::npos)
                EXPECT_EQ(testutil::oracleDsl(*p), q.source)
                    << s.name << " " << q.id;
            expectSameRendering(*p, s.name + " " + q.id);
        }
    }
}

} // namespace
} // namespace anc
