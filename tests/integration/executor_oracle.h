/**
 * @file
 * Test helper: the integer executor held to the exact-rational oracle.
 *
 * One run of a program (or a transformed nest) is observed as its
 * iteration count, its access trace (every TraceFn event, in order),
 * the fletcher64 footprint of every array, and the error it ended with.
 * The executor (ir::run, TransformedNest::run) and the rational oracle
 * (tests/ir/interp_oracle.h, tests/xform/bounds_oracle.h) must produce
 * the same observation on the same seeded storage. The one permitted
 * difference: where the oracle overflows a rational intermediate, the
 * executor's 128-bit arithmetic may still compute the value.
 */

#ifndef ANC_TESTS_INTEGRATION_EXECUTOR_ORACLE_H
#define ANC_TESTS_INTEGRATION_EXECUTOR_ORACLE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../xform/bounds_oracle.h"
#include "numa/recovery.h"

namespace anc::testutil {

/** Everything one execution showed. */
struct Observation
{
    uint64_t iterations = 0;
    std::vector<ir::AccessEvent> trace;
    std::vector<uint64_t> footprints;
    std::string error; //!< "" or the exception class
    std::string message;
};

/** Run `exec(binds, store, trace)` on freshly seeded storage and record
 * what it did. Programs whose arrays cannot be allocated are reported
 * with error "storage". */
template <typename Exec>
Observation
observe(const ir::Program &prog, const ir::Bindings &binds, Exec &&exec)
{
    Observation o;
    try {
        ir::ArrayStorage store(prog, binds.paramValues);
        store.fillDeterministic(7);
        try {
            o.iterations =
                exec(binds, store, [&](const ir::AccessEvent &e) {
                    o.trace.push_back(e);
                });
        } catch (const UserError &e) {
            o.error = "UserError";
            o.message = e.what();
        } catch (const OverflowError &e) {
            o.error = "OverflowError";
            o.message = e.what();
        } catch (const InternalError &e) {
            o.error = "InternalError";
            o.message = e.what();
        } catch (const Error &e) {
            o.error = "Error";
            o.message = e.what();
        }
        for (size_t a = 0; a < store.numArrays(); ++a)
            o.footprints.push_back(numa::fletcher64(store.data(a).data(),
                                                    store.data(a).size()));
    } catch (const Error &) {
        o.error = "storage";
    }
    return o;
}

/**
 * Require fast (the executor) to match slow (the oracle). Returns true
 * when the permitted difference occurred: the oracle overflowed and the
 * executor finished. Error messages must match for everything but
 * overflow: a UserError or InternalError text can reach a validation
 * report, the explain record or the journal.
 */
inline bool
expectSameObservation(const Observation &fast, const Observation &slow,
                      const std::string &what)
{
    SCOPED_TRACE(what);
    bool overflow_rescued =
        slow.error == "OverflowError" && fast.error.empty();
    if (!overflow_rescued) {
        EXPECT_EQ(fast.error, slow.error);
        if (fast.error != "OverflowError") {
            EXPECT_EQ(fast.message, slow.message);
        }
        if (fast.error.empty()) {
            EXPECT_EQ(fast.iterations, slow.iterations);
        }
        EXPECT_EQ(fast.footprints, slow.footprints);
    }
    // The oracle's trace is a prefix of the executor's when the oracle
    // stopped early, and equal otherwise.
    size_t n = slow.trace.size();
    if (overflow_rescued) {
        EXPECT_GE(fast.trace.size(), n);
    } else {
        EXPECT_EQ(fast.trace.size(), n);
    }
    for (size_t i = 0; i < std::min(n, fast.trace.size()); ++i) {
        const ir::AccessEvent &a = fast.trace[i], &b = slow.trace[i];
        if (a.arrayId != b.arrayId || a.isWrite != b.isWrite ||
            a.subscript != b.subscript) {
            ADD_FAILURE() << "trace differs at event " << i;
            break;
        }
    }
    return overflow_rescued;
}

/** Bindings used for a program: every parameter set to v, every scalar
 * to a value that is not 1. */
inline ir::Bindings
bindingFor(const ir::Program &prog, Int v)
{
    return {IntVec(prog.params.size(), v),
            std::vector<double>(prog.scalars.size(), 1.5)};
}

/** Hold ir::run to the oracle's run. Returns true on a rescued
 * overflow. */
inline bool
checkSourceRun(const ir::Program &prog, const ir::Bindings &binds,
               const std::string &what)
{
    Observation fast =
        observe(prog, binds, [&](const auto &b, auto &s, const auto &t) {
            return ir::run(prog, b, s, t);
        });
    Observation slow =
        observe(prog, binds, [&](const auto &b, auto &s, const auto &t) {
            return testutil::run(prog, b, s, t);
        });
    return expectSameObservation(fast, slow, what + " (source)");
}

/** Hold TransformedNest::run to the oracle's run. Returns true on a
 * rescued overflow. */
inline bool
checkNestRun(const ir::Program &prog, const xform::TransformedNest &nest,
             const ir::Bindings &binds, const std::string &what)
{
    Observation fast =
        observe(prog, binds, [&](const auto &b, auto &s, const auto &t) {
            return nest.run(b, s, t);
        });
    Observation slow =
        observe(prog, binds, [&](const auto &b, auto &s, const auto &t) {
            return testutil::run(nest, b, s, t);
        });
    return expectSameObservation(fast, slow, what + " (transformed)");
}

} // namespace anc::testutil

#endif // ANC_TESTS_INTEGRATION_EXECUTOR_ORACLE_H
