/**
 * @file
 * Test oracle for transformed nests: loop bounds evaluated in exact
 * rationals, a walk and a body run built on them, and the check that
 * holds the compiled bounds (ir::LoopBounds) to them.
 */

#ifndef ANC_TESTS_XFORM_BOUNDS_ORACLE_H
#define ANC_TESTS_XFORM_BOUNDS_ORACLE_H

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "../ir/interp_oracle.h"
#include "xform/transform.h"

namespace anc::testutil {

/** Concrete lower bound at level k (ceil of max over bounds), in exact
 * rationals: the oracle for ir::LoopBounds::lower. */
inline Int
lowerAt(const xform::TransformedNest &nest, size_t k, const IntVec &u,
        const IntVec &params)
{
    bool first = true;
    Int best = 0;
    for (const ir::AffineExpr &e : nest.loops()[k].lower) {
        Int v = e.evaluate(u, params).ceil();
        if (first || v > best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("transformed loop without lower bounds");
    return best;
}

/** Concrete upper bound at level k (floor of min over bounds), in exact
 * rationals: the oracle for ir::LoopBounds::upper. */
inline Int
upperAt(const xform::TransformedNest &nest, size_t k, const IntVec &u,
        const IntVec &params)
{
    bool first = true;
    Int best = 0;
    for (const ir::AffineExpr &e : nest.loops()[k].upper) {
        Int v = e.evaluate(u, params).floor();
        if (first || v < best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("transformed loop without upper bounds");
    return best;
}

/** Walk the transformed nest in lexicographic order with rational
 * bounds; returns the number of iterations visited. */
inline uint64_t
forEachIteration(const xform::TransformedNest &nest, const IntVec &params,
                 const std::function<void(const IntVec &)> &fn)
{
    size_t n = nest.depth();
    IntVec u(n, 0);
    IntVec y;
    std::function<uint64_t(size_t)> walk = [&](size_t k) -> uint64_t {
        if (k == n) {
            fn(u);
            return 1;
        }
        Int lo = lowerAt(nest, k, u, params);
        Int hi = upperAt(nest, k, u, params);
        if (lo > hi)
            return 0;
        Int s = nest.lattice().stride(k);
        uint64_t count = 0;
        for (Int v = nest.startAt(k, lo, y); v <= hi; v += s) {
            u[k] = v;
            y.push_back(nest.lattice().solveY(k, v, y));
            count += walk(k + 1);
            y.pop_back();
        }
        u[k] = 0;
        return count;
    };
    return walk(0);
}

/** Run the transformed body over the whole space, in rationals. */
inline uint64_t
run(const xform::TransformedNest &nest, const ir::Bindings &binds,
    ir::ArrayStorage &store, const ir::TraceFn &trace = nullptr)
{
    return forEachIteration(nest, binds.paramValues, [&](const IntVec &u) {
        for (const ir::Statement &s : nest.body())
            execStatement(s, u, binds, store, trace);
    });
}

/**
 * Walk the nest with the exact-rational lowerAt/upperAt and require
 * ir::LoopBounds to give the same bounds at every loop entry.
 * At most `cap` entries are checked. When the walk is not capped, the
 * visited point count must also equal forEachIteration's, which walks
 * with the compiled bounds. A subtree whose rational bound overflows is
 * skipped: only agreement on representable bounds is required. Returns
 * the number of entries checked.
 */
inline uint64_t
checkBoundsAgree(const xform::TransformedNest &nest, const IntVec &params,
                 const std::string &what, uint64_t cap = 1 << 14)
{
    SCOPED_TRACE(what);
    ir::LoopBounds fast(nest.loops(), params);
    size_t n = nest.depth();
    IntVec u(n, 0);
    IntVec y;
    uint64_t entries = 0, points = 0;
    bool partial = false;
    std::function<void(size_t)> walk = [&](size_t k) {
        if (entries >= cap) {
            partial = true;
            return;
        }
        ++entries;
        Int lo, hi;
        try {
            lo = lowerAt(nest, k, u, params);
            hi = upperAt(nest, k, u, params);
        } catch (const OverflowError &) {
            partial = true;
            return;
        }
        ASSERT_EQ(fast.lower(k, u), lo) << "level " << k;
        ASSERT_EQ(fast.upper(k, u), hi) << "level " << k;
        if (lo > hi)
            return;
        Int s = nest.lattice().stride(k);
        Int start = nest.startAt(k, lo, y);
        if (k + 1 == n) {
            if (start <= hi)
                points += uint64_t((hi - start) / s) + 1;
            return;
        }
        for (Int v = start; v <= hi; v += s) {
            u[k] = v;
            y.push_back(nest.lattice().solveY(k, v, y));
            walk(k + 1);
            y.pop_back();
        }
        u[k] = 0;
    };
    if (n > 0)
        walk(0);
    if (!partial) {
        EXPECT_EQ(nest.forEachIteration(params, [](const IntVec &) {}),
                  points);
    }
    return entries;
}

} // namespace anc::testutil

#endif // ANC_TESTS_XFORM_BOUNDS_ORACLE_H
