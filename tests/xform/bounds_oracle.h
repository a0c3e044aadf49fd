/**
 * @file
 * Test helper: compiled loop bounds held to the rational oracle.
 */

#ifndef ANC_TESTS_XFORM_BOUNDS_ORACLE_H
#define ANC_TESTS_XFORM_BOUNDS_ORACLE_H

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "xform/transform.h"

namespace anc::testutil {

/**
 * Walk the nest with the exact-rational TransformedNest::lowerAt/upperAt
 * and require LoopBounds to give the same bounds at every loop entry.
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
    xform::LoopBounds fast(nest, params);
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
            lo = nest.lowerAt(k, u, params);
            hi = nest.upperAt(k, u, params);
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
