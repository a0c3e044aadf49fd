/**
 * @file
 * Heap allocations of a symmetry-aggregated simulation. The walk takes
 * its scratch buffers (loop point, ticks, hoist keys, numerators, the
 * middle-run pieces) from a workspace reused across slices on one host
 * thread, so an aggregated run allocates per run and per result, not
 * per class. This binary replaces the global operator new to count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/compiler.h"
#include "ir/gallery.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// The nothrow form too (std::stable_sort's buffer takes it), so that
// every new pairs with the free below, also where a sanitizer supplies
// its own allocator.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace anc::numa {
namespace {

/** Allocations made by one simulation of c at P processors. */
uint64_t
allocationsOf(const core::Compilation &c, Int procs, SimStats *out)
{
    SimOptions opts;
    opts.processors = procs;
    opts.hostThreads = 1;
    opts.symmetry = SymmetryMode::Force;
    ir::Bindings binds{{400}, {}};
    uint64_t before = g_allocations.load();
    *out = core::simulate(c, opts, binds);
    return g_allocations.load() - before;
}

TEST(SimAllocations, AggregatedGemmAllocatesPerRunNotPerClass)
{
    // The normalized GEMM at N = 400 and P = 4096: 401 symmetry
    // classes. With scratch buffers allocated per slice the run made
    // 4505 allocations, about 11 per class; it must make at most a
    // third of that, counting the workspace's first fill.
    constexpr uint64_t kPerSliceScratch = 4505;
    core::Compilation c = core::compile(ir::gallery::gemm());
    SimStats s;
    uint64_t first = allocationsOf(c, 4096, &s);
    ASSERT_TRUE(s.aggregated);
    EXPECT_EQ(s.classes.size(), 401u);
    EXPECT_LE(first, kPerSliceScratch / 3);
    // A second run reuses the workspace: fewer allocations still.
    uint64_t again = allocationsOf(c, 4096, &s);
    EXPECT_LE(again, first);
}

} // namespace
} // namespace anc::numa
