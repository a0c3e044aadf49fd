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

// Out of line, so that the compiler pairs a delete it inlines with the
// operator new it sees, not with the malloc inside.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace anc::numa {
namespace {

/** Allocations made by one symmetry-aggregated simulation of c at
 * P = 4096, freeing its result included; `classes` receives the
 * result's class count. */
uint64_t
allocationsOf(const core::Compilation &c, const ir::Bindings &binds,
              size_t *classes)
{
    SimOptions opts;
    opts.processors = 4096;
    opts.hostThreads = 1;
    opts.symmetry = SymmetryMode::Force;
    uint64_t before = g_allocations.load();
    {
        SimStats s = core::simulate(c, opts, binds);
        *classes = s.aggregated ? s.classes.size() : 0;
    }
    return g_allocations.load() - before;
}

/** Expect c to allocate at most `bound` times at N = 400 (401 classes),
 * fewer once the workspace is filled, and no more at N = 800 (801
 * classes) than at N = 400. */
void
expectPerRun(const core::Compilation &c, IntVec params,
             std::vector<double> scalars, uint64_t bound)
{
    size_t classes = 0;
    params[0] = 400;
    const ir::Bindings small{params, scalars};
    const uint64_t first = allocationsOf(c, small, &classes);
    EXPECT_EQ(classes, 401u);
    EXPECT_LE(first, bound);
    // A second run reuses the workspace: fewer allocations still.
    const uint64_t again = allocationsOf(c, small, &classes);
    EXPECT_LE(again, first);
    // Twice the classes, once the workspace has grown to them.
    params[0] = 800;
    const ir::Bindings large{params, scalars};
    allocationsOf(c, large, &classes);
    EXPECT_LE(allocationsOf(c, large, &classes), again);
    EXPECT_EQ(classes, 801u);
}

TEST(SimAllocations, AggregatedGemmAllocatesPerRunNotPerClass)
{
    // The normalized GEMM at P = 4096, counted with its result freed:
    // 4505 allocations at N = 400 while the walk's scratch buffers were
    // allocated per slice, 528 while every class owned a members
    // vector, 105 since.
    expectPerRun(core::compile(ir::gallery::gemm()), {400}, {}, 120);
}

TEST(SimAllocations, AggregatedPlainSyr2kAllocatesPerRunNotPerClass)
{
    // The untransformed banded SYR2K (b = 100) at P = 4096: 1039
    // allocations at N = 400 while every class owned a members vector
    // and a heap block of remote counts per array, 196 since.
    core::CompileOptions identity;
    identity.identityTransform = true;
    expectPerRun(core::compile(ir::gallery::syr2kBanded(), identity),
                 {400, 100}, {1.0, 1.0}, 220);
}

} // namespace
} // namespace anc::numa
