/**
 * @file
 * Golden test locking the summarize() table format.
 *
 * The aligned columns (including the PR 3 retry / refetch / reassigned
 * fields) are part of the tool's user interface: scripts and the
 * tutorial parse and quote them. Any intentional format change must
 * update the golden strings here in the same commit.
 */

#include <gtest/gtest.h>

#include "numa/stats.h"

namespace anc::numa {
namespace {

SimStats
syntheticRun()
{
    SimStats s;
    s.processors = 3;
    ProcStats a;
    a.proc = 0;
    a.iterations = 1200;
    a.localAccesses = 4800;
    a.remoteAccesses = 96;
    a.blockTransfers = 12;
    a.transferRetries = 2;
    a.remoteRetries = 1;
    a.transferRefetches = 1;
    a.reassignedSlices = 2;
    a.syncs = 3;
    a.time = 1536.25;
    ProcStats b;
    b.proc = 1;
    b.iterations = 600;
    b.localAccesses = 2400;
    b.remoteAccesses = 48;
    b.blockTransfers = 6;
    b.syncs = 1;
    b.killed = 1;
    b.time = 768.5;
    ProcStats c;
    c.proc = 2;
    c.iterations = 1800;
    c.localAccesses = 7200;
    c.remoteAccesses = 0;
    c.blockTransfers = 18;
    c.restarts = 1;
    c.backoffUnits = 4;
    c.syncs = 2;
    c.time = 2048.0;
    s.perProc = {a, b, c};
    return s;
}

TEST(StatsFormat, GoldenSummaryWithFaults)
{
    const char *expected =
        "P = 3, parallel time 2048 us, imbalance 1.41152\n"
        " proc  iterations      local     remote  blocks  retries"
        "  refetch  reasgn  syncs     time(us)\n"
        "    0        1200       4800         96      12        3"
        "        1       2      3      1536.25\n"
        "    1         600       2400         48       6        0"
        "        0       0      1        768.5  (killed)\n"
        "    2        1800       7200          0      18        0"
        "        0       0      2         2048  (restarted)\n"
        "faults: 2 transfer retries, 1 refetches, 1 remote retries, "
        "0 abandoned, 2 reassigned slices, 1 restarts, 1 dead, "
        "4 backoff units\n";
    EXPECT_EQ(summarize(syntheticRun()), expected);
}

TEST(StatsFormat, GoldenSummaryFaultFree)
{
    // A fault-free run: retry columns all zero, no faults line.
    SimStats s;
    s.processors = 16;
    ProcStats p;
    p.proc = 5;
    p.iterations = 64;
    p.localAccesses = 256;
    p.syncs = 1;
    p.time = 100.5;
    s.perProc = {p};
    const char *expected =
        "P = 16, parallel time 100.5 us, imbalance 1\n"
        " proc  iterations      local     remote  blocks  retries"
        "  refetch  reasgn  syncs     time(us)\n"
        "    5          64        256          0       0        0"
        "        0       0      1        100.5\n";
    EXPECT_EQ(summarize(s), expected);
}

TEST(StatsFormat, RetriesColumnSumsBothRetryKinds)
{
    // The retries column folds transfer and remote retries together;
    // lock that relationship, not just the rendered digits.
    SimStats s = syntheticRun();
    const ProcStats &a = s.perProc[0];
    std::string table = summarize(s);
    std::string expect_cell =
        std::to_string(a.transferRetries + a.remoteRetries);
    EXPECT_NE(table.find(expect_cell), std::string::npos);
}

} // namespace
} // namespace anc::numa
