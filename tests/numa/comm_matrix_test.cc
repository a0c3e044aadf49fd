/**
 * @file
 * Communication-matrix tests (see obs/comm_matrix.h, numa/comm.h).
 *
 * Two contracts. Conservation: the matrix is derived from the same walk
 * as the scalar counters, so row sums must equal ProcStats'
 * remote/block totals exactly -- any divergence means the matrix became
 * a second source of truth. Aggregation exactness: a symmetry-
 * aggregated run must export the byte-identical matrix a direct run
 * does (the expansion path), and the class-pair fold (taken above the
 * materialization byte budget) must conserve every grand total while
 * staying small enough for P = 2^20.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/compiler.h"
#include "ir/gallery.h"
#include "numa/comm.h"
#include "numa/simulator.h"

namespace anc::numa {
namespace {

using core::Compilation;
using core::CompileOptions;

struct Workload
{
    std::string name;
    Compilation comp;
    ir::Bindings binds;
};

/** Kernels covering every partition scheme the planner emits, plus an
 * identity-transform variant (plain outer loop, heavy remote traffic). */
std::vector<Workload>
gallery()
{
    CompileOptions identity;
    identity.identityTransform = true;
    std::vector<Workload> w;
    w.push_back({"gemm", core::compile(ir::gallery::gemm()), {{13}, {}}});
    w.push_back({"gemm_plain", core::compile(ir::gallery::gemm(), identity),
                 {{13}, {}}});
    w.push_back({"syr2k", core::compile(ir::gallery::syr2kBanded()),
                 {{17, 5}, {1.5, 0.5}}});
    w.push_back({"figure1", core::compile(ir::gallery::figure1()),
                 {{9, 7, 4}, {}}});
    w.push_back({"jacobi2d", core::compile(ir::gallery::jacobi2d()),
                 {{12}, {}}});
    return w;
}

SimStats
runWith(const Workload &w, Int p, SymmetryMode mode, Int host_threads = 1,
        bool fast_inner = true, const char *fault_spec = nullptr)
{
    SimOptions opts;
    opts.processors = p;
    opts.hostThreads = host_threads;
    opts.fastInner = fast_inner;
    opts.symmetry = mode;
    opts.commMatrix = true;
    if (fault_spec)
        opts.faults = parseFaultSpec(fault_spec);
    return core::simulate(w.comp, opts, w.binds);
}

/** Direct-form row sums must equal the origin's scalar counters. */
void
expectConserved(const SimStats &stats, const obs::CommMatrix &m,
                const std::string &what)
{
    ASSERT_FALSE(m.aggregated) << what;
    ASSERT_FALSE(stats.aggregated) << what;
    for (const obs::CommMatrix::Row &row : m.rows) {
        uint64_t remote = 0, transfers = 0, blockElems = 0;
        int64_t prevOwner = -1;
        for (const obs::CommEdge &e : row.edges) {
            EXPECT_GT(e.owner, prevOwner)
                << what << ": edges not owner-sorted";
            prevOwner = e.owner;
            EXPECT_TRUE(e.any()) << what << ": empty edge stored";
            remote += e.remoteElements;
            transfers += e.blockTransfers;
            blockElems += e.blockElements;
        }
        const ProcStats *ps = nullptr;
        for (const ProcStats &p : stats.perProc)
            if (p.proc == row.origin)
                ps = &p;
        ASSERT_NE(ps, nullptr) << what << " origin " << row.origin;
        SCOPED_TRACE(what + " origin " + std::to_string(row.origin));
        EXPECT_EQ(remote, ps->remoteAccesses);
        EXPECT_EQ(transfers, ps->blockTransfers);
        EXPECT_EQ(blockElems, ps->blockElements);
    }
    // Processors without a row charged no remote traffic at all.
    for (const ProcStats &p : stats.perProc) {
        bool hasRow = false;
        for (const obs::CommMatrix::Row &row : m.rows)
            hasRow |= row.origin == p.proc;
        if (!hasRow) {
            EXPECT_EQ(p.remoteAccesses, 0u) << what << " proc " << p.proc;
            EXPECT_EQ(p.blockTransfers, 0u) << what << " proc " << p.proc;
        }
    }
    EXPECT_EQ(m.totalRemoteElements(), stats.totalRemoteAccesses()) << what;
    EXPECT_EQ(m.totalBlockTransfers(), stats.totalBlockTransfers()) << what;
    EXPECT_EQ(m.totalBlockElements(), stats.totalBlockElements()) << what;
}

TEST(CommMatrixTest, RowSumsEqualProcStatsAcrossGallery)
{
    for (const Workload &w : gallery())
        for (Int p : {1, 2, 3, 4, 7, 16}) {
            SimStats s = runWith(w, p, SymmetryMode::Off);
            expectConserved(s, buildCommMatrix(s),
                            w.name + " P=" + std::to_string(p));
        }
}

TEST(CommMatrixTest, ConservationHoldsUnderFaultsAndThreads)
{
    const char *specs[] = {"drop-transfer/8", "remote-fail@3",
                           "drop-transfer/8,remote-fail@3"};
    for (const Workload &w : gallery())
        for (const char *spec : specs) {
            SimStats s = runWith(w, 7, SymmetryMode::Off, 3, true, spec);
            expectConserved(s, buildCommMatrix(s),
                            w.name + " faults=" + spec);
        }
}

TEST(CommMatrixTest, MatrixIsIdenticalAcrossExecutionStrategies)
{
    // hostThreads x fastInner/naive x faults must not change a single
    // byte of the exported matrix: collection is a pure function of
    // the per-processor walk, not of how the walk was scheduled.
    for (const Workload &w : gallery()) {
        std::string base =
            buildCommMatrix(runWith(w, 13, SymmetryMode::Off, 1, true))
                .renderJson();
        for (Int threads : {2, 5})
            for (bool fast : {true, false}) {
                std::string got = buildCommMatrix(runWith(w, 13,
                                                          SymmetryMode::Off,
                                                          threads, fast))
                                      .renderJson();
                EXPECT_EQ(base, got)
                    << w.name << " threads=" << threads << " fast=" << fast;
            }
        std::string faulted =
            buildCommMatrix(runWith(w, 13, SymmetryMode::Off, 1, true,
                                    "drop-transfer/8,remote-fail@3"))
                .renderJson();
        EXPECT_EQ(base, faulted) << w.name << " under faults";
    }
}

TEST(CommMatrixTest, AggregatedExpansionIsByteIdenticalToDirect)
{
    for (const Workload &w : gallery())
        for (Int p : {1, 2, 4, 5, 8, 13, 16, 32, 64}) {
            std::string direct =
                buildCommMatrix(runWith(w, p, SymmetryMode::Off))
                    .renderJson();
            std::string aggregated =
                buildCommMatrix(runWith(w, p, SymmetryMode::Force))
                    .renderJson();
            EXPECT_EQ(direct, aggregated)
                << w.name << " P=" << std::to_string(p);
        }
}

TEST(CommMatrixTest, AggregatedExpansionIdenticalUnderFaults)
{
    for (const Workload &w : gallery()) {
        std::string direct =
            buildCommMatrix(runWith(w, 16, SymmetryMode::Off, 3, false,
                                    "drop-transfer/8,remote-fail@3"))
                .renderJson();
        std::string aggregated =
            buildCommMatrix(runWith(w, 16, SymmetryMode::Force, 3, false,
                                    "drop-transfer/8,remote-fail@3"))
                .renderJson();
        EXPECT_EQ(direct, aggregated) << w.name;
    }
}

TEST(CommMatrixTest, ClassPairFoldConservesEveryTotal)
{
    // A zero materialization budget forces the closed-form fold; its
    // class-pair cells must conserve the same grand totals the
    // expansion (and the scalar counters) report.
    for (const Workload &w : gallery())
        for (Int p : {4, 7, 16, 64}) {
            SimStats s = runWith(w, p, SymmetryMode::Force);
            obs::CommMatrix folded = buildCommMatrix(s, 0);
            ASSERT_TRUE(folded.aggregated)
                << w.name << " P=" << std::to_string(p);
            EXPECT_TRUE(folded.rows.empty());
            EXPECT_EQ(folded.classes.size(), s.classes.size());
            EXPECT_EQ(folded.totalRemoteElements(),
                      s.totalRemoteAccesses())
                << w.name << " P=" << std::to_string(p);
            EXPECT_EQ(folded.totalBlockTransfers(),
                      s.totalBlockTransfers())
                << w.name << " P=" << std::to_string(p);
            EXPECT_EQ(folded.totalBlockElements(), s.totalBlockElements())
                << w.name << " P=" << std::to_string(p);

            // Each cell references a real class pair and carries
            // something.
            for (const obs::CommMatrix::Cell &c : folded.cells) {
                EXPECT_LT(c.from, folded.classes.size());
                EXPECT_LT(c.to, folded.classes.size());
                EXPECT_TRUE(c.remoteElements || c.blockTransfers ||
                            c.blockElements);
            }
        }
}

TEST(CommMatrixTest, FoldMatchesExpansionCellByCell)
{
    // Cross-check the congruence-count fold against brute force: expand
    // the matrix to per-processor rows, bucket every edge by the
    // (origin class, owner class) pair, and compare cells exactly.
    for (const Workload &w : gallery()) {
        SimStats s = runWith(w, 24, SymmetryMode::Force);
        obs::CommMatrix expanded = buildCommMatrix(s);
        ASSERT_FALSE(expanded.aggregated) << w.name;
        obs::CommMatrix folded = buildCommMatrix(s, 0);
        ASSERT_TRUE(folded.aggregated) << w.name;

        auto classOf = [&](int64_t proc) -> uint64_t {
            for (size_t ci = 0; ci < s.classes.size(); ++ci) {
                const ProcRange &range = s.classes[ci].members;
                for (Int k = 0; k < range.count; ++k)
                    if (range.memberAt(k, s.processors) == proc)
                        return ci;
            }
            // The default class owns every unclaimed processor.
            for (size_t ci = 0; ci < s.classes.size(); ++ci)
                if (s.classes[ci].isDefault)
                    return ci;
            ADD_FAILURE() << "proc " << proc << " in no class";
            return 0;
        };

        std::map<std::pair<uint64_t, uint64_t>, obs::CommMatrix::Cell>
            brute;
        for (const obs::CommMatrix::Row &row : expanded.rows) {
            uint64_t from = classOf(row.origin);
            for (const obs::CommEdge &e : row.edges) {
                obs::CommMatrix::Cell &c = brute[{from, classOf(e.owner)}];
                c.remoteElements += e.remoteElements;
                c.blockTransfers += e.blockTransfers;
                c.blockElements += e.blockElements;
            }
        }
        ASSERT_EQ(folded.cells.size(), brute.size()) << w.name;
        size_t i = 0;
        for (const auto &[key, want] : brute) {
            const obs::CommMatrix::Cell &got = folded.cells[i++];
            SCOPED_TRACE(w.name + " cell " + std::to_string(key.first) +
                         "->" + std::to_string(key.second));
            EXPECT_EQ(got.from, key.first);
            EXPECT_EQ(got.to, key.second);
            EXPECT_EQ(got.remoteElements, want.remoteElements);
            EXPECT_EQ(got.blockTransfers, want.blockTransfers);
            EXPECT_EQ(got.blockElements, want.blockElements);
        }
    }
}

TEST(CommMatrixTest, OffSwitchRecordsNothing)
{
    Workload w{"gemm", core::compile(ir::gallery::gemm()), {{13}, {}}};
    SimOptions opts;
    opts.processors = 8;
    opts.symmetry = SymmetryMode::Off;
    SimStats s = core::simulate(w.comp, opts, w.binds);
    for (const ProcStats &p : s.perProc)
        EXPECT_TRUE(p.comm.empty()) << "proc " << p.proc;
    obs::CommMatrix m = buildCommMatrix(s);
    EXPECT_TRUE(m.empty());
}

TEST(CommMatrixTest, MillionProcessorFoldStaysSmall)
{
    // The P = 2^20 budget path: aggregation keeps the run itself
    // O(#classes); a small budget then forces the class-pair fold,
    // which must conserve totals without ever expanding 2^20 rows.
    Workload w{"gemm", core::compile(ir::gallery::gemm()), {{140}, {}}};
    SimOptions opts;
    opts.processors = Int(1) << 20;
    opts.symmetry = SymmetryMode::Force;
    opts.commMatrix = true;
    SimStats s = core::simulate(w.comp, opts, w.binds);
    ASSERT_TRUE(s.aggregated);

    obs::CommMatrix folded = buildCommMatrix(s, 1 << 16);
    ASSERT_TRUE(folded.aggregated);
    EXPECT_EQ(folded.processors, Int(1) << 20);
    EXPECT_LE(folded.cells.size(),
              folded.classes.size() * folded.classes.size());
    EXPECT_EQ(folded.totalRemoteElements(), s.totalRemoteAccesses());
    EXPECT_EQ(folded.totalBlockTransfers(), s.totalBlockTransfers());
    EXPECT_EQ(folded.totalBlockElements(), s.totalBlockElements());

    // The default budget expands (only the traffic-bearing processors
    // store rows), and the expansion conserves the same totals.
    obs::CommMatrix expanded = buildCommMatrix(s);
    ASSERT_FALSE(expanded.aggregated);
    EXPECT_EQ(expanded.totalRemoteElements(), folded.totalRemoteElements());
    EXPECT_EQ(expanded.totalBlockTransfers(), folded.totalBlockTransfers());
    EXPECT_EQ(expanded.totalBlockElements(), folded.totalBlockElements());
}

TEST(CommMatrixTest, RenderJsonIsStableAndHeatmapRenders)
{
    Workload w{"gemm_plain",
               core::compile(ir::gallery::gemm(),
                             [] {
                                 CompileOptions o;
                                 o.identityTransform = true;
                                 return o;
                             }()),
               {{13}, {}}};
    SimStats s = runWith(w, 8, SymmetryMode::Off);
    obs::CommMatrix m = buildCommMatrix(s);
    ASSERT_FALSE(m.empty());
    EXPECT_EQ(m.renderJson(), m.renderJson());
    EXPECT_EQ(m.renderJson().find(
                  "{\"processors\":8,\"aggregated\":false,\"rows\":["),
              0u);
    std::string map = m.renderHeatmap();
    EXPECT_NE(map.find("origin \\ owner"), std::string::npos) << map;
    EXPECT_FALSE(m.renderHeatmap(4).empty()); // bucketed render
}

} // namespace
} // namespace anc::numa
