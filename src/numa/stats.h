/**
 * @file
 * Execution statistics gathered by the NUMA simulator.
 *
 * Two representations coexist:
 *
 *  - direct runs fill SimStats::perProc with one ProcStats per
 *    simulated processor (the historical representation);
 *  - symmetry-aggregated runs (see numa/symmetry.h) fill
 *    SimStats::classes with one ProcStats per *equivalence class* plus
 *    a multiplicity, so memory is O(#classes) even at P = 2^20.
 *    perProc stays empty until materializePerProc() expands the class
 *    table on demand (under a byte budget).
 *
 * All whole-machine totals work on either representation. Aggregated
 * totals multiply a representative counter by a class multiplicity, so
 * they accumulate in 128 bits and raise UserError on true uint64
 * overflow instead of silently wrapping.
 */

#ifndef ANC_NUMA_STATS_H
#define ANC_NUMA_STATS_H

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "obs/comm_matrix.h"
#include "ratmath/int_util.h"

namespace anc::numa {

/** counter += n, throwing LimitError instead of wrapping: a run whose
 * counters would leave uint64_t fails rather than returning wrong
 * SimStats. Not a fault-injection site, so adding a counter charge
 * never moves a fault schedule. */
inline void
addCount(uint64_t &counter, uint64_t n)
{
    if (__builtin_add_overflow(counter, n, &counter)) [[unlikely]]
        anc::detail::throwLimit("simulator counter exceeds 2^64-1");
}

/** a * b for counter charges, checked like addCount. */
inline uint64_t
mulCount(uint64_t a, uint64_t b)
{
    uint64_t r;
    if (__builtin_mul_overflow(a, b, &r)) [[unlikely]]
        anc::detail::throwLimit("simulator counter exceeds 2^64-1");
    return r;
}

/** Per-processor counters and simulated clock. */
struct ProcStats
{
    Int proc = 0;
    uint64_t iterations = 0;     //!< innermost iterations executed
    uint64_t flops = 0;
    uint64_t localAccesses = 0;
    uint64_t remoteAccesses = 0; //!< element-wise remote references
    uint64_t blockTransfers = 0; //!< hoisted block messages (completed)
    uint64_t blockElements = 0;  //!< elements moved by block transfers
    uint64_t guardChecks = 0;    //!< ownership-rule guard evaluations
    uint64_t syncs = 0;
    // Machine-fault recovery counters (all zero in a fault-free run).
    uint64_t transferRetries = 0;   //!< failed block sends re-issued
    uint64_t transferRefetches = 0; //!< checksum-failed blocks refetched
    uint64_t remoteRetries = 0;     //!< failed remote accesses re-issued
    uint64_t recoveryElements = 0;  //!< elements moved by re-sent blocks
    uint64_t backoffUnits = 0;      //!< exponential-backoff wait units
    uint64_t abandonedTransfers = 0;//!< blocks given up after maxAttempts
    uint64_t reassignedSlices = 0;  //!< outer slices adopted from a dead
                                    //!< processor
    uint64_t restarts = 0;          //!< fail-stop reboots (no survivors)
    uint64_t killed = 0;            //!< 1 when this processor was killed
    double time = 0.0;           //!< microseconds of simulated work
    /** Element-wise remote accesses broken down by array id (empty
     * until the first remote access; sized to the program's arrays). */
    std::vector<uint64_t> remoteByArray;
    /**
     * Per-compiled-reference breakdowns, indexed like
     * SimStats::refNames. Empty unless SimOptions::perReference: the
     * observability layer pays for its detail only when asked, and the
     * sums are invariants against the aggregate counters above
     * (sum(localByRef) == localAccesses, sum(remoteByRef) ==
     * remoteAccesses, sum(blockElementsByRef) == blockElements).
     */
    std::vector<uint64_t> localByRef;
    std::vector<uint64_t> remoteByRef;
    std::vector<uint64_t> blockElementsByRef;
    /**
     * Sparse outgoing communication row, owner-sorted: this processor's
     * traffic into each remote owner. Empty unless
     * SimOptions::commMatrix; its sums are invariants against the
     * aggregate counters (sum(remoteElements) == remoteAccesses,
     * sum(blockTransfers) == blockTransfers, sum(blockElements) ==
     * blockElements). Assembled into a whole-machine matrix by
     * numa::buildCommMatrix.
     */
    std::vector<obs::CommEdge> comm;

    void
    noteRemote(size_t array_id, size_t num_arrays)
    {
        addCount(remoteAccesses, 1);
        if (remoteByArray.empty())
            remoteByArray.assign(num_arrays, 0);
        addCount(remoteByArray[array_id], 1);
    }
};

/**
 * Hot-path accumulator for the eight counters the inner walk bumps on
 * (nearly) every iteration. Exactly one cache line, and kept on the
 * simulating thread's stack, so host-parallel representative walks
 * never write into the shared ProcStats array mid-loop -- the
 * structure-of-arrays fix for false sharing between adjacent
 * processors' results. flushInto() folds the line into a ProcStats and
 * resets, so it can be flushed at every observation point (trace
 * snapshots) without double counting.
 */
struct alignas(64) ProcAccum
{
    uint64_t iterations = 0;
    uint64_t flops = 0;
    uint64_t localAccesses = 0;
    uint64_t remoteAccesses = 0;
    uint64_t blockTransfers = 0;
    uint64_t blockElements = 0;
    uint64_t guardChecks = 0;
    uint64_t syncs = 0;

    void
    flushInto(ProcStats &p)
    {
        addCount(p.iterations, iterations);
        addCount(p.flops, flops);
        addCount(p.localAccesses, localAccesses);
        addCount(p.remoteAccesses, remoteAccesses);
        addCount(p.blockTransfers, blockTransfers);
        addCount(p.blockElements, blockElements);
        addCount(p.guardChecks, guardChecks);
        addCount(p.syncs, syncs);
        *this = ProcAccum{};
    }
};
static_assert(sizeof(ProcAccum) == 64,
              "ProcAccum must fill exactly one cache line");
static_assert(alignof(ProcAccum) == 64,
              "ProcAccum must be cache-line aligned");

/**
 * An arithmetic progression of processor ids, taken modulo P:
 * member i is euclidMod(first + i*step, processors). Wrapped
 * distributions produce their symmetry classes in exactly this shape
 * (residues of the outer lattice walked in cycle order), so class
 * membership needs O(1) storage however large the class.
 */
struct ProcRange
{
    Int first = 0;
    Int step = 1;
    Int count = 0;

    Int
    memberAt(Int i, Int processors) const
    {
        return euclidMod(checkedAdd(first, checkedMul(i, step)),
                         processors);
    }
};

/**
 * One equivalence class of processors with provably identical
 * ProcStats: a simulated representative, the class size, and the
 * membership. A default class owns every processor not claimed by any
 * other class (members left empty) -- typically the "no outer
 * iterations at all" class that makes P = 2^20 tractable.
 */
struct ProcClass
{
    ProcStats rep;
    uint64_t multiplicity = 1;
    std::vector<ProcRange> members;
    bool isDefault = false;
};

namespace detail {

/** acc + value*multiplicity in 128 bits; UserError on uint64 overflow. */
inline uint64_t
accumulateCounter(uint64_t acc, uint64_t value, uint64_t multiplicity)
{
    unsigned __int128 t =
        (unsigned __int128)value * multiplicity + acc;
    if (t > (unsigned __int128)UINT64_MAX)
        throw UserError(
            "aggregate counter overflow: a whole-machine total exceeds "
            "2^64-1; inspect per-class counters (SimStats::classes) "
            "instead of totals, or reduce P / the problem size");
    return (uint64_t)t;
}

} // namespace detail

/** Machine-fault recovery totals for one simulated run. */
struct FaultReport
{
    uint64_t transferRetries = 0;
    uint64_t transferRefetches = 0;
    uint64_t remoteRetries = 0;
    uint64_t recoveryElements = 0;
    uint64_t backoffUnits = 0;
    uint64_t abandonedTransfers = 0;
    uint64_t reassignedSlices = 0;
    uint64_t restarts = 0;
    uint64_t deadProcs = 0;

    bool
    any() const
    {
        return transferRetries || transferRefetches || remoteRetries ||
               recoveryElements || backoffUnits || abandonedTransfers ||
               reassignedSlices || restarts || deadProcs;
    }

    std::string
    str() const
    {
        std::ostringstream os;
        os << "faults: " << transferRetries << " transfer retries, "
           << transferRefetches << " refetches, " << remoteRetries
           << " remote retries, " << abandonedTransfers << " abandoned, "
           << reassignedSlices << " reassigned slices, " << restarts
           << " restarts, " << deadProcs << " dead, " << backoffUnits
           << " backoff units";
        return os.str();
    }
};

/**
 * Per-event costs (microseconds) used to derive ProcStats::time from
 * the integer counters. Deriving the clock once per processor -- rather
 * than accumulating doubles event by event -- makes the simulated time
 * a pure function of the counters, so every execution strategy (serial,
 * host-parallel, strength-reduced, closed-form) that produces the same
 * counts produces the bit-identical time.
 */
struct CostRates
{
    double loopOverhead = 0.0; //!< per innermost iteration
    double flop = 0.0;
    double local = 0.0;        //!< per local reference
    double remote = 0.0;       //!< per element-wise remote, with contention
    double blockStartup = 0.0; //!< per hoisted block message
    double blockElement = 0.0; //!< per moved element, with contention
    double guard = 0.0;        //!< per ownership-rule guard evaluation
    double sync = 0.0;
    double backoffUnit = 0.0;  //!< per retry-backoff wait unit
    double restart = 0.0;      //!< per fail-stop processor reboot
};

/** Set p.time from its counters; the fixed evaluation order below is
 * part of the simulator's determinism guarantee. */
inline void
finalizeProcTime(ProcStats &p, const CostRates &r)
{
    p.time = double(p.iterations) * r.loopOverhead +
             double(p.flops) * r.flop +
             double(p.localAccesses) * r.local +
             double(p.remoteAccesses) * r.remote +
             double(p.blockTransfers) * r.blockStartup +
             double(p.blockElements) * (r.blockElement + r.local) +
             double(p.guardChecks) * r.guard + double(p.syncs) * r.sync +
             // Recovery work: every re-sent block pays a fresh startup
             // and its bytes (but not the per-element local use, which
             // only the finally-delivered copy gets), every re-issued
             // remote access a fresh remote reference, every backoff
             // unit and reboot their machine-specific wait.
             double(p.transferRetries + p.transferRefetches) *
                 r.blockStartup +
             double(p.recoveryElements) * r.blockElement +
             double(p.remoteRetries) * r.remote +
             double(p.backoffUnits) * r.backoffUnit +
             double(p.restarts) * r.restart;
}

/** Whole-machine result of one simulated run. */
struct SimStats
{
    /** Default byte budget for materializePerProc(). */
    static constexpr uint64_t kDefaultMaterializeBudget =
        uint64_t(256) << 20;

    Int processors = 1;
    std::vector<ProcStats> perProc; //!< one per processor, unless aggregated
    /** Symmetry classes; non-empty exactly when aggregated is set. */
    std::vector<ProcClass> classes;
    /** True when this run was produced by symmetry-class aggregation:
     * classes is authoritative and perProc is empty until
     * materializePerProc(). */
    bool aggregated = false;
    /** Labels of the compiled references ("s0.r1 A", "s0.w C"), in
     * globalIdx order; filled only under SimOptions::perReference and
     * indexing the ProcStats::*ByRef vectors. */
    std::vector<std::string> refNames;

    /** Parallel completion time: the slowest simulated processor. */
    double
    parallelTime() const
    {
        double t = 0.0;
        if (aggregated) {
            for (const ProcClass &c : classes)
                t = std::max(t, c.rep.time);
        } else {
            for (const ProcStats &p : perProc)
                t = std::max(t, p.time);
        }
        return t;
    }

    /** Speedup relative to a sequential time. */
    double
    speedup(double sequential_time) const
    {
        double t = parallelTime();
        return t > 0.0 ? sequential_time / t : 0.0;
    }

    /** Checked whole-machine sum of one counter (class-aware). */
    uint64_t
    totalOf(uint64_t ProcStats::* which) const
    {
        uint64_t n = 0;
        if (aggregated) {
            for (const ProcClass &c : classes)
                n = detail::accumulateCounter(n, c.rep.*which,
                                              c.multiplicity);
        } else {
            for (const ProcStats &p : perProc)
                n = detail::accumulateCounter(n, p.*which, 1);
        }
        return n;
    }

    uint64_t
    totalRemoteAccesses() const
    {
        return totalOf(&ProcStats::remoteAccesses);
    }

    uint64_t
    totalLocalAccesses() const
    {
        return totalOf(&ProcStats::localAccesses);
    }

    uint64_t
    totalBlockTransfers() const
    {
        return totalOf(&ProcStats::blockTransfers);
    }

    uint64_t
    totalIterations() const
    {
        return totalOf(&ProcStats::iterations);
    }

    uint64_t
    totalBlockElements() const
    {
        return totalOf(&ProcStats::blockElements);
    }

    uint64_t
    totalFlops() const
    {
        return totalOf(&ProcStats::flops);
    }

    uint64_t
    totalSyncs() const
    {
        return totalOf(&ProcStats::syncs);
    }

    uint64_t
    totalGuardChecks() const
    {
        return totalOf(&ProcStats::guardChecks);
    }

    /** Sum of one per-reference vector across processors (0 when the
     * per-reference counters were not collected). */
    uint64_t
    totalByRef(std::vector<uint64_t> ProcStats::* which, size_t ref) const
    {
        uint64_t n = 0;
        if (aggregated) {
            for (const ProcClass &c : classes)
                if (ref < (c.rep.*which).size())
                    n = detail::accumulateCounter(
                        n, (c.rep.*which)[ref], c.multiplicity);
        } else {
            for (const ProcStats &p : perProc)
                if (ref < (p.*which).size())
                    n = detail::accumulateCounter(n, (p.*which)[ref], 1);
        }
        return n;
    }

    /** Element-wise remote accesses to one array across processors. */
    uint64_t
    remoteAccessesTo(size_t array_id) const
    {
        uint64_t n = 0;
        if (aggregated) {
            for (const ProcClass &c : classes)
                if (array_id < c.rep.remoteByArray.size())
                    n = detail::accumulateCounter(
                        n, c.rep.remoteByArray[array_id],
                        c.multiplicity);
        } else {
            for (const ProcStats &p : perProc)
                if (array_id < p.remoteByArray.size())
                    n = detail::accumulateCounter(
                        n, p.remoteByArray[array_id], 1);
        }
        return n;
    }

    /** Load imbalance: slowest simulated processor over the mean. */
    double
    imbalance() const
    {
        if (aggregated) {
            if (classes.empty())
                return 1.0;
            double sum = 0.0;
            double count = 0.0;
            for (const ProcClass &c : classes) {
                sum += c.rep.time * double(c.multiplicity);
                count += double(c.multiplicity);
            }
            double mean = count > 0.0 ? sum / count : 0.0;
            return mean > 0.0 ? parallelTime() / mean : 1.0;
        }
        if (perProc.empty())
            return 1.0;
        double sum = 0.0;
        for (const ProcStats &p : perProc)
            sum += p.time;
        double mean = sum / double(perProc.size());
        return mean > 0.0 ? parallelTime() / mean : 1.0;
    }

    /** Machine-fault recovery totals across the simulated processors. */
    FaultReport
    faultReport() const
    {
        FaultReport f;
        auto add = [](uint64_t &dst, uint64_t v, uint64_t mult) {
            dst = detail::accumulateCounter(dst, v, mult);
        };
        auto fold = [&](const ProcStats &p, uint64_t mult) {
            add(f.transferRetries, p.transferRetries, mult);
            add(f.transferRefetches, p.transferRefetches, mult);
            add(f.remoteRetries, p.remoteRetries, mult);
            add(f.recoveryElements, p.recoveryElements, mult);
            add(f.backoffUnits, p.backoffUnits, mult);
            add(f.abandonedTransfers, p.abandonedTransfers, mult);
            add(f.reassignedSlices, p.reassignedSlices, mult);
            add(f.restarts, p.restarts, mult);
            add(f.deadProcs, p.killed, mult);
        };
        if (aggregated) {
            for (const ProcClass &c : classes)
                fold(c.rep, c.multiplicity);
        } else {
            for (const ProcStats &p : perProc)
                fold(p, 1);
        }
        return f;
    }

    /**
     * Expand the class table into perProc (one ProcStats per processor,
     * in processor order), so code written against the direct
     * representation keeps working. Throws UserError when the expansion
     * would exceed budget_bytes -- at P = 2^20 the class table is the
     * point, and a silent multi-gigabyte allocation is never the right
     * answer. No-op for direct runs.
     */
    void
    materializePerProc(uint64_t budget_bytes = kDefaultMaterializeBudget)
    {
        if (!aggregated || !perProc.empty())
            return;
        // Estimate the expansion cost: the fixed struct plus the
        // largest per-class heap payload, replicated P times.
        uint64_t payload = 0;
        for (const ProcClass &c : classes) {
            uint64_t v = c.rep.remoteByArray.size() +
                         c.rep.localByRef.size() +
                         c.rep.remoteByRef.size() +
                         c.rep.blockElementsByRef.size();
            payload = std::max(payload,
                               v * sizeof(uint64_t) +
                                   c.rep.comm.size() *
                                       sizeof(obs::CommEdge));
        }
        unsigned __int128 need =
            (unsigned __int128)(uint64_t)processors *
            (sizeof(ProcStats) + payload);
        if (need > (unsigned __int128)budget_bytes) {
            std::ostringstream os;
            os << "materializing per-processor stats for P = "
               << processors << " needs about "
               << (uint64_t)(need >> 20) << " MiB, over the "
               << (budget_bytes >> 20)
               << " MiB budget; use the class table "
                  "(SimStats::classes) or whole-machine totals, or "
                  "raise the budget explicitly";
            throw UserError(os.str());
        }
        std::vector<ProcStats> out;
        const ProcClass *dflt = nullptr;
        for (const ProcClass &c : classes)
            if (c.isDefault)
                dflt = &c;
        if (dflt)
            out.assign(size_t(processors), dflt->rep);
        else
            out.assign(size_t(processors), ProcStats{});
        std::vector<char> covered(size_t(processors), 0);
        for (const ProcClass &c : classes) {
            if (c.isDefault)
                continue;
            for (const ProcRange &r : c.members)
                for (Int i = 0; i < r.count; ++i) {
                    Int p = r.memberAt(i, processors);
                    out[size_t(p)] = c.rep;
                    // A member's communication row is the
                    // representative's translated by the member offset:
                    // the translation-merge conditions make every
                    // ownership residue shift exactly with the
                    // processor id (see numa/symmetry.h), and
                    // non-merged classes are singletons (offset 0).
                    Int t = euclidMod(checkedSub(p, c.rep.proc),
                                      processors);
                    if (t != 0 && !out[size_t(p)].comm.empty()) {
                        for (obs::CommEdge &e : out[size_t(p)].comm)
                            e.owner = euclidMod(
                                checkedAdd(e.owner, t), processors);
                        std::sort(out[size_t(p)].comm.begin(),
                                  out[size_t(p)].comm.end(),
                                  [](const obs::CommEdge &a,
                                     const obs::CommEdge &b) {
                                      return a.owner < b.owner;
                                  });
                    }
                    covered[size_t(p)] = 1;
                }
        }
        if (!dflt)
            for (Int p = 0; p < processors; ++p)
                if (!covered[size_t(p)])
                    out[size_t(p)] = ProcStats{};
        for (Int p = 0; p < processors; ++p)
            out[size_t(p)].proc = p;
        perProc = std::move(out);
        // perProc is authoritative from here on; keep the class table
        // for inspection but stop double-counting in totals.
        aggregated = false;
    }
};

/** Human-readable per-processor traffic table. */
inline std::string
summarize(const SimStats &s)
{
    std::ostringstream os;
    if (s.aggregated) {
        os << "P = " << s.processors << " (aggregated, "
           << s.classes.size() << " classes), parallel time "
           << s.parallelTime() << " us, imbalance " << s.imbalance()
           << "\n";
        os << std::setw(6) << "class" << std::setw(10) << "size"
           << std::setw(6) << "rep" << std::setw(12) << "iterations"
           << std::setw(11) << "local" << std::setw(11) << "remote"
           << std::setw(8) << "blocks" << std::setw(7) << "syncs"
           << std::setw(13) << "time(us)" << "\n";
        constexpr size_t kMaxRows = 64;
        for (size_t i = 0; i < s.classes.size(); ++i) {
            if (i == kMaxRows) {
                os << "  ... " << (s.classes.size() - kMaxRows)
                   << " more classes\n";
                break;
            }
            const ProcClass &c = s.classes[i];
            os << std::setw(6) << i << std::setw(10) << c.multiplicity
               << std::setw(6) << c.rep.proc << std::setw(12)
               << c.rep.iterations << std::setw(11)
               << c.rep.localAccesses << std::setw(11)
               << c.rep.remoteAccesses << std::setw(8)
               << c.rep.blockTransfers << std::setw(7) << c.rep.syncs
               << std::setw(13) << c.rep.time;
            if (c.rep.killed)
                os << "  (killed)";
            if (c.isDefault)
                os << "  (rest)";
            os << "\n";
        }
        FaultReport f = s.faultReport();
        if (f.any())
            os << f.str() << "\n";
        return os.str();
    }
    os << "P = " << s.processors << ", parallel time " << s.parallelTime()
       << " us, imbalance " << s.imbalance() << "\n";
    os << std::setw(5) << "proc" << std::setw(12) << "iterations"
       << std::setw(11) << "local" << std::setw(11) << "remote"
       << std::setw(8) << "blocks" << std::setw(9) << "retries"
       << std::setw(9) << "refetch" << std::setw(8) << "reasgn"
       << std::setw(7) << "syncs" << std::setw(13) << "time(us)" << "\n";
    for (const ProcStats &p : s.perProc) {
        os << std::setw(5) << p.proc << std::setw(12) << p.iterations
           << std::setw(11) << p.localAccesses << std::setw(11)
           << p.remoteAccesses << std::setw(8) << p.blockTransfers
           << std::setw(9) << (p.transferRetries + p.remoteRetries)
           << std::setw(9) << p.transferRefetches << std::setw(8)
           << p.reassignedSlices << std::setw(7) << p.syncs
           << std::setw(13) << p.time;
        if (p.killed)
            os << "  (killed)";
        if (p.restarts)
            os << "  (restarted)";
        os << "\n";
    }
    FaultReport f = s.faultReport();
    if (f.any())
        os << f.str() << "\n";
    return os.str();
}

} // namespace anc::numa

#endif // ANC_NUMA_STATS_H
