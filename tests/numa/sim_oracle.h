/**
 * @file
 * Test helper: two SimStats held to bit-identity.
 *
 * Every execution strategy of the simulator (host threads, the
 * strength-reduced inner loop, the middle-loop fold, the naive walk)
 * must produce the same SimStats: every counter, every breakdown
 * vector, every communication row and every simulated clock, equal to
 * the last bit. statsDiff names the first field that differs.
 */

#ifndef ANC_TESTS_NUMA_SIM_ORACLE_H
#define ANC_TESTS_NUMA_SIM_ORACLE_H

#include <string>

#include "numa/stats.h"

namespace anc::testutil {

/** "" when p and q are bit-identical, else the first differing field. */
inline std::string
procDiff(const numa::ProcStats &p, const numa::ProcStats &q)
{
#define ANC_SIM_FIELD(f)                                                     \
    if (!(p.f == q.f))                                                       \
        return #f;
    ANC_SIM_FIELD(proc)
    ANC_SIM_FIELD(iterations)
    ANC_SIM_FIELD(flops)
    ANC_SIM_FIELD(localAccesses)
    ANC_SIM_FIELD(remoteAccesses)
    ANC_SIM_FIELD(blockTransfers)
    ANC_SIM_FIELD(blockElements)
    ANC_SIM_FIELD(guardChecks)
    ANC_SIM_FIELD(syncs)
    ANC_SIM_FIELD(transferRetries)
    ANC_SIM_FIELD(transferRefetches)
    ANC_SIM_FIELD(remoteRetries)
    ANC_SIM_FIELD(recoveryElements)
    ANC_SIM_FIELD(backoffUnits)
    ANC_SIM_FIELD(abandonedTransfers)
    ANC_SIM_FIELD(reassignedSlices)
    ANC_SIM_FIELD(restarts)
    ANC_SIM_FIELD(killed)
    ANC_SIM_FIELD(time) // bit-identical: derived from the counters
    ANC_SIM_FIELD(remoteByArray)
    ANC_SIM_FIELD(localByRef)
    ANC_SIM_FIELD(remoteByRef)
    ANC_SIM_FIELD(blockElementsByRef)
#undef ANC_SIM_FIELD
    if (p.comm.size() != q.comm.size())
        return "comm";
    for (size_t i = 0; i < p.comm.size(); ++i) {
        const obs::CommEdge &a = p.comm[i], &b = q.comm[i];
        if (a.owner != b.owner || a.remoteElements != b.remoteElements ||
            a.blockTransfers != b.blockTransfers ||
            a.blockElements != b.blockElements)
            return "comm";
    }
    return "";
}

/** "" when a and b are bit-identical, else where they first differ. */
inline std::string
statsDiff(const numa::SimStats &a, const numa::SimStats &b)
{
    if (a.processors != b.processors || a.aggregated != b.aggregated ||
        a.refNames != b.refNames)
        return "run shape";
    if (a.perProc.size() != b.perProc.size() ||
        a.classes.size() != b.classes.size())
        return "processor count";
    for (size_t i = 0; i < a.perProc.size(); ++i) {
        std::string d = procDiff(a.perProc[i], b.perProc[i]);
        if (!d.empty())
            return "proc " + std::to_string(a.perProc[i].proc) + " " + d;
    }
    for (size_t i = 0; i < a.classes.size(); ++i) {
        const numa::ProcClass &x = a.classes[i], &y = b.classes[i];
        std::string d = procDiff(x.rep, y.rep);
        if (d.empty() && (x.multiplicity != y.multiplicity ||
                          x.isDefault != y.isDefault ||
                          x.members.first != y.members.first ||
                          x.members.step != y.members.step ||
                          x.members.count != y.members.count))
            d = "class shape";
        if (!d.empty())
            return "class " + std::to_string(i) + " " + d;
    }
    return "";
}

} // namespace anc::testutil

#endif // ANC_TESTS_NUMA_SIM_ORACLE_H
