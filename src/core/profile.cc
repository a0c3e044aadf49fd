#include "core/profile.h"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace anc::core {

void
recordCompileMetrics(obs::MetricsRegistry &reg, const Compilation &c)
{
    for (const obs::PhaseTime &p : c.phaseTimes)
        reg.counter("compile.phase_us." + p.name)
            .add(uint64_t(std::llround(std::max(0.0, p.us))));
    reg.counter("compile.phases").add(c.phaseTimes.size());
    reg.counter("compile.degraded").add(c.degraded() ? 1 : 0);
    reg.counter(std::string("compile.tier.") + tierName(c.tier)).add(1);
}

void
recordSimMetrics(obs::MetricsRegistry &reg, const numa::SimStats &s,
                 const numa::MachineParams &machine,
                 const std::string &prefix)
{
    auto ctr = [&](const char *name, uint64_t v) {
        reg.counter(prefix + name).add(v);
    };
    ctr("iterations", s.totalIterations());
    ctr("local", s.totalLocalAccesses());
    ctr("remote", s.totalRemoteAccesses());
    ctr("block_transfers", s.totalBlockTransfers());
    ctr("block_elements", s.totalBlockElements());
    ctr("block_bytes",
        s.totalBlockElements() * uint64_t(machine.elementSize));
    numa::FaultReport f = s.faultReport();
    ctr("transfer_retries", f.transferRetries);
    ctr("transfer_refetches", f.transferRefetches);
    ctr("remote_retries", f.remoteRetries);
    ctr("backoff_units", f.backoffUnits);
    ctr("abandoned_transfers", f.abandonedTransfers);
    ctr("reassigned_slices", f.reassignedSlices);
    ctr("restarts", f.restarts);
    ctr("dead_procs", f.deadProcs);

    // Create both histograms before taking a reference to either: a
    // registry insertion may move the existing entries.
    reg.histogram(prefix + "proc_time_us");
    obs::Histogram &hr = reg.histogram(prefix + "proc_remote");
    obs::Histogram &ht = reg.histogram(prefix + "proc_time_us");
    if (s.aggregated) {
        for (const numa::ProcClass &c : s.classes) {
            ht.record(uint64_t(std::llround(std::max(0.0, c.rep.time))),
                      c.multiplicity);
            hr.record(c.rep.remoteAccesses, c.multiplicity);
        }
    } else {
        for (const numa::ProcStats &p : s.perProc) {
            ht.record(uint64_t(std::llround(std::max(0.0, p.time))));
            hr.record(p.remoteAccesses);
        }
    }

    for (size_t r = 0; r < s.refNames.size(); ++r) {
        const std::string base = prefix + "ref." + s.refNames[r] + ".";
        reg.counter(base + "local")
            .add(s.totalByRef(&numa::ProcStats::localByRef, r));
        reg.counter(base + "remote")
            .add(s.totalByRef(&numa::ProcStats::remoteByRef, r));
        reg.counter(base + "block_elements")
            .add(s.totalByRef(&numa::ProcStats::blockElementsByRef, r));
    }
}

std::string
phaseTable(const Compilation &c)
{
    std::ostringstream os;
    os << "compiler phases (tier '" << tierName(c.tier) << "'"
       << (c.degraded() ? ", degraded" : "") << "):\n";
    os << std::setw(20) << "phase" << std::setw(12) << "tier"
       << std::setw(13) << "time(us)" << "\n";
    double total = 0.0;
    os << std::fixed << std::setprecision(1);
    for (const obs::PhaseTime &p : c.phaseTimes) {
        os << std::setw(20) << p.name << std::setw(12)
           << (p.tier.empty() ? "-" : p.tier) << std::setw(13) << p.us
           << "\n";
        total += p.us;
    }
    os << std::setw(20) << "total" << std::setw(12) << "" << std::setw(13)
       << total << "\n";
    return os.str();
}

std::string
refTable(const numa::SimStats &s)
{
    if (s.refNames.empty())
        return "";
    std::ostringstream os;
    os << "per-reference traffic (P = " << s.processors << "):\n";
    os << std::setw(14) << "reference" << std::setw(13) << "local"
       << std::setw(13) << "remote" << std::setw(13) << "blk elems"
       << std::setw(10) << "remote%" << "\n";
    auto row = [&](const std::string &name, uint64_t loc, uint64_t rem,
                   uint64_t blk) {
        double denom = double(loc) + double(rem) + double(blk);
        double pct = denom > 0.0 ? 100.0 * double(rem) / denom : 0.0;
        os << std::setw(14) << name << std::setw(13) << loc
           << std::setw(13) << rem << std::setw(13) << blk << std::fixed
           << std::setprecision(1) << std::setw(9) << pct << "%\n";
        os.unsetf(std::ios::floatfield);
    };
    uint64_t tl = 0, tr = 0, tb = 0;
    for (size_t r = 0; r < s.refNames.size(); ++r) {
        uint64_t loc = s.totalByRef(&numa::ProcStats::localByRef, r);
        uint64_t rem = s.totalByRef(&numa::ProcStats::remoteByRef, r);
        uint64_t blk =
            s.totalByRef(&numa::ProcStats::blockElementsByRef, r);
        row(s.refNames[r], loc, rem, blk);
        tl += loc;
        tr += rem;
        tb += blk;
    }
    row("total", tl, tr, tb);
    return os.str();
}

} // namespace anc::core
