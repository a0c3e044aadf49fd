#include "numa/perf_model.h"

#include <cmath>

namespace anc::numa {

double
PerfModel::predictTime(Int processors) const
{
    if (processors <= 0)
        throw UserError("processor count must be positive");
    double p = double(processors);
    double p0 = double(calibrationP);
    // Wrapped-distribution remote fractions scale as (1 - 1/P).
    double scale = calibrationP > 1
                       ? (1.0 - 1.0 / p) / (1.0 - 1.0 / p0)
                       : 0.0;
    if (processors == 1)
        scale = 0.0;
    double remote = remotePerIter * scale;
    double blocked = blockedPerIter * scale;
    double startups = startupsPerIter * scale;
    // Whatever is not remote or blocked at this P is local.
    double total_refs = localPerIter + remotePerIter + blockedPerIter;
    double local = total_refs - remote - blocked;

    double per_byte = machine.blockPerByteTime *
                      (1.0 + machine.contentionFactor * (p - 1.0));
    double t_iter = machine.loopOverheadTime +
                    flopsPerIter * machine.flopTime +
                    local * machine.localAccessTime +
                    remote * machine.remoteTime(int(processors)) +
                    blocked * (per_byte * machine.elementSize +
                               machine.localAccessTime) +
                    startups * machine.blockStartupTime;

    // Load imbalance of the wrapped outer distribution: the slowest
    // processor executes ceil(outer/P) of the outer slices.
    double balance = 1.0;
    if (outerIterations > 0) {
        double slices = std::ceil(double(outerIterations) / p);
        balance = slices * p / double(outerIterations);
    }
    return double(iterations) / p * t_iter * balance;
}

PerfModel
calibrateModel(const ir::Program &prog, const xform::TransformedNest &nest,
               const ExecutionPlan &plan, const SimOptions &opts,
               const ir::Bindings &binds)
{
    Simulator sim(prog, nest, plan, opts);
    SimStats s = sim.run(binds);

    PerfModel m;
    m.machine = opts.machine;
    m.calibrationP = opts.processors;
    m.iterations = s.totalIterations();
    if (m.iterations == 0)
        throw UserError("cannot calibrate on an empty iteration space");

    // Totals methods handle both direct and aggregated SimStats.
    uint64_t flops = s.totalFlops();
    uint64_t local = s.totalLocalAccesses();
    uint64_t remote = s.totalRemoteAccesses();
    uint64_t blocked = s.totalBlockElements();
    uint64_t startups = s.totalBlockTransfers();
    double it = double(m.iterations);
    m.flopsPerIter = double(flops) / it;
    m.localPerIter = double(local) / it;
    m.remotePerIter = double(remote) / it;
    m.blockedPerIter = double(blocked) / it;
    m.startupsPerIter = double(startups) / it;

    // Outer trip count: enumerate level-0 values once.
    IntVec u(nest.depth(), 0);
    ir::LoopBounds bounds(nest.loops(), binds.paramValues);
    Int lo = bounds.lower(0, u);
    Int hi = bounds.upper(0, u);
    if (lo <= hi) {
        Int stride = nest.lattice().stride(0);
        Int start = nest.startAt(0, lo, {});
        if (start <= hi)
            m.outerIterations = (hi - start) / stride + 1;
    }
    return m;
}

} // namespace anc::numa
