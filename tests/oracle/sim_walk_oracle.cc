#include "sim_walk_oracle.h"

#include <optional>

#include "../numa/sim_oracle.h"

namespace anc::oracle {

WalkDifferential
simWalkDifferential(const ir::Program &prog,
                    const xform::TransformedNest &nest,
                    const numa::ExecutionPlan &plan, numa::SimOptions opts,
                    const ir::Bindings &binds)
{
    std::string failure;
    auto simulate = [&](bool fast,
                        bool traced) -> std::optional<numa::SimStats> {
        obs::Trace trace;
        numa::SimOptions o = opts;
        o.fastInner = fast;
        o.trace = traced ? &trace : nullptr;
        o.tracePid = traced ? trace.process("oracle") : 0;
        try {
            return numa::Simulator(prog, nest, plan, o).run(binds);
        } catch (const Error &e) {
            failure = e.what();
            return std::nullopt;
        }
    };
    WalkDifferential out;
    std::optional<numa::SimStats> naive = simulate(false, false);
    out.naiveCompleted = naive.has_value();
    if (!naive)
        return out;
    const std::pair<const char *, bool> sides[] = {{"across-processor", false},
                                                   {"per-position", true}};
    for (const auto &[name, traced] : sides) {
        std::optional<numa::SimStats> fast = simulate(true, traced);
        std::string diff =
            fast ? testutil::statsDiff(*fast, *naive)
                 : "failed where the naive walk completed: " + failure;
        if (!diff.empty()) {
            out.mismatch = std::string(name) + " walk: " + diff;
            return out;
        }
    }
    opts.trace = nullptr;
    opts.fastInner = true;
    out.evaluated =
        numa::Simulator(prog, nest, plan, opts).runTally(binds).evaluated;
    return out;
}

} // namespace anc::oracle
