/**
 * @file
 * Recovery protocols for injected machine faults.
 *
 * Three responses, all charged to the simulated per-processor clock so
 * that the cost of surviving a fault is visible in parallelTime():
 *
 *   - retry with exponential backoff: a dropped block transfer or a
 *     transiently failing remote access is re-issued up to
 *     RetryPolicy::maxAttempts times, waiting backoffBase^i units of
 *     MachineParams::retryBackoffTime between attempts. A transfer
 *     whose every attempt fails is *abandoned*: its elements fall back
 *     to element-wise remote accesses (correct, but slow -- exactly the
 *     degradation the paper's block-transfer argument trades against).
 *     A remote access that exhausts its attempts escalates to a
 *     synchronous acknowledged fetch (charged one sync).
 *
 *   - checksum verification: each hoisted block carries a checksum (the
 *     fletcher64 of its payload, in a real runtime); a corrupted
 *     arrival is detected and the block re-fetched once over a path
 *     that is checked again (one backoff unit plus a full re-send).
 *
 *   - work redistribution: when a processor dies, its unstarted outer
 *     slices are reassigned round-robin to the survivors (legal
 *     because the distributed outer loop is parallel); the simulator
 *     implements this directly (Simulator::run), these helpers only
 *     charge the per-message recovery costs.
 *
 * All charging is closed-form over contiguous runs of logical events,
 * so the strength-reduced simulator paths stay closed-form and the
 * counters -- and therefore the derived clock -- are bit-identical
 * across host thread counts and execution strategies.
 *
 * Observability: recovery work is never traced from inside these
 * helpers (they run in the simulator's hot path). Instead, the fault
 * counters they charge (ProcStats::transferRetries / transferRefetches
 * / remoteRetries / abandonedTransfers) are snapshotted by the
 * simulator at outer-slice boundaries and surface in the trace as
 * "retry" / "refetch" / "abandon" instant events stamped from the
 * simulated clock, and in the metrics registry as
 * `sim.*.transfer_retries` etc. (core::recordSimMetrics). That keeps
 * the off-switch free and the events as deterministic as the counters.
 */

#ifndef ANC_NUMA_RECOVERY_H
#define ANC_NUMA_RECOVERY_H

#include "numa/fault_model.h"
#include "numa/stats.h"

namespace anc::numa {

/** Retry protocol parameters for failed transfers and accesses. */
struct RetryPolicy
{
    /** Total send attempts per message before giving up (>= 1). */
    int maxAttempts = 4;
    /** Exponential backoff multiplier: the wait before retry i is
     * backoffBase^(i-1) units of MachineParams::retryBackoffTime. */
    int backoffBase = 2;

    /** Throws UserError on out-of-range values. */
    void validate() const;
};

/** Backoff units accumulated over `failures` consecutive failed
 * attempts: sum of base^i for i in [0, failures). */
uint64_t backoffUnitsFor(int failures, int base);

/** How a contiguous batch of block transfers fared under injection. */
struct TransferBatchOutcome
{
    uint64_t completed = 0; //!< transfers that eventually arrived
    uint64_t abandoned = 0; //!< transfers given up after maxAttempts
};

/**
 * Charge recovery costs for `total` consecutive logical block
 * transfers of one reference stream (1-based indices firstIdx+1 ..
 * firstIdx+total), each moving elemsPerTransfer elements of array
 * arrayId. Increments the retry/refetch/backoff/abandoned counters on
 * ps, and charges the elements of abandoned transfers as element-wise
 * remote accesses. Does NOT touch blockTransfers/blockElements: the
 * caller charges those for the `completed` transfers, exactly as in a
 * fault-free run.
 */
TransferBatchOutcome chargeTransferBatch(ProcStats &ps,
                                         const FaultOptions &f,
                                         const RetryPolicy &rp,
                                         uint64_t firstIdx, uint64_t total,
                                         uint64_t elemsPerTransfer,
                                         size_t arrayId, size_t numArrays);

/**
 * Charge recovery costs for `total` consecutive logical element-wise
 * remote accesses (indices firstIdx+1 .. firstIdx+total). Remote
 * accesses always complete -- transient failures retry, and exhausted
 * retries escalate to a synchronous fetch -- so the caller charges the
 * base accesses unconditionally.
 */
void chargeRemoteBatch(ProcStats &ps, const FaultOptions &f,
                       const RetryPolicy &rp, uint64_t firstIdx,
                       uint64_t total);

/** Elements of an abandoned (never-arrived) block charged as
 * element-wise remote accesses. */
inline void
chargeAbandonedElements(ProcStats &ps, size_t array_id, size_t num_arrays,
                        uint64_t elems)
{
    if (elems == 0)
        return;
    addCount(ps.remoteAccesses, elems);
    if (ps.remoteByArray.empty())
        ps.remoteByArray.assign(num_arrays, 0);
    addCount(ps.remoteByArray[array_id], elems);
}

/**
 * Fletcher-64 checksum over a double payload -- the integrity check a
 * real block-transfer runtime would ship with each message (the
 * simulator's injector marks corrupt arrivals directly; tests and the
 * fault-sweep bench use this to certify result arrays bit-identical
 * across fault injections).
 */
uint64_t fletcher64(const double *data, size_t n);

} // namespace anc::numa

#endif // ANC_NUMA_RECOVERY_H
