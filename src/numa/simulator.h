/**
 * @file
 * Deterministic SPMD simulator for NUMA machines.
 *
 * Executes a transformed loop nest the way the paper's generated node
 * programs run on the Butterfly: each processor walks its assigned
 * slice of the outermost loop, every array reference is classified
 * local/remote through the distribution functions, and block transfers
 * are charged once per hoisted read per outer-slice iteration. Each
 * processor accumulates a private clock; parallel time is the slowest
 * processor. The same machinery simulates the ownership-rule baseline
 * of Section 2 ("all processors execute all iterations looking for
 * work").
 *
 * Simulated processors are independent, so the walks run concurrently
 * on a host thread pool (SimOptions::hostThreads). The innermost loop
 * is strength-reduced and, where ownership is constant or
 * wrapped-periodic, charged in closed form; one level up, a whole
 * middle run (one pass of the loop above the innermost) is charged in
 * closed form too: its positions split into pieces on which the inner
 * start and trip count are affine, and each reference's local and
 * remote elements, transfers and last hoist key over a piece come from
 * floor sums, with each wrapped reference's owner steppers built once
 * per run and references of one owner function charged once; and a
 * processor's slice is cut into stretches on which every counter
 * changes by a polynomial in the position (a constant where every
 * position runs the same sub-walk), so a stretch walks as many
 * positions as the polynomial has terms and sums the rest by forward
 * differences (numa/stretch.h); and where processors own one or two
 * positions each, a run of them on which every counter is a
 * polynomial in the processor walks a few and evaluates the rest (all
 * SimOptions::fastInner). Each
 * processor's clock is derived once from its integer event counters,
 * so every execution strategy yields bit-identical SimStats; a run
 * whose counters or loop trip counts would leave uint64_t throws
 * LimitError (an OverflowError).
 *
 * The block-transfer model assumes each element of a fetched block is
 * used once per block epoch (true of the paper's workloads, where the
 * innermost loop sweeps a fresh array row per element): a hoisted read
 * costs one startup per epoch plus the per-byte transfer cost and a
 * local reference per element touched.
 */

#ifndef ANC_NUMA_SIMULATOR_H
#define ANC_NUMA_SIMULATOR_H

#include "ir/interp.h"
#include "numa/distribution.h"
#include "obs/trace.h"
#include "numa/fault_model.h"
#include "numa/machine.h"
#include "numa/plan.h"
#include "numa/recovery.h"
#include "numa/stats.h"
#include "numa/symmetry.h"
#include "xform/transform.h"

namespace anc::numa {

/** Options for one simulated run. */
struct SimOptions
{
    Int processors = 1;
    MachineParams machine = MachineParams::butterflyGP1000();
    /** Honor the plan's block-transfer hoists (the paper's "B" curves)
     * or charge element-wise remote accesses (the "T" curves). */
    bool blockTransfers = true;
    /** Also execute statement values into storage (slow; for tests). */
    bool executeValues = false;
    /**
     * Host threads simulating processors concurrently: 0 means one per
     * hardware thread, 1 forces the serial path, N caps the pool. Each
     * simulated processor's walk is independent, and per-processor
     * results are merged in processor order, so stats are bit-identical
     * for every thread count. Value-executing runs, plans whose outer
     * loop is not parallel and runs on a thread that counts or injects
     * checked-arithmetic faults (fault::active) always take the serial
     * path.
     */
    Int hostThreads = 0;
    /**
     * Strength-reduce the innermost loop: distribution-dimension
     * subscripts advance by precomputed per-iteration deltas instead of
     * re-evaluated dot products, and references whose ownership pattern
     * is constant or wrapped-periodic across the innermost loop are
     * charged in closed form without iterating at all. Bounds and
     * subscripts of the enclosing levels are kept up to date
     * incrementally. Every middle run -- one complete pass of the loop
     * one level up (the outer slice of a two-deep nest) with the outer
     * variables fixed -- is charged in closed form as well: the
     * positions split into pieces, by the crossings of the inner
     * bounds' max/min forms, by emptiness, and by residue where a
     * denominator or stride makes the bounds floor-affine; on a piece
     * the inner start and trip count are affine, so iterations and each
     * reference's local elements are degree-2 sums or floor sums (a
     * wrapped owner moving along the inner run), and transfers follow
     * from where the hoist key sits. The closed form declines, and
     * every position is walked, under value execution, message faults,
     * perReference or commMatrix, for a traced two-deep nest, for an
     * inner lattice anchor that moves with the middle variable, and for
     * a reference that must be re-evaluated per point, a non-wrapped
     * subscript that moves with the middle variable, or a non-wrapped
     * one that moves along an inner run whose bounds do. Runs of
     * fewer than three positions, or of fewer positions than inner
     * bound forms where those move with the middle variable, are
     * walked too: that costs less. One level higher, the slice of a
     * nest at least three deep is charged by stretches when no lattice
     * anchor and no non-wrapped owner below level 0 reads the outer
     * variable and each position moves every owner that does by a
     * multiple of P. Where no bound below level 0 reads it either,
     * every position runs the same sub-walk and the slice is one
     * stretch of constant charges. Where bounds do (three deep, on a
     * unit lattice below level 0, with each wrapped owner integral in
     * every loop variable, no non-wrapped owner reading one and no read
     * hoisted above the nest), each bound and each crossing of two
     * inner bounds must move by a multiple of P per position too, and
     * the slice is cut where two of them that shape the middle run's
     * pieces cross: between cuts every counter changes by a polynomial
     * of degree 2 in the position. A stretch walks its first degree + 1
     * positions and sums the polynomial their changes fix over the
     * rest; the slice's last position is walked, and so is its first
     * where a read is hoisted above the nest. That declines under
     * tracing, message faults, perReference, commMatrix and value
     * execution, and where walking costs less: on stretches with no
     * position left to sum, and with moving bounds on runs whose
     * slices average fewer than 16 positions. Across processors, the
     * simulated processors (an aggregated run's classes) whose slices
     * hold one or two positions of a three-deep nest on a unit lattice
     * below level 0, partitioned round robin or owner-wrapped on a
     * unit outer stride, are charged by evaluation: moving p by one
     * moves each position of its slice by one outer step, every bound
     * and inner crossing moves by a whole number then, and each
     * wrapped owner either moves with p everywhere or, read by the
     * middle or inner variable with coefficient +-1, puts p's elements
     * on planes that move linearly in p. A run of consecutive
     * processors with as many positions is cut where a position
     * crosses a cut of the middle run's pieces and where an owner
     * plane enters the iteration space, leaves it, or sees two bounds
     * cross on it; between cuts every counter is a polynomial of
     * degree at most 2 in p, so the first degree + 1 processors of
     * each stretch are walked (on the host threads) and the others
     * evaluated (numa/stretch.h), and the run's last processor is
     * walked too. That declines where stretches do, for reads hoisted
     * above the middle level that may be remote, for the kill victim
     * and its adopters, and for stretches of fewer than degree + 3
     * processors. Produces bit-identical stats to the naive walk (it
     * counts exactly what the naive walk counts, and simulated time is
     * derived from the counts).
     */
    bool fastInner = true;
    /**
     * Deterministic machine-fault injection (see numa/fault_model.h).
     * Off by default; when armed, recovery work is charged to the
     * simulated clock and counted in the ProcStats fault counters, but
     * executed values and all fault-free counters are unchanged.
     */
    FaultOptions faults;
    /** Retry protocol used to recover from injected faults. */
    RetryPolicy retry;
    /**
     * Trace sink (null = off, the default). When set, the simulator
     * records one span per outer-slice position per processor, stamped
     * from the simulated clock (derived from the integer counters at
     * outer boundaries, where every execution strategy agrees
     * bit-for-bit), plus instant events for recovery work and
     * fail-stop handling, and a slice summary span per
     * processor. Events are buffered per processor and merged in
     * processor order after the host-parallel section, so the trace is
     * byte-identical across hostThreads, fastInner, and the naive
     * walk. simulateOwnership() ignores this (the baseline has no
     * plan-driven structure worth a track).
     */
    obs::Trace *trace = nullptr;
    /** Process track to stamp simulator trace events with (one per
     * simulated run; see obs::Trace::process). */
    int64_t tracePid = 0;
    /**
     * Collect per-reference counters (ProcStats::localByRef /
     * remoteByRef / blockElementsByRef, SimStats::refNames). Off by
     * default: the hot path then sees only dead never-taken branches --
     * no atomics, no allocation.
     */
    bool perReference = false;
    /**
     * Collect the origin->owner communication matrix (ProcStats::comm
     * sparse rows, assembled by numa::buildCommMatrix; see
     * obs/comm_matrix.h). Off by default with the per-reference
     * discipline: the hot path then sees only never-taken branches --
     * no map, no allocation. When on, the wrapped closed-form paths
     * additionally enumerate the owner residue cycle (bounded by what
     * the naive walk pays per inner run), and wrapped references under
     * armed message faults take the incremental walk so per-owner fault
     * outcomes attribute exactly as the naive walk's; counters -- and
     * the matrix -- stay bit-identical across hostThreads, fastInner
     * and injected faults. simulateOwnership() ignores this (the
     * baseline's traffic structure is the guard sweep, not a plan).
     */
    bool commMatrix = false;
    /**
     * Symmetry-class aggregation (see numa/symmetry.h): simulate one
     * representative per processor-equivalence class and replicate its
     * stats analytically, making wall time and memory O(#classes)
     * instead of O(P). Auto aggregates only above symmetryThreshold
     * processors (so small runs keep the exhaustively-tested direct
     * path), Force aggregates whenever the plan allows, Off never
     * does. Value-executing and trip-count-unprovable runs always
     * fall back to direct simulation; results are bit-identical
     * either way.
     */
    SymmetryMode symmetry = SymmetryMode::Auto;
    /** Auto mode aggregates only when processors exceeds this. */
    Int symmetryThreshold = 64;
    /** Fall back to direct simulation past this many classes. */
    uint64_t maxSymmetryClasses = uint64_t(1) << 16;

    /** Reject degenerate huge-P configurations with actionable
     * messages (P not representable in the slice arithmetic, absurd
     * thresholds) instead of overflowing mid-run. */
    void validate() const;
};

/** Simulator for a planned SPMD execution of a transformed nest. */
class Simulator
{
  public:
    Simulator(const ir::Program &prog, const xform::TransformedNest &nest,
              const ExecutionPlan &plan, SimOptions opts);

    /**
     * Run with concrete parameter/scalar bindings. When
     * opts.executeValues is set, statements write into storage (which
     * must outlive the call); processors run one after another, which
     * is value-correct when the outer loop is parallel.
     */
    SimStats run(const ir::Bindings &binds,
                 ir::ArrayStorage *storage = nullptr) const;

    /** What a run did on one slice (see sliceTally). */
    struct SliceTally
    {
        /** Positions walked: every one, unless the slice is charged by
         * stretches (see SimOptions::fastInner) or, two deep, as one
         * middle run (none). */
        uint64_t walked = 0;
        /** Middle runs charged in closed form rather than walked (a
         * two-deep nest's slice is one middle run). */
        uint64_t closedRuns = 0;
    };

    /**
     * What a value-free run under these bindings does on processor p's
     * own slice: the positions it walks and the middle runs it charges
     * in closed form. Runs the slice to find out. For tests and
     * diagnostics.
     */
    SliceTally sliceTally(const ir::Bindings &binds, Int p = 0) const;

    /** What a run did across its simulated processors (see runTally). */
    struct RunTally
    {
        /** Processors whose own slice was walked (by whatever strategy
         * the slice allows). */
        uint64_t walked = 0;
        /** Processors charged by evaluation across processors: their
         * stats come from the polynomial a few walked neighbours fix
         * (see SimOptions::fastInner). */
        uint64_t evaluated = 0;
    };

    /**
     * What a value-free run under these bindings does across its
     * simulated processors (the class representatives of an aggregated
     * run): how many it walks and how many it charges by evaluation.
     * Runs the simulation to find out. For tests and diagnostics.
     */
    RunTally runTally(const ir::Bindings &binds) const;

  private:
    const ir::Program &prog_;
    const xform::TransformedNest &nest_;
    ExecutionPlan plan_;
    SimOptions opts_;

    struct Compiled; // per-run compiled representation

    /** run(), counting what it did into tally when set. */
    SimStats runWith(const ir::Bindings &binds, ir::ArrayStorage *storage,
                     RunTally *tally) const;

    /** Compile the nest against one binding; `values` when the run
     * executes statement values. */
    Compiled compile(const ir::Bindings &binds, bool values) const;

    /** Decide whether the run may charge middle runs in closed form
     * (Compiled::closedMiddle). `countersOnly` when the counters are the
     * whole state crossing positions (compile decides it). */
    void planClosedMiddle(Compiled &c, bool countersOnly) const;

    /** Build the wrapped references' owner progressions for the closed
     * middle runs (Compiled::ownerTables), once per run. */
    void buildOwnerTables(Compiled &c) const;

    /** Decide whether slices may be charged by stretches, up to the
     * per-slice step check (Compiled::stretches, outerMoves). */
    void planStretches(Compiled &c, bool countersOnly) const;

    /** Where bounds below level 0 read the outer variable: the outer
     * values at which stretches are cut (Compiled::cuts) and the moves
     * those bounds and their crossings must make, or false when the
     * slices are walked. */
    bool planCuts(Compiled &c) const;

    /** The outer values at which the middle run's pieces can change,
     * and the slope of every bound and crossing that shapes them
     * (Compiled::cuts, eventSlopes; three deep, unit lattice below
     * level 0), or false. findEvents finds them; eventCuts, once per
     * run. */
    bool eventCuts(Compiled &c) const;
    bool findEvents(Compiled &c) const;

    /** Decide whether processors may be charged by evaluation across
     * processors (Compiled::across), up to the per-run cuts. */
    void planAcross(Compiled &c, bool countersOnly) const;

    struct Workspace; // a host thread's walk buffers, reused

    /** This host thread's workspace. */
    static Workspace &workspace();

    struct MiddleRun; // one middle run: where it starts, what it charges

    /** Whether a middle run of `trip` positions is charged in closed
     * form rather than walked. */
    bool worthSolving(const Compiled &c, uint64_t trip) const;

    /**
     * Work out in closed form what one middle run charges: fill run's
     * charges from its position and the walk state, or return false
     * when the run must be walked. Reads the walk state and writes only
     * run; the caller applies the charges. solveMiddleRun is its body,
     * which throws a private Decline where the run is walked.
     */
    bool planMiddleRun(const Compiled &c, Int p, MiddleRun &run) const;
    void solveMiddleRun(const Compiled &c, Int p, MiddleRun &run) const;

    /** One processor's share of the distributed outer loop. */
    struct OuterSlice
    {
        bool empty = true;
        Int start = 0, step = 1, hi = 0;
        bool clamp1 = false;      //!< also clamp loop level 1 (2D owner)
        Int clamp1Lo = 0, clamp1Hi = -1;

        /** Number of outer iterations in the slice, taken in 128 bits;
         * throws OverflowError when it leaves Int. */
        Int count() const
        {
            if (empty || step <= 0 || start > hi)
                return 0;
            Int span;
            if (!__builtin_sub_overflow(hi, start, &span) &&
                span / step < INT64_MAX)
                return span / step + 1; // 64 bits suffice
            return narrow128((Int128(hi) - start) / step + 1);
        }
    };

    /** Processor p's slice of the distributed outer loop under the
     * plan's partition scheme (empty when p has no work). */
    OuterSlice outerSlice(const Compiled &c, Int p) const;

    /** The step of every non-empty slice, in 128 bits: s * P round
     * robin, lcm(s, P) owner-wrapped and s under the block schemes,
     * where s is the outer lattice stride. */
    Int128 sliceStep() const;

    /** Whether the positions fromIdx, fromIdx + idxStep, ... of the
     * slice are charged by stretches: the run allows it, some position
     * would be summed rather than walked, and the step moves every form
     * of outerMoves by a multiple of P. If so, bounds holds the
     * stretches' first positions, then the number of positions. */
    bool stretchBounds(const Compiled &c, const OuterSlice &slice,
                       Int fromIdx, Int idxStep, uint64_t positions,
                       std::vector<uint64_t> &bounds) const;

    /** Where a run of `count` consecutive processors from `first`,
     * whose slices hold the same number of positions and start `slice`
     * (the first's) plus Compiled::acrossStep per processor, is cut into
     * stretches on which every counter is a polynomial in the processor:
     * offsets in (0, count) appended to cuts, or false when the run is
     * walked. */
    bool acrossCuts(const Compiled &c, Int first, const OuterSlice &slice,
                    uint64_t count, std::vector<uint64_t> &cuts) const;

    /** Plan symmetry classes for this run (see numa/symmetry.h);
     * !usable when the structure cannot be bounded and the run must
     * fall back to direct simulation. */
    SymmetryPlan planClasses(const Compiled &c) const;

    /**
     * Walk outer-slice positions fromIdx, fromIdx + idxStep, ... up to
     * (excluding) toIdx of `slice`, charging `stats` as processor `p`.
     * Used both for a processor's own slice (step 1) and for the
     * round-robin share of slices adopted from a dead one. `storage`
     * receives statement values when the run executes them (else null),
     * under `binds`. When `events` is set, one trace span named
     * `spanName` is recorded per position, stamped from the simulated
     * clock. `tally`, when set, counts what the walk did (sliceTally).
     */
    void runSlice(const Compiled &c, Int p, const OuterSlice &slice,
                  Int fromIdx, Int toIdx, Int idxStep, ProcStats &stats,
                  ir::ArrayStorage *storage, const ir::Bindings &binds,
                  std::vector<obs::TraceEvent> *events = nullptr,
                  const char *spanName = "outer",
                  SliceTally *tally = nullptr) const;
};

/**
 * Sequential baseline: the whole nest on one processor, all accesses
 * local. Equals run() with P = 1 for any plan.
 */
double sequentialTime(const ir::Program &prog,
                      const xform::TransformedNest &nest,
                      const MachineParams &machine, const IntVec &params);

/**
 * The ownership-rule baseline of Section 2: every processor scans the
 * ENTIRE original iteration space, evaluates the guard, and executes
 * the statement body only for iterations whose left-hand side it owns.
 * Reads of remote data are element-wise remote accesses.
 *
 * Ignores SimOptions::faults: the baseline exists to measure the
 * untransformed program's traffic, and injecting faults into it would
 * not exercise any recovery machinery the paper's compiler emits.
 */
SimStats simulateOwnership(const ir::Program &prog, const SimOptions &opts,
                           const ir::Bindings &binds);

} // namespace anc::numa

#endif // ANC_NUMA_SIMULATOR_H
