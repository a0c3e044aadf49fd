#include "numa/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "numa/congruent.h"
#include "numa/piece_cuts.h"
#include "numa/stretch.h"
#include "numa/thread_pool.h"
#include "ratmath/fault.h"

namespace anc::numa {

void
SimOptions::validate() const
{
    if (processors <= 0)
        throw UserError("processor count must be positive");
    // The slice arithmetic multiplies p by the outer stride in checked
    // 64-bit math; past 2^40 processors even trivial strides overflow,
    // so reject the configuration with a diagnosis instead of failing
    // mid-run with a bare OverflowError.
    constexpr Int kMaxProcessors = Int(1) << 40;
    if (processors > kMaxProcessors)
        throw UserError(
            "processor count " + std::to_string(processors) +
            " is not representable in the slice arithmetic (maximum " +
            std::to_string(kMaxProcessors) +
            "); simulate a smaller machine");
    if (hostThreads < 0)
        throw UserError("hostThreads must be non-negative");
    if (symmetryThreshold < 0)
        throw UserError("symmetryThreshold must be non-negative");
    if (maxSymmetryClasses == 0)
        throw UserError("maxSymmetryClasses must be positive");
}

namespace {

constexpr int kNoHoist = -2;

/** The counters a ProcAccum carries, for stretch charging. */
constexpr uint64_t ProcAccum::*kAccumFields[] = {
    &ProcAccum::iterations,     &ProcAccum::flops,
    &ProcAccum::localAccesses,  &ProcAccum::remoteAccesses,
    &ProcAccum::blockTransfers, &ProcAccum::blockElements,
    &ProcAccum::guardChecks,    &ProcAccum::syncs};

/** The same counters in ProcStats, for evaluation across processors. */
constexpr uint64_t ProcStats::*kStatFields[] = {
    &ProcStats::iterations,     &ProcStats::flops,
    &ProcStats::localAccesses,  &ProcStats::remoteAccesses,
    &ProcStats::blockTransfers, &ProcStats::blockElements,
    &ProcStats::guardChecks,    &ProcStats::syncs};

/** One distribution-dimension subscript of a compiled reference. */
struct DistSub
{
    size_t form = 0; //!< index into Compiled::forms
    /** Exact change per innermost iteration (0 when the subscript does
     * not mention the innermost variable). */
    Int innerDelta = 0;
};

/** A variable's coefficient in one compiled form (Compiled::formsOf). */
struct FormTerm
{
    size_t form;
    Int coeff;
};

/**
 * How a reference can be charged across one full innermost-loop run
 * (between two hoist/ownership boundaries, in the paper's terms).
 */
enum class InnerKind : uint8_t
{
    Invariant, //!< owner constant across the run: one closed-form charge
    Wrapped,   //!< wrapped 1-D owner, periodic in the iteration number:
               //!< charged by counting congruent iterations
    Stepped,   //!< owner varies non-periodically (blocked/2-D blocks):
               //!< walk iterations, advancing subscripts incrementally
    Reeval,    //!< per-iteration delta not integral: re-evaluate (never
               //!< the case between consecutive lattice points)
};

/** One compiled array reference. */
struct RefEval
{
    size_t arrayId;
    bool isWrite;
    /** A hoisted read whose remote elements arrive by block transfer
     * (SimOptions::blockTransfers). */
    bool byBlocks = false;
    int hoistLevel = kNoHoist;
    size_t globalIdx = 0;  //!< index into the per-run lastKey table
    size_t coordBase = 0;  //!< offset into the per-run coordinate buffer
    /** Compiled distribution-dimension subscripts in spec().dims order;
     * empty for replicated arrays (always local). */
    std::vector<DistSub> distSubs;
    InnerKind innerKind = InnerKind::Invariant;
    /** Owner counting along the innermost run (Wrapped only): the
     * first distribution subscript's step modulo the processor count. */
    CongruentStepper stepper;
};

/** One compiled statement: reads in rhs order, then the write. */
struct StmtEval
{
    size_t flops = 0;
    std::vector<RefEval> refs;
};

/**
 * One piece of a middle run (see Simulator::planMiddleRun): the
 * positions t = t0 + stride * s, s in [0, len), at each of which the
 * inner run is non-empty, starts at inner lattice index
 * first + firstStep * s and makes trips + tripStep * s iterations.
 */
struct RunPiece
{
    uint64_t t0 = 0, stride = 1, len = 0;
    Int128 first = 0, firstStep = 0;
    Int128 trips = 0, tripStep = 0;
    /** The owner slot of the lower bound that holds on the piece (see
     * OwnerTable). */
    size_t slot = 1;
};

/** What one reference is charged over a middle run. */
struct RefCharge
{
    uint64_t local = 0, remote = 0;
    /** Positions with at least one remote element, and the last one. */
    uint64_t remotePositions = 0, lastPos = 0;
    /** Inner iterations from the run's start through its last remote
     * element (the hoist key an innermost-level hoist ends on). */
    uint64_t lastTick = 0;
    /** Where lastPos lies: its piece and its index there. */
    size_t lastPiece = 0;
    uint64_t lastS = 0;
};

/** One inner bound in lattice-index space: at middle position t it is
 * round((top + slope * t) / den), ceil for a lower bound, floor for an
 * upper one. */
struct InnerBound
{
    Int128 top, slope, den;
    bool lower;
    /** In one residue class t = r + M * tau: the rounded value at
     * tau = 0 and its exact change per tau. */
    Int128 base, perTau;
    size_t slot = 0; //!< owner slot of a lower bound (see OwnerTable)
};

/**
 * A wrapped reference's owner along one kind of middle-run piece: the
 * owner subscript at the start of position s of the piece is
 * a0 + v1 * s, so the run starts hit processor p where
 * a0 + a1 * s == p (mod P).
 */
struct OwnerSlot
{
    bool integral = false; //!< v1 integral; else the run is walked
    Int128 v1 = 0;
    Int a1 = 0;             //!< v1 mod P
    CongruentStepper along; //!< (a1, P); sumHits' `whole`
    CongruentStepper modG;  //!< (a1, gcd of the inner step and P)
};

/**
 * The owner slots of every wrapped reference for middle runs of one
 * step. Along a piece the owner subscript moves by
 * (coeff_mid * step * M + coeff_inner * stride * perTau) / den per
 * position, where M is the run's residue modulus and perTau the change
 * of the lower bound that holds on the piece: both depend on the step
 * and the nest only, so the slots are built once per run. Slot 0 is a
 * one-position piece (v1 = 0), slot 1 + L the L-th lower bound form of
 * the inner level, and the last slot the two-deep OwnerBlock2D clamp.
 */
struct OwnerTable
{
    Int128 step = 0;
    uint64_t residues = 0; //!< M of the run's residue classes; 0: none
    size_t perRef = 0;     //!< slots per reference
    std::vector<OwnerSlot> slots; //!< by globalIdx * perRef + slot
};

/**
 * A wrapped reference whose owner, modulo P, reads the middle variable
 * y with coefficient +-1 and not the inner one z, or z with coefficient
 * +-1 and y with an integral one (planAcross): the elements processor p
 * owns lie on the planes y = v + k * P, or z = tilt * y + v + k * P,
 * where v = sign * (p - the outer part of the subscript) moves by
 * `step` when p moves by one.
 */
struct AcrossRef
{
    size_t form = 0;  //!< the owner subscript (Compiled::forms)
    size_t level = 1; //!< the variable the plane fixes: 1 y, 2 z
    Int sign = 1;
    Int128 step = 0;
    Int128 tilt = 0; //!< level 2: the plane's slope in y
};

/** Thrown inside planMiddleRun when the run's geometry leaves 128 bits
 * or a value the walk would reject turns up: the run is walked. */
struct Decline
{};

} // namespace

struct Simulator::Compiled
{
    std::vector<StmtEval> stmts;
    std::vector<Distribution> dists;
    IntVec params;
    ir::LoopBounds bounds; //!< the nest's bounds under params
    size_t depth = 0;
    size_t numRefs = 0;
    size_t numCoords = 0; //!< total distribution coordinates, all refs
    CostRates rates;
    IntVec strides;          //!< lattice stride of each level
    bool unitLattice = true; //!< every stride 1: H = I, all anchors 0
    /**
     * Every distribution subscript and every bound of levels >= 1. The
     * fast walk keeps their 128-bit numerators current, adding
     * coeff * change whenever a loop variable moves.
     */
    std::vector<ir::CompiledAffine> forms;
    std::vector<std::vector<FormTerm>> formsOf; //!< per loop variable
    std::vector<std::vector<size_t>> lowerForms, upperForms; //!< per level
    /** Middle runs may be charged in closed form (planClosedMiddle),
     * and their inner bounds ignore the middle variable. */
    bool closedMiddle = false, fixedInner = false;
    /** Owner progressions of the closed-form middle runs, one table per
     * middle step the run takes (buildOwnerTables). */
    std::vector<OwnerTable> ownerTables;
    /**
     * Slices may be charged by stretches (planStretches): the walk's
     * counters at each position of a stretch are a polynomial in the
     * position, of degree stretchDegree -- 0 where no bound of a level
     * >= 1 reads the outer variable (every position runs the same
     * sub-walk), depth - 1 where they do (three deep only) -- once the
     * slice's step moves every form in outerMoves by a multiple of P.
     */
    bool stretches = false;
    size_t stretchDegree = 0;
    /** Positions a slice walks before its first stretch's samples: 1
     * where a read is hoisted above the nest, whose first remote
     * element starts a transfer no later position repeats, else 0. */
    size_t stretchLead = 0;
    /** Per form that must move by a multiple of P per position: its
     * change per unit of the outer variable, as (num, den * P). */
    std::vector<std::pair<Int128, Int128>> outerMoves;
    /** The outer values at which the middle run's piece structure can
     * change, and the slope of every bound and crossing that shapes the
     * pieces (eventCuts, once per run: eventState 1 when found, -1 when
     * the nest has none). */
    PieceCuts events;
    int eventState = 0;
    /**
     * Processors may be charged by evaluation across processors
     * (planAcross): moving the processor index by one moves each
     * position of its slice by acrossStep, and between the cuts
     * acrossCuts places (where those positions cross cuts, and where the
     * owner planes of acrossRefs meet the bounds) every counter of a
     * processor's stats is a polynomial of degree acrossDegree in the
     * index.
     */
    bool across = false;
    size_t acrossDegree = 0;
    Int acrossStep = 1;
    /** The references whose owner planes move with the processor, and
     * a range holding every middle ([0]) and inner ([1]) value of the
     * run. */
    std::vector<AcrossRef> acrossRefs;
    Int128 boxLo[2] = {0, 0}, boxHi[2] = {0, 0};
    /** Each reference's owner twin (by globalIdx): the first reference
     * with the same owner function, a wrapped one on the same P with an
     * identical distribution subscript and inner kind, or itself. */
    std::vector<size_t> ownerTwin;
    /**
     * The outer loop's lattice range, derived once per run: its lowest
     * point base (lattice stride s) in [lo, hi], and for OwnerWrapped
     * partitioning the data of the alignment u == base (mod s),
     * u == p (mod P): base mod s, g = gcd(s, P), P / g and the
     * inverse of s / g modulo P / g (see outerSlice).
     */
    bool outerEmpty = true;
    Int outerLo = 0, outerHi = 0, outerBase = 0;
    Int128 sliceStep = 1; //!< of every non-empty slice, in 128 bits
    Int alignRem = 0, alignGcd = 1, alignModG = 1, alignInv = 0;
    IntVec origin; //!< the all-zero point (level 0 bounds read none of it)
};

/**
 * One middle run: its position and the walk state it starts from (in),
 * and what planMiddleRun charges for it (out). A host thread reuses one
 * (Workspace), so its vectors stop allocating after the first run.
 */
struct Simulator::MiddleRun
{
    size_t mid = 0;     //!< level of the middle loop
    Int first = 0;      //!< middle variable at position 0
    Int128 step = 0;    //!< its change per position
    uint64_t trip = 0;  //!< positions
    Int anchor = 0;     //!< lattice anchor of the inner level
    bool clamp = false; //!< two-deep OwnerBlock2D clamp of the inner level
    Int clampLo = 0, clampHi = 0;
    /** The walk's point and the numerators of Compiled::forms there. */
    const IntVec *u = nullptr;
    const std::vector<Int128> *num = nullptr;

    uint64_t iterations = 0;
    std::vector<RefCharge> refs; //!< by RefEval::globalIdx
    std::vector<RunPiece> pieces;
    std::vector<InnerBound> bounds;
};

/**
 * The walk's scratch buffers, one set per host thread, reused across
 * slices and runs: the loop point, lattice coordinates, ticks, hoist
 * keys, numerators and the middle run, plus the stretch snapshots.
 */
struct Simulator::Workspace
{
    IntVec u, y, coords;
    std::vector<uint64_t> ticks, lastKey;
    std::vector<Int128> num;
    MiddleRun run;
    /** Stretch charging: the stretches' bounds, and the state after
     * each walked position of one stretch. */
    std::vector<uint64_t> bounds, states;
    /** Evaluation across processors, on the calling thread: the
     * evaluated processors' states and the difference table. */
    std::vector<uint64_t> values;
    std::vector<Int128> diffs;
};

Simulator::Workspace &
Simulator::workspace()
{
    static thread_local Workspace ws;
    return ws;
}

Simulator::Simulator(const ir::Program &prog,
                     const xform::TransformedNest &nest,
                     const ExecutionPlan &plan, SimOptions opts)
    : prog_(prog), nest_(nest), plan_(plan), opts_(std::move(opts))
{
    opts_.validate();
    opts_.machine.validate();
    opts_.retry.validate();
    opts_.faults.validate();

    // A degraded compilation may hand over a plan assembled from
    // partial analysis results; reject an inconsistent one up front
    // rather than faulting mid-run.
    if (plan_.scheme != PartitionScheme::RoundRobin) {
        if (!plan_.alignedArray)
            throw UserError("owner-computes partition scheme requires "
                            "an aligned array");
        if (*plan_.alignedArray >= prog_.arrays.size())
            throw UserError("plan aligned with array " +
                            std::to_string(*plan_.alignedArray) +
                            " but the program declares only " +
                            std::to_string(prog_.arrays.size()));
    }
    const std::vector<ir::Statement> &body = prog_.nest.body();
    for (const BlockHoist &h : plan_.hoists) {
        if (h.stmt >= body.size())
            throw UserError("block hoist names statement " +
                            std::to_string(h.stmt) + " of " +
                            std::to_string(body.size()));
        size_t reads = 0;
        body[h.stmt].rhs.forEachRef([&](const ir::ArrayRef &) { ++reads; });
        if (h.readIdx >= reads)
            throw UserError("block hoist names read " +
                            std::to_string(h.readIdx) + " of " +
                            std::to_string(reads) + " in statement " +
                            std::to_string(h.stmt));
        if (h.level < -1 || h.level >= int(prog_.nest.depth()))
            throw UserError("block hoist level " +
                            std::to_string(h.level) +
                            " outside the nest depth " +
                            std::to_string(prog_.nest.depth()));
    }
}

Simulator::OuterSlice
Simulator::outerSlice(const Compiled &c, Int p) const
{
    OuterSlice os;
    if (c.outerEmpty)
        return os;
    Int lo = c.outerLo, hi = c.outerHi;
    Int s = nest_.lattice().stride(0);
    Int base = c.outerBase;
    Int start = base;
    Int block_lo = lo, block_hi = hi;

    switch (plan_.scheme) {
      case PartitionScheme::RoundRobin:
        start = checkedAdd(base, checkedMul(p, s));
        break;
      case PartitionScheme::OwnerWrapped: {
        // u == anchor (mod s) and u == p (mod P): the Diophantine
        // alignment of Section 7 (unit-step loops reduce to the paper's
        // ceil((lb - p)/P)*P + p formula), as combineCongruences solves
        // it, from the gcd and inverse compile() took once per run.
        const Int diff = checkedSub(p, c.alignRem);
        if (diff % c.alignGcd != 0)
            return os; // this processor owns no iteration
        const Int lcm = checkedMul(s / c.alignGcd, opts_.processors);
        const Int t = euclidMod(
            narrow128(Int128(diff / c.alignGcd) * Int128(c.alignInv)),
            c.alignModG);
        const Int rem =
            euclidMod(checkedAdd(c.alignRem, checkedMul(s, t)), lcm);
        start = checkedAdd(lo, euclidMod(checkedSub(rem, lo), lcm));
        break;
      }
      case PartitionScheme::OwnerBlock2D: {
        if (!plan_.alignedArray)
            throw InternalError("OwnerBlock2D without aligned array");
        const Distribution &d = c.dists[*plan_.alignedArray];
        Int pr = p / d.gridCols();
        Int pc = p % d.gridCols();
        Int bs0 = d.blockSize(0), bs1 = d.blockSize(1);
        block_lo = std::max(lo, checkedMul(pr, bs0));
        block_hi = std::min(hi, checkedSub(checkedMul(pr + 1, bs0), 1));
        if (pr == d.gridRows() - 1)
            block_hi = hi; // last grid row absorbs the remainder
        if (block_lo > block_hi)
            return os;
        start = checkedAdd(block_lo,
                           euclidMod(checkedSub(base, block_lo), s));
        hi = block_hi;
        // Second-level clamp for 2-D block partitioning (lo, hi); hi
        // may be the sentinel max when the last grid column absorbs
        // the remainder.
        os.clamp1 = true;
        os.clamp1Lo = checkedMul(pc, bs1);
        os.clamp1Hi = pc == d.gridCols() - 1
                          ? std::numeric_limits<Int>::max()
                          : checkedSub(checkedMul(pc + 1, bs1), 1);
        break;
      }
      case PartitionScheme::OwnerBlocked: {
        if (!plan_.alignedArray)
            throw InternalError("OwnerBlocked without aligned array");
        const Distribution &d = c.dists[*plan_.alignedArray];
        Int bs = d.blockSize();
        block_lo = std::max(lo, checkedMul(p, bs));
        block_hi = std::min(hi, checkedSub(checkedMul(p + 1, bs), 1));
        if (p == opts_.processors - 1)
            block_hi = hi; // last block absorbs the remainder
        if (block_lo > block_hi)
            return os;
        start = checkedAdd(block_lo,
                           euclidMod(checkedSub(base, block_lo), s));
        hi = block_hi;
        break;
      }
    }

    os.empty = false;
    os.start = start;
    os.step = narrow128(c.sliceStep);
    os.hi = hi;
    Int span;
    if (os.step <= 0 || start > hi)
        os.positions = 0;
    else if (!__builtin_sub_overflow(hi, start, &span) &&
             span / os.step < INT64_MAX)
        os.positions = span / os.step + 1; // 64 bits suffice
    else
        os.positions = narrow128((Int128(hi) - start) / os.step + 1);
    return os;
}

SymmetryPlan
Simulator::planClasses(const Compiled &c, Int victimRemaining) const
{
    SymmetryInput in;
    in.processors = opts_.processors;
    in.scheme = plan_.scheme;
    in.maxClasses = opts_.maxSymmetryClasses;

    // The outer lattice range, as outerSlice reads it.
    if (!c.outerEmpty && c.outerBase <= c.outerHi) {
        const Int s = nest_.lattice().stride(0);
        in.outerEmpty = false;
        in.outerStart = c.outerBase;
        in.outerStep = s;
        in.outerCount = narrow128((Int128(c.outerHi) - c.outerBase) / s + 1);
    }
    if (plan_.alignedArray) {
        const Distribution &d = c.dists[*plan_.alignedArray];
        in.blockSize = d.blockSize(0);
        in.gridRows = d.gridRows();
        in.gridCols = d.gridCols();
    }

    const FaultOptions &f = opts_.faults;
    if (f.killProc >= 0 && f.killProc < opts_.processors) {
        // Fail-stop kills break the translation symmetry: the victim
        // and every potential adopter of its redistributed positions
        // must stay singletons (the planner handles the split).
        in.killVictim = f.killProc;
        if (victimRemaining > 0 && plan_.outerParallel &&
            opts_.processors > 1)
            in.killAdopterBound =
                std::min(opts_.processors, victimRemaining + 1);
    } else {
        in.mergeable =
            checkTranslationMerge(prog_, nest_, plan_, opts_.processors)
                .mergeable;
    }
    return planSymmetryClasses(in);
}

namespace {

/** Run-geometry arithmetic (see int_util.h): a result past 128 bits
 * declines the run. */
Int128
geoMul(Int128 a, Int128 b)
{
    Int128 r;
    if (mulOverflow128(a, b, &r))
        throw Decline{};
    return r;
}

Int128
geoAdd(Int128 a, Int128 b)
{
    Int128 r;
    if (__builtin_add_overflow(a, b, &r))
        throw Decline{};
    return r;
}

/** Sum of c0 + c1 * s over s in [0, n). */
Int128
affineSum(Int128 c0, Int128 c1, uint64_t n)
{
    if (n == 0)
        return 0;
    return CongruentStepper::sumAffine({n, n - 1}, 1, c0, c1);
}

Int
coeffOf(const ir::CompiledAffine &f, size_t k)
{
    return k < f.num.size() ? f.num[k] : 0;
}

/**
 * The residue modulus M of a middle run of `trip` positions: along
 * t = r + M * tau every bound is exactly affine in tau once M clears
 * each bound's denominator from its slope. Past the trip count every
 * class holds one position (M = trip, slopes unused).
 */
uint64_t
residueModulus(const std::vector<InnerBound> &bounds, uint64_t trip)
{
    Int128 mres = 1;
    for (const InnerBound &b : bounds) {
        if (b.den == 1 || b.slope == 0)
            continue;
        Int128 need = b.den / gcd128(b.slope, b.den);
        Int128 g = gcd128(mres, need);
        if (need / g > Int128(trip) / mres)
            return trip;
        mres = mres / g * need;
    }
    return uint64_t(mres);
}

/** The progression of a wrapped owner subscript whose numerator (over
 * den) moves by n1 per piece position; steppers not yet built. */
OwnerSlot
ownerProgression(Int128 n1, Int den, Int procs)
{
    OwnerSlot o;
    const Int128 v1 = floorDiv128(n1, den);
    o.integral = v1 * den == n1;
    if (o.integral) {
        o.v1 = v1;
        o.a1 = mod128(v1, procs);
    }
    return o;
}

} // namespace

void
Simulator::buildOwnerTables(Compiled &c) const
{
    const size_t mid = c.depth - 2, in = c.depth - 1;
    const Int s = c.strides[in], procs = opts_.processors;
    // The middle steps runs take: the middle level's lattice stride or,
    // two deep, the step of a processor's slice and of the share of a
    // dead processor's slice each of the P - 1 survivors adopts. A run
    // of any other step finds no table and is walked.
    std::vector<Int128> steps;
    if (c.depth > 2) {
        steps.push_back(c.strides[mid]);
    } else {
        const Int128 own = c.sliceStep;
        steps.push_back(own);
        const FaultOptions &f = opts_.faults;
        if (f.killProc >= 0 && f.killProc < procs && procs > 1 &&
            plan_.outerParallel)
            steps.push_back(own * (procs - 1));
    }
    const std::vector<size_t> &lowers = c.lowerForms[in];
    for (Int128 step : steps) {
        OwnerTable t;
        t.step = step;
        t.perRef = lowers.size() + 2;
        t.slots.resize(c.numRefs * t.perRef);
        // Each lower slot's change per tau under the run's modulus, as
        // solveMiddleRun derives them (the clamp's is 0).
        std::vector<Int128> per_tau(t.perRef, 0);
        try {
            std::vector<InnerBound> bounds;
            for (bool lower : {true, false}) {
                const std::vector<size_t> &fs =
                    lower ? lowers : c.upperForms[in];
                for (size_t i = 0; i < fs.size(); ++i) {
                    const ir::CompiledAffine &f = c.forms[fs[i]];
                    bounds.push_back({0, geoMul(coeffOf(f, mid), step),
                                      geoMul(f.den, s), lower, 0, 0,
                                      lower ? 1 + i : 0});
                }
            }
            const uint64_t m = residueModulus(bounds, UINT64_MAX);
            if (m != UINT64_MAX) {
                for (const InnerBound &b : bounds)
                    if (b.lower)
                        per_tau[b.slot] =
                            floorDiv128(geoMul(b.slope, Int128(m)), b.den);
                t.residues = m;
            }
        } catch (const Decline &) {
            t.residues = 0; // only one-position pieces use the table
        }
        for (const StmtEval &se : c.stmts) {
            for (const RefEval &r : se.refs) {
                if (r.distSubs.empty() || c.dists[r.arrayId].spec().kind !=
                                              ir::DistKind::Wrapped)
                    continue;
                const ir::CompiledAffine &f0 = c.forms[r.distSubs[0].form];
                const bool moving = r.innerKind == InnerKind::Wrapped &&
                                    r.stepper.period() > 1;
                const size_t g = r.globalIdx;
                OwnerSlot *row = &t.slots[g * t.perRef];
                row[0] = ownerProgression(0, f0.den, procs);
                for (size_t k = 1; k < t.perRef && t.residues != 0; ++k) {
                    try {
                        row[k] = ownerProgression(
                            geoAdd(geoMul(geoMul(coeffOf(f0, mid), step),
                                          Int128(t.residues)),
                                   geoMul(Int128(coeffOf(f0, in)) * s,
                                          per_tau[k])),
                            f0.den, procs);
                    } catch (const Decline &) {
                        // Not integral: a piece of this slot is walked.
                    }
                }
                // One stepper pair per distinct a1 of the reference.
                auto built = [&](const OwnerTable &u, size_t upto,
                                 OwnerSlot &o) {
                    for (size_t k = 0; k < upto; ++k) {
                        const OwnerSlot &b = u.slots[g * u.perRef + k];
                        if (b.integral && b.a1 == o.a1) {
                            o.along = b.along;
                            o.modG = b.modG;
                            return true;
                        }
                    }
                    return false;
                };
                for (size_t k = 0; k < t.perRef; ++k) {
                    OwnerSlot &o = row[k];
                    if (!o.integral)
                        continue;
                    bool reused = built(t, k, o);
                    for (const OwnerTable &u : c.ownerTables)
                        reused = reused || built(u, u.perRef, o);
                    if (reused)
                        continue;
                    o.along = CongruentStepper(o.a1, procs);
                    if (moving)
                        o.modG = CongruentStepper(o.a1, r.stepper.gcd());
                }
            }
        }
        c.ownerTables.push_back(std::move(t));
    }
}

bool
Simulator::worthSolving(const Compiled &c, uint64_t trip) const
{
    // Short runs cost less to walk than to solve: the plan search's
    // small nests have middle runs of one to five positions. Solve from
    // three positions on and, where the inner bounds move with the
    // middle variable, from as many positions as inner bound forms
    // (each a potential piece).
    const size_t in = c.depth - 1;
    return c.closedMiddle && trip >= 3 &&
           (c.fixedInner ||
            trip >= c.lowerForms[in].size() + c.upperForms[in].size());
}

bool
Simulator::planMiddleRun(const Compiled &c, Int p, MiddleRun &run) const
{
    try {
        solveMiddleRun(c, p, run);
    } catch (const Decline &) {
        return false;
    }
    return true;
}

void
Simulator::solveMiddleRun(const Compiled &c, Int p, MiddleRun &run) const
{
    const size_t mid = run.mid, in = c.depth - 1;
    const Int s = c.strides[in];
    const uint64_t trip = run.trip;
    const IntVec &u = *run.u;
    const std::vector<Int128> &num = *run.num;
    // The middle variable is first + step * t at position t, and the
    // numerators describe u, so a form's numerator there is
    // num + coeff * (shift + step * t).
    const Int128 shift = Int128(run.first) - u[mid];

    run.pieces.clear();
    uint64_t M = 1; // the residue modulus of the pieces
    if (c.fixedInner) {
        // Every position runs the same inner run: one piece, or none.
        if (c.lowerForms[in].empty() || c.upperForms[in].empty())
            throw Decline{}; // the walk reports the malformed loop
        Int lo = INT64_MIN, hi = INT64_MAX;
        for (size_t f : c.lowerForms[in])
            lo = std::max(lo, c.forms[f].ceilOf(num[f]));
        for (size_t f : c.upperForms[in])
            hi = std::min(hi, c.forms[f].floorOf(num[f]));
        if (run.clamp) {
            lo = std::max(lo, run.clampLo);
            hi = std::min(hi, run.clampHi);
        }
        const Int128 k_lo = ceilDiv128(Int128(lo) - run.anchor, s);
        const Int128 k_hi = floorDiv128(Int128(hi) - run.anchor, s);
        if (k_lo <= k_hi) {
            RunPiece pc;
            pc.len = trip;
            pc.first = k_lo;
            pc.trips = k_hi - k_lo + 1;
            run.pieces.push_back(pc);
        }
    } else {
        // The inner bounds. The walk narrows each to 64 bits at every
        // position; each is monotone in t, so checking both ends suffices.
        const Int128 last_shift =
            geoAdd(shift, geoMul(run.step, Int128(trip - 1)));
        run.bounds.clear();
        auto add_bound = [&](Int128 at0, Int128 at_last, Int128 slope,
                             Int den, bool lower, size_t slot) {
            // ceil(v / den) fits Int iff den * (MIN - 1) < v <= den * MAX;
            // floor(v / den) iff den * MIN <= v < den * (MAX + 1).
            const Int128 lo_end = Int128(den) * INT64_MIN - (lower ? den : 0);
            const Int128 hi_end = Int128(den) * INT64_MAX + (lower ? 0 : den);
            auto fits = [&](Int128 v) {
                return lower ? v > lo_end && v <= hi_end
                             : v >= lo_end && v < hi_end;
            };
            if (!fits(at0) || !fits(at_last))
                throw Decline{};
            run.bounds.push_back({geoAdd(at0, -geoMul(run.anchor, den)),
                                  slope, geoMul(den, s), lower, 0, 0, slot});
        };
        for (bool lower : {true, false}) {
            const std::vector<size_t> &forms =
                lower ? c.lowerForms[in] : c.upperForms[in];
            if (forms.empty())
                throw Decline{}; // the walk reports the malformed loop
            for (size_t i = 0; i < forms.size(); ++i) {
                const size_t f = forms[i];
                const Int cm = coeffOf(c.forms[f], mid);
                add_bound(geoAdd(num[f], geoMul(cm, shift)),
                          geoAdd(num[f], geoMul(cm, last_shift)),
                          geoMul(cm, run.step), c.forms[f].den, lower,
                          lower ? 1 + i : 0);
            }
        }
        if (run.clamp) {
            const size_t slot = 1 + c.lowerForms[in].size();
            add_bound(run.clampLo, run.clampLo, 0, 1, true, slot);
            add_bound(run.clampHi, run.clampHi, 0, 1, false, 0);
        }
        M = residueModulus(run.bounds, trip);
        const Int128 mres = M;

        // Sweep each residue class into pieces: the lower bound is the max
        // of its forms, the upper the min, so each stays one affine form
        // until another with a steeper slope overtakes it; within that
        // stretch the trip count is affine and positive on one interval.
        for (InnerBound &b : run.bounds)
            b.perTau =
                M == trip ? 0 : floorDiv128(geoMul(b.slope, mres), b.den);
        for (uint64_t r = 0; r < M; ++r) {
            const uint64_t tr = (trip - 1 - r) / M + 1;
            for (InnerBound &b : run.bounds) {
                Int128 x = geoAdd(b.top, geoMul(b.slope, Int128(r)));
                b.base = b.lower ? ceilDiv128(x, b.den) : floorDiv128(x, b.den);
            }
            uint64_t tau = 0;
            while (tau < tr) {
                auto at = [tau](const InnerBound &b) {
                    return b.base + b.perTau * Int128(tau);
                };
                const InnerBound *lo = nullptr, *hi = nullptr;
                for (const InnerBound &b : run.bounds) {
                    const InnerBound *&w = b.lower ? lo : hi;
                    if (!w) {
                        w = &b;
                        continue;
                    }
                    // Ties go to the steeper form, which stays ahead longer.
                    Int128 vb = at(b), vw = at(*w);
                    bool wins =
                        b.lower
                            ? vb > vw || (vb == vw && b.perTau > w->perTau)
                            : vb < vw || (vb == vw && b.perTau < w->perTau);
                    if (wins)
                        w = &b;
                }
                uint64_t end = tr;
                for (const InnerBound &b : run.bounds) {
                    const InnerBound &w = b.lower ? *lo : *hi;
                    Int128 gap = b.lower ? at(w) - at(b) : at(b) - at(w);
                    Int128 gain = b.lower ? b.perTau - w.perTau
                                          : w.perTau - b.perTau;
                    if (gain <= 0)
                        continue;
                    Int128 cross = Int128(tau) + floorDiv128(gap, gain) + 1;
                    if (cross < Int128(end))
                        end = uint64_t(cross);
                }
                const Int128 k0 = at(*lo), c0 = at(*hi) - k0 + 1;
                const Int128 c1 = hi->perTau - lo->perTau;
                Int128 from = 0, to = end - tau;
                if (c0 < 1 && c1 <= 0)
                    to = 0;
                else if (c0 < 1)
                    from = ceilDiv128(1 - c0, c1);
                else if (c1 < 0)
                    to = std::min(to, floorDiv128(c0 - 1, -c1) + 1);
                if (from < to) {
                    RunPiece pc;
                    pc.t0 = r + M * (tau + uint64_t(from));
                    pc.stride = M;
                    pc.len = uint64_t(to - from);
                    pc.first = k0 + lo->perTau * from;
                    pc.firstStep = lo->perTau;
                    pc.trips = c0 + c1 * from;
                    pc.tripStep = c1;
                    pc.slot = lo->slot;
                    run.pieces.push_back(pc);
                }
                tau = end;
            }
        }
    }

    Int128 total = 0;
    for (const RunPiece &pc : run.pieces)
        total = addCount128(total, affineSum(pc.trips, pc.tripStep, pc.len));
    if (total > Int128(UINT64_MAX))
        anc::detail::throwLimit("simulator counter exceeds 2^64-1");
    run.iterations = uint64_t(total);
    // Inner iterations at the positions before t.
    auto before = [&](uint64_t t) {
        Int128 sum = 0;
        for (const RunPiece &pc : run.pieces)
            if (t > pc.t0)
                sum += affineSum(
                    pc.trips, pc.tripStep,
                    std::min(pc.len, (t - pc.t0 - 1) / pc.stride + 1));
        return uint64_t(sum);
    };

    run.refs.assign(c.numRefs, RefCharge{});
    if (run.pieces.empty())
        return;
    const Int procs = opts_.processors;
    const OwnerTable *tab = nullptr;
    for (const OwnerTable &t : c.ownerTables)
        if (t.step == run.step)
            tab = &t;
    for (const StmtEval &se : c.stmts) {
        for (const RefEval &r : se.refs) {
            RefCharge &q = run.refs[r.globalIdx];
            if (r.distSubs.empty()) {
                q.local = run.iterations; // replicated: always local
                continue;
            }
            const Distribution &dist = c.dists[r.arrayId];
            const bool wrapped = dist.spec().kind == ir::DistKind::Wrapped;
            // A non-wrapped owner is the same at every element of the run
            // (Invariant) or moves with the inner variable only (Stepped):
            // charge one inner run and repeat it, since planClosedMiddle
            // keeps Stepped references to fixedInner runs, whose single
            // piece repeats one inner run.
            Int fixed_owner = -1;
            uint64_t step_local = 0, step_remote = 0, step_last = 0;
            if (!wrapped) {
                const Int128 w0 = geoAdd(run.anchor,
                                         geoMul(s, run.pieces[0].first));
                Int coord[2] = {0, 0};
                for (size_t d = 0; d < r.distSubs.size(); ++d) {
                    const ir::CompiledAffine &f = c.forms[r.distSubs[d].form];
                    coord[d] = f.valueOf(geoAdd(
                        num[r.distSubs[d].form],
                        geoMul(coeffOf(f, in), w0 - u[in])));
                }
                if (r.innerKind == InnerKind::Stepped) {
                    const RunPiece &pc = run.pieces[0];
                    for (uint64_t j = 0; j < uint64_t(pc.trips); ++j) {
                        Int own = dist.ownerOfDistCoords(coord[0], coord[1]);
                        if (own < 0 || own == p) {
                            ++step_local;
                        } else {
                            ++step_remote;
                            step_last = j;
                        }
                        for (size_t d = 0; d < r.distSubs.size(); ++d)
                            coord[d] += r.distSubs[d].innerDelta;
                    }
                } else {
                    fixed_owner = dist.ownerOfDistCoords(coord[0], coord[1]);
                }
            }
            const bool moving = wrapped && r.innerKind == InnerKind::Wrapped &&
                                r.stepper.period() > 1;
            // A wrapped owner at the start of each inner run: a0 + a1 * s
            // (a1 reduced modulo P) over the piece's positions.
            const ir::CompiledAffine &f0 = c.forms[r.distSubs[0].form];
            const Int cm = coeffOf(f0, mid), ci = coeffOf(f0, in);
            Int128 base = 0;
            if (wrapped)
                base = geoAdd(geoAdd(num[r.distSubs[0].form],
                                     geoMul(cm, shift)),
                              geoMul(ci, Int128(run.anchor) - u[in]));
            const Int128 gt = geoMul(cm, run.step), gk = Int128(ci) * s;
            // The owner's progression along a piece, from the run's
            // table. A piece of several positions has the table's
            // residue modulus: past the trip count every piece is one
            // position long.
            auto slot_of = [&](const RunPiece &pc) -> const OwnerSlot & {
                if (!tab || (pc.len > 1 && M != tab->residues))
                    throw Decline{}; // a step without a table is walked
                return tab->slots[r.globalIdx * tab->perRef +
                                  (pc.len == 1 ? 0 : pc.slot)];
            };
            // The owner subscript at the piece's first run start. The
            // walk evaluates it at every run start: it must be integral
            // and fit 64 bits there. 64-bit arithmetic where no step
            // overflows, 128-bit otherwise; the outcome is the same.
            auto start_owner = [&](const RunPiece &pc,
                                   const OwnerSlot &o) -> Int {
                if (!o.integral)
                    throw Decline{};
                Int v0, x, y, n0;
                if (fitsInt(base) && fitsInt(gt) && fitsInt(gk) &&
                    fitsInt(pc.first) && pc.t0 <= uint64_t(INT64_MAX) &&
                    !__builtin_mul_overflow(Int(gt), Int(pc.t0), &x) &&
                    !__builtin_mul_overflow(Int(gk), Int(pc.first), &y) &&
                    !__builtin_add_overflow(Int(base), x, &n0) &&
                    !__builtin_add_overflow(n0, y, &n0)) {
                    if (n0 % f0.den != 0)
                        throw Decline{};
                    v0 = n0 / f0.den;
                } else {
                    const Int128 n = geoAdd(
                        geoAdd(base, geoMul(gt, Int128(pc.t0))),
                        geoMul(gk, pc.first));
                    const Int128 v = floorDiv128(n, f0.den);
                    if (v * f0.den != n || !fitsInt(v))
                        throw Decline{};
                    v0 = Int(v);
                }
                if (!fitsInt(o.v1) || pc.len - 1 > uint64_t(INT64_MAX) ||
                    __builtin_mul_overflow(Int(o.v1), Int(pc.len - 1), &x) ||
                    __builtin_add_overflow(v0, x, &y)) {
                    if (!fitsInt(
                            geoAdd(v0, geoMul(o.v1, Int128(pc.len - 1)))))
                        throw Decline{};
                }
                return v0;
            };

            // An owner twin's charges are its leader's (Compiled::ownerTwin).
            const size_t twin = c.ownerTwin[r.globalIdx];
            if (twin != r.globalIdx) {
                q = run.refs[twin];
                q.lastTick = 0;
            }
            for (size_t i = 0; twin == r.globalIdx && i < run.pieces.size();
                 ++i) {
                const RunPiece &pc = run.pieces[i];
                Int128 local = 0;
                // Positions without a remote element, and whether the
                // piece's last position is one. Such positions are all
                // of the piece, none of it, one position or a
                // congruence class of period >= 2, so when the last one
                // has no remote element the one before it has.
                uint64_t clean = 0;
                bool last_clean = false;
                if (!wrapped) {
                    bool all_local = r.innerKind == InnerKind::Stepped
                                         ? step_remote == 0
                                         : fixed_owner < 0 ||
                                               fixed_owner == p;
                    local = r.innerKind == InnerKind::Stepped
                                ? Int128(pc.len) * step_local
                                : (all_local ? affineSum(pc.trips,
                                                         pc.tripStep, pc.len)
                                             : 0);
                    clean = all_local ? pc.len : 0;
                    last_clean = all_local;
                } else {
                    const OwnerSlot &o = slot_of(pc);
                    const Int a0 = start_owner(pc, o), a1 = o.a1;
                    CongruentCount starts = o.along.count(a0, pc.len, p);
                    if (!moving) {
                        local = CongruentStepper::sumAffine(
                            starts, o.along.period(), pc.trips, pc.tripStep);
                        clean = starts.hits;
                        last_clean = starts.hits > 0 &&
                                     starts.jLast == pc.len - 1;
                    } else if (a1 == 0 && pc.tripStep == 0) {
                        // Every position runs the same inner run.
                        uint64_t hits =
                            r.stepper.count(a0, uint64_t(pc.trips), p).hits;
                        local = Int128(hits) * pc.len;
                        if (pc.trips == 1 && hits == 1) {
                            clean = pc.len;
                            last_clean = true;
                        }
                    } else {
                        local = r.stepper.sumHits(a0, a1, pc.len, pc.trips,
                                                  pc.tripStep, p, o.along,
                                                  o.modG);
                        // Only a one-iteration run that starts on p.
                        if (pc.tripStep == 0) {
                            if (pc.trips == 1) {
                                clean = starts.hits;
                                last_clean = starts.hits > 0 &&
                                             starts.jLast == pc.len - 1;
                            }
                        } else if ((1 - pc.trips) % pc.tripStep == 0) {
                            Int128 at = (1 - pc.trips) / pc.tripStep;
                            if (at >= 0 && at < Int128(pc.len) &&
                                mod128(Int128(a0) + Int128(a1) * at,
                                       procs) == p) {
                                clean = 1;
                                last_clean = at == Int128(pc.len - 1);
                            }
                        }
                    }
                }
                q.local += uint64_t(local);
                if (clean == pc.len)
                    continue;
                q.remotePositions += pc.len - clean;
                uint64_t sl = last_clean ? pc.len - 2 : pc.len - 1;
                uint64_t t = pc.t0 + pc.stride * sl;
                // The first piece with a remote position, or a later one.
                if (q.remotePositions == pc.len - clean || t > q.lastPos) {
                    q.lastPos = t;
                    q.lastPiece = i;
                    q.lastS = sl;
                }
            }
            q.remote = run.iterations - q.local;
            if (q.remotePositions == 0 || !r.byBlocks ||
                r.hoistLevel != int(in))
                continue;
            // An innermost-level hoist ends on the key of the last remote
            // element: evaluate that position directly.
            const RunPiece &pc = run.pieces[q.lastPiece];
            const uint64_t last_s = q.lastS;
            const uint64_t trips =
                uint64_t(pc.trips + pc.tripStep * Int128(last_s));
            uint64_t j = trips - 1;
            if (!wrapped && r.innerKind == InnerKind::Stepped) {
                j = step_last;
            } else if (moving) {
                const OwnerSlot &o = slot_of(pc);
                const Int a0 = start_owner(pc, o), a1 = o.a1;
                Int a = mod128(Int128(a0) + Int128(a1) * last_s, procs);
                CongruentCount hit = r.stepper.count(a, trips, p);
                if (hit.hits > 0 && hit.jLast == trips - 1)
                    j = trips - 2;
            }
            q.lastTick = before(q.lastPos) + j + 1;
        }
    }
}

Simulator::SliceTally
Simulator::sliceTally(const ir::Bindings &binds, Int p) const
{
    if (binds.paramValues.size() != prog_.params.size())
        throw UserError("wrong number of parameter values");
    Compiled c = compile(binds, false);
    OuterSlice slice = outerSlice(c, p);
    ProcStats stats;
    SliceTally tally;
    runSlice(c, p, slice, 0, slice.count(), 1, stats, nullptr, binds,
             nullptr, "outer", &tally);
    return tally;
}

bool
Simulator::stretchBounds(const Compiled &c, const OuterSlice &slice,
                         Int fromIdx, Int idxStep, uint64_t positions,
                         std::vector<uint64_t> &bounds) const
{
    if (!c.stretches || positions < c.stretchDegree + c.stretchLead + 3)
        return false;
    const Int128 step = Int128(slice.step) * idxStep;
    for (const auto &[num, mod] : c.outerMoves) {
        Int128 moved;
        if (mulOverflow128(num, step, &moved) || moved % mod != 0)
            return false;
    }
    // A stretch starts at each position at or past a cut.
    const Int128 x0 = Int128(slice.start) + Int128(fromIdx) * slice.step;
    bounds.assign(1, 0);
    for (const auto &[num, den] : c.events.cuts) {
        Int128 x0d, at, per;
        if (mulOverflow128(x0, den, &x0d) ||
            __builtin_sub_overflow(num, x0d, &at) ||
            mulOverflow128(den, step, &per))
            return false;
        const Int128 j = ceilDiv128(at, per);
        if (j > Int128(bounds.back()) && j < Int128(positions))
            bounds.push_back(uint64_t(j));
    }
    bounds.push_back(positions);
    return true;
}

bool
Simulator::acrossCuts(const Compiled &c, Int first, const OuterSlice &slice,
                      uint64_t count, std::vector<uint64_t> &cuts) const
{
    // Processor first + q walks x_j(q) = start + j * step + d * q. Every
    // value below is an affine function h0 + h1 * q with integral
    // coefficients; a stretch of processors must not straddle a point
    // where a condition h(q) >= 0 changes (cut at the first q past it).
    constexpr uint64_t kMaxPlanes = 512; // beyond: walk the processors
    const Int128 d = c.acrossStep, procs = opts_.processors;
    const Int128 last = Int128(count) - 1;
    auto cut_at = [&](Int128 q) {
        if (q > 0 && q < Int128(count))
            cuts.push_back(uint64_t(q));
    };
    struct Aff
    {
        Int128 h0, h1;
    };
    auto boundary = [&](Aff h) {
        if (h.h1 > 0)
            cut_at(ceilDiv128(-h.h0, h.h1));
        else if (h.h1 < 0)
            cut_at(floorDiv128(h.h0, -h.h1) + 1);
    };
    std::vector<Aff> lows, ups;
    uint64_t planes = 0;
    try {
        const uint64_t positions = uint64_t(slice.count());
        for (uint64_t j = 0; j < positions; ++j) {
            const Int128 x0 =
                geoAdd(slice.start, geoMul(Int128(j), slice.step));
            // Where x_j crosses a cut of the middle run's pieces.
            for (const auto &[num, den] : c.events.cuts)
                cut_at(ceilDiv128(geoAdd(num, -geoMul(x0, den)),
                                  geoMul(den, d)));
            // A form's numerator along x_j, at middle value y = y0 + y1 q.
            auto along = [&](const ir::CompiledAffine &f, Aff y) {
                return Aff{geoAdd(geoAdd(geoMul(coeffOf(f, 0), x0),
                                         geoMul(coeffOf(f, 1), y.h0)),
                                  f.cst),
                           geoAdd(geoMul(coeffOf(f, 0), d),
                                  geoMul(coeffOf(f, 1), y.h1))};
            };
            for (const AcrossRef &r : c.acrossRefs) {
                // p owns the elements whose variable v satisfies
                // v == sign * (p - rest) (mod P), rest the subscript's
                // outer part: v = t0 + step * q + k * P.
                const ir::CompiledAffine &f = c.forms[r.form];
                const Aff rest = along(f, {0, 0});
                if (rest.h0 % f.den != 0)
                    return false; // the walk meets a fractional owner
                const Int128 t0 =
                    geoMul(r.sign, geoAdd(first, -(rest.h0 / f.den)));
                const Int128 tl = geoAdd(t0, geoMul(r.step, last));
                // The range of v + k * P: of y, or of z - tilt * y.
                Int128 lo = c.boxLo[r.level - 1], hi = c.boxHi[r.level - 1];
                if (r.tilt != 0) {
                    const Int128 ends[2] = {geoMul(r.tilt, c.boxLo[0]),
                                            geoMul(r.tilt, c.boxHi[0])};
                    lo = geoAdd(lo, -std::max(ends[0], ends[1]));
                    hi = geoAdd(hi, -std::min(ends[0], ends[1]));
                }
                const Int128 k_lo =
                    ceilDiv128(geoAdd(lo, -std::max(t0, tl)), procs);
                const Int128 k_hi =
                    floorDiv128(geoAdd(hi, -std::min(t0, tl)), procs);
                if (k_hi >= k_lo &&
                    (planes += uint64_t(std::min<Int128>(
                         k_hi - k_lo + 1, kMaxPlanes + 1))) > kMaxPlanes)
                    return false;
                for (Int128 k = k_lo; k <= k_hi; ++k) {
                    const Aff v{geoAdd(t0, geoMul(k, procs)), r.step};
                    lows.clear();
                    ups.clear();
                    // lo <= num / den (lower) or num / den <= hi: the
                    // rounded bound, integral along q once its slope is.
                    auto rounded = [&](Aff n, Int128 den, bool lower) {
                        if (n.h1 % den != 0)
                            throw Decline{};
                        (lower ? lows : ups)
                            .push_back({lower ? ceilDiv128(n.h0, den)
                                              : floorDiv128(n.h0, den),
                                        n.h1 / den});
                    };
                    if (r.level == 1) {
                        // The middle position y = v, if the middle run
                        // holds it, and the inner run there.
                        for (bool lower : {true, false})
                            for (size_t g : lower ? c.lowerForms[1]
                                                  : c.upperForms[1]) {
                                const ir::CompiledAffine &e = c.forms[g];
                                const Aff n = along(e, {0, 0});
                                const Aff vd{geoMul(v.h0, e.den),
                                             geoMul(v.h1, e.den)};
                                boundary(lower ? Aff{geoAdd(vd.h0, -n.h0),
                                                     geoAdd(vd.h1, -n.h1)}
                                               : Aff{geoAdd(n.h0, -vd.h0),
                                                     geoAdd(n.h1, -vd.h1)});
                            }
                        for (bool lower : {true, false})
                            for (size_t g : lower ? c.lowerForms[2]
                                                  : c.upperForms[2])
                                rounded(along(c.forms[g], v), c.forms[g].den,
                                        lower);
                    } else {
                        // The middle positions whose inner run holds
                        // z = tilt * y + v: the middle bounds, and the
                        // bound on y each inner bound puts there.
                        for (bool lower : {true, false})
                            for (size_t g : lower ? c.lowerForms[1]
                                                  : c.upperForms[1])
                                rounded(along(c.forms[g], {0, 0}),
                                        c.forms[g].den, lower);
                        for (bool lower : {true, false})
                            for (size_t g : lower ? c.lowerForms[2]
                                                  : c.upperForms[2]) {
                                // lower: ey * y <= m; upper: ey * y >= m.
                                const ir::CompiledAffine &e = c.forms[g];
                                const Aff w = along(e, {0, 0});
                                const Aff m{geoAdd(geoMul(v.h0, e.den), -w.h0),
                                            geoAdd(geoMul(v.h1, e.den), -w.h1)};
                                const Int128 ey = geoAdd(
                                    coeffOf(e, 1), -geoMul(r.tilt, e.den));
                                if (ey == 0) {
                                    boundary(lower ? m : Aff{-m.h0, -m.h1});
                                    continue;
                                }
                                const bool y_upper = lower == (ey > 0);
                                const Aff mm = ey > 0 ? m : Aff{-m.h0, -m.h1};
                                rounded(mm, ey > 0 ? ey : -ey, !y_upper);
                            }
                    }
                    // The max of the lowers, the min of the uppers and
                    // whether the range is empty hold one form each
                    // between the cuts.
                    for (Aff &u : ups)
                        u.h0 = geoAdd(u.h0, 1);
                    lows.insert(lows.end(), ups.begin(), ups.end());
                    for (size_t a = 0; a < lows.size(); ++a)
                        for (size_t e = a + 1; e < lows.size(); ++e)
                            boundary({geoAdd(lows[a].h0, -lows[e].h0),
                                      geoAdd(lows[a].h1, -lows[e].h1)});
                }
            }
        }
    } catch (const Decline &) {
        return false;
    }
    return true;
}

void
Simulator::runSlice(const Compiled &c, Int p, const OuterSlice &slice,
                    Int fromIdx, Int toIdx, Int idxStep, ProcStats &stats,
                    ir::ArrayStorage *storage, const ir::Bindings &binds,
                    std::vector<obs::TraceEvent> *events,
                    const char *spanName, SliceTally *tally) const
{
    if (slice.empty || fromIdx >= toIdx || idxStep <= 0)
        return;
    size_t n = c.depth;

    Workspace &ws = workspace();
    IntVec &u = ws.u, &y = ws.y, &coords = ws.coords;
    std::vector<uint64_t> &ticks = ws.ticks, &lastKey = ws.lastKey;
    u.assign(n, 0);
    y.clear();
    y.reserve(n);
    ticks.assign(n, 0);
    lastKey.assign(c.numRefs, 0);
    coords.assign(c.numCoords, 0);
    // Hot-counter accumulator: one cache line on this thread's stack,
    // folded into the shared ProcStats only at observation points, so
    // host-parallel walks of adjacent processors never false-share the
    // results array (see ProcAccum).
    ProcAccum acc;
    const bool fast = opts_.fastInner && !storage && n >= 2;
    // The fast walk keeps the numerator of every compiled form current
    // (Compiled::forms) and, on a unit lattice, where every anchor is 0,
    // skips the forward substitution. The naive walk evaluates
    // everything from scratch: it is the oracle.
    const bool track_y = !fast || !c.unitLattice;
    std::vector<Int128> &num = ws.num;
    num.clear();
    if (fast) {
        num.reserve(c.forms.size());
        for (const ir::CompiledAffine &f : c.forms)
            num.push_back(f.cst);
    }
    // Value execution (tests only): the body compiled once per slice.
    std::optional<ir::CompiledBody> body;
    if (storage)
        body.emplace(nest_.body(), n, binds);
    const bool clamp1 = slice.clamp1;
    const Int clamp1_lo = slice.clamp1Lo, clamp1_hi = slice.clamp1Hi;

    // Fault injection: logical event streams counted per compiled
    // reference (see fault_model.h); empty when nothing is armed.
    const FaultOptions &fi = opts_.faults;
    const RetryPolicy &rp = opts_.retry;
    const bool faulty = fi.anyMessage();
    const size_t n_arrays = c.dists.size();
    std::vector<uint64_t> transferEvents, remoteEvents, keyMult;
    std::vector<uint8_t> keyAbandoned;
    if (faulty) {
        transferEvents.assign(c.numRefs, 0);
        remoteEvents.assign(c.numRefs, 0);
        keyMult.assign(c.numRefs, 0);
        keyAbandoned.assign(c.numRefs, 0);
    }

    // Per-reference observability counters (off by default). The
    // helpers below are called next to every aggregate-counter charge;
    // with perRef false they are single never-taken branches, so the
    // off switch costs no atomics and no allocation on the hot path.
    const bool perRef = opts_.perReference;
    if (perRef && stats.localByRef.empty()) {
        stats.localByRef.assign(c.numRefs, 0);
        stats.remoteByRef.assign(c.numRefs, 0);
        stats.blockElementsByRef.assign(c.numRefs, 0);
    }
    auto ref_local = [&](size_t g, uint64_t count) {
        if (perRef)
            addCount(stats.localByRef[g], count);
    };
    auto ref_remote = [&](size_t g, uint64_t count) {
        if (perRef)
            addCount(stats.remoteByRef[g], count);
    };
    auto ref_block_elems = [&](size_t g, uint64_t count) {
        if (perRef)
            addCount(stats.blockElementsByRef[g], count);
    };

    // Communication-matrix cells (off by default). Remote charges below
    // pass the destination owner into comm_add next to every
    // aggregate-counter bump, so the row sums equal the aggregate
    // counters by construction. Sites that spread one closed-form
    // charge across several owners (the wrapped paths) pass the
    // kCommByCaller sentinel and attribute per owner themselves. The
    // map is folded into stats.comm (owner-sorted) at the end of the
    // slice, so the row is a pure function of the walk's counts.
    constexpr Int kCommByCaller = -2;
    const bool comm = opts_.commMatrix;
    std::unordered_map<Int, obs::CommEdge> commAcc;
    auto comm_add = [&](Int own, uint64_t remote_elems,
                        uint64_t transfers, uint64_t block_elems) {
        if (!comm || own < 0)
            return;
        obs::CommEdge &e = commAcc[own];
        e.owner = own;
        addCount(e.remoteElements, remote_elems);
        addCount(e.blockTransfers, transfers);
        addCount(e.blockElements, block_elems);
    };

    // Move loop variable k to v. The fast walk adds coeff * change to
    // every numerator that mentions k (a 64 x 65-bit product always
    // fits in 128 bits); a sum that leaves 128 bits is recomputed from
    // u, which throws the OverflowError direct evaluation would.
    auto set_var = [&](size_t k, Int v) {
        Int128 change = Int128(v) - u[k];
        u[k] = v;
        if (!fast)
            return;
        for (const FormTerm &t : c.formsOf[k])
            if (__builtin_add_overflow(num[t.form],
                                       Int128(t.coeff) * change,
                                       &num[t.form]))
                num[t.form] = c.forms[t.form].numerator(u);
    };
    auto sub_now = [&](const DistSub &d) {
        return c.forms[d.form].valueOf(num[d.form]);
    };
    // The owner of r's element at the walk's point (-1: replicated),
    // from the numerators or, `fresh`, evaluated from u (the naive
    // walk's way).
    auto owner_of = [&](const RefEval &r, bool fresh) -> Int {
        if (r.distSubs.empty())
            return -1;
        auto sub = [&](const DistSub &d) {
            return fresh ? c.forms[d.form].eval(u) : sub_now(d);
        };
        Int c0 = sub(r.distSubs[0]);
        Int c1 = r.distSubs.size() > 1 ? sub(r.distSubs[1]) : 0;
        return c.dists[r.arrayId].ownerOfDistCoords(c0, c1);
    };
    // Level k's lower bound (the max of its forms) or upper bound (the
    // min) at the point the numerators describe.
    auto bound_now = [&](size_t k, bool lower) {
        const std::vector<size_t> &fs =
            lower ? c.lowerForms[k] : c.upperForms[k];
        if (fs.empty())
            throw InternalError(lower ? "loop without lower bounds"
                                      : "loop without upper bounds");
        Int best = lower ? INT64_MIN : INT64_MAX;
        for (size_t f : fs)
            best = lower ? std::max(best, c.forms[f].ceilOf(num[f]))
                         : std::min(best, c.forms[f].floorOf(num[f]));
        return best;
    };
    // Trip count of start, start + s, ... <= hi (start <= hi), taken in
    // 128 bits: hi - start alone can leave Int.
    auto trip_count = [](Int start, Int hi, Int s) {
        Int128 trips = (Int128(hi) - start) / s + 1;
        if (trips > Int128(UINT64_MAX))
            throw LimitError("loop trip count exceeds 2^64-1");
        return uint64_t(trips);
    };

    // One new logical block transfer of reference r begins (its hoist
    // key changed). Charges the transfer-level recovery costs and
    // records, for the element charges that follow under the same key,
    // whether the block was abandoned and how many extra element copies
    // the re-sends moved.
    auto new_transfer = [&](const RefEval &r, Int own) {
        size_t g = r.globalIdx;
        uint64_t idx = ++transferEvents[g];
        TransferBatchOutcome outc = chargeTransferBatch(
            stats, fi, rp, idx - 1, 1, 0, r.arrayId, n_arrays);
        keyAbandoned[g] = outc.abandoned != 0;
        uint64_t mult = 0;
        if (faultScheduledAt(fi.dropTransferAt, fi.dropTransferEvery, idx))
            mult = outc.abandoned ? uint64_t(rp.maxAttempts)
                                  : uint64_t(fi.failuresPerEvent);
        else if (faultScheduledAt(fi.corruptTransferAt,
                                  fi.corruptTransferEvery, idx))
            mult = 1;
        keyMult[g] = mult;
        if (!outc.abandoned) {
            addCount(acc.blockTransfers, 1);
            comm_add(own, 0, 1, 0);
        }
    };

    // `count` elements of reference r arrive under hoist key `key`
    // (block-transfer path). Exactly the fault-free key bookkeeping
    // when nothing is armed.
    auto charge_hoisted = [&](const RefEval &r, Int own, uint64_t key,
                              uint64_t count) {
        size_t g = r.globalIdx;
        if (lastKey[g] != key) {
            lastKey[g] = key;
            if (faulty) {
                new_transfer(r, own);
            } else {
                addCount(acc.blockTransfers, 1);
                comm_add(own, 0, 1, 0);
            }
        }
        if (faulty && keyAbandoned[g]) {
            // The block never arrived: its elements fall back to
            // element-wise remote access (not re-injected).
            chargeAbandonedElements(stats, r.arrayId, n_arrays, count);
            ref_remote(g, count);
            comm_add(own, count, 0, 0);
            addCount(stats.recoveryElements, mulCount(keyMult[g], count));
        } else {
            addCount(acc.blockElements, count);
            ref_block_elems(g, count);
            comm_add(own, 0, 0, count);
            if (faulty)
                addCount(stats.recoveryElements,
                         mulCount(keyMult[g], count));
        }
    };

    // `count` consecutive element-wise remote accesses of reference r.
    auto charge_remote_elems = [&](const RefEval &r, Int own,
                                   uint64_t count) {
        if (faulty) {
            uint64_t first = remoteEvents[r.globalIdx];
            addCount(remoteEvents[r.globalIdx], count);
            chargeRemoteBatch(stats, fi, rp, first, count);
        }
        addCount(acc.remoteAccesses, count);
        ref_remote(r.globalIdx, count);
        comm_add(own, count, 0, 0);
        if (stats.remoteByArray.empty())
            stats.remoteByArray.assign(c.dists.size(), 0);
        addCount(stats.remoteByArray[r.arrayId], count);
    };

    // The hoist key reference r's elements arrive under: 0 unhoisted, 1
    // hoisted above the nest, else the tick count of its hoist level
    // (the innermost walk passes its own tick for that level).
    auto hoist_key = [&](const RefEval &r) -> uint64_t {
        return r.hoistLevel == kNoHoist ? 0
               : r.hoistLevel < 0       ? 1
                                        : ticks[size_t(r.hoistLevel)];
    };

    // Charge `count` consecutive innermost accesses of one reference
    // whose owner is the same at every one of them. `key` is the hoist
    // key in effect (callers pass the value the naive walk would see).
    auto charge_uniform = [&](const RefEval &r, Int own, uint64_t count,
                              uint64_t key) {
        if (own < 0 || own == p) {
            addCount(acc.localAccesses, count);
            ref_local(r.globalIdx, count);
        } else if (r.byBlocks) {
            charge_hoisted(r, own, key, count);
        } else {
            charge_remote_elems(r, own, count);
        }
    };

    // `transfers` consecutive one-element block transfers of reference r
    // (hoist boundary at the innermost level: every remote iteration
    // fetches a fresh block). Abandoned transfers complete nothing;
    // their single elements are charged remote by chargeTransferBatch.
    auto charge_bulk_transfers = [&](const RefEval &r, Int own,
                                     uint64_t transfers) {
        if (!faulty) {
            addCount(acc.blockTransfers, transfers);
            addCount(acc.blockElements, transfers);
            ref_block_elems(r.globalIdx, transfers);
            comm_add(own, 0, transfers, transfers);
            return;
        }
        size_t g = r.globalIdx;
        uint64_t first = transferEvents[g];
        addCount(transferEvents[g], transfers);
        TransferBatchOutcome outc = chargeTransferBatch(
            stats, fi, rp, first, transfers, 1, r.arrayId, n_arrays);
        addCount(acc.blockTransfers, outc.completed);
        addCount(acc.blockElements, outc.completed);
        ref_block_elems(g, outc.completed);
        // chargeTransferBatch charged the abandoned one-element blocks
        // as element-wise remote accesses; mirror them per reference.
        ref_remote(g, outc.abandoned);
        comm_add(own, outc.abandoned, outc.completed, outc.completed);
    };

    auto execute_body = [&]() {
        addCount(acc.iterations, 1);
        for (const StmtEval &s : c.stmts) {
            addCount(acc.flops, s.flops);
            for (const RefEval &r : s.refs)
                charge_uniform(r, owner_of(r, true), 1, hoist_key(r));
        }
        if (body)
            body->exec(u, *storage, nullptr);
    };

    // Strength-reduced / closed-form execution of one full innermost
    // run [start, hi] by stride s. Equivalent to the naive loop
    // counter-for-counter; see SimOptions::fastInner.
    auto run_inner = [&](Int start, Int hi, Int s) {
        uint64_t count = trip_count(start, hi, s);
        set_var(n - 1, start);
        addCount(acc.iterations, count);
        bool any_slow = false;
        for (const StmtEval &se : c.stmts) {
            addCount(acc.flops, mulCount(se.flops, count));
            for (const RefEval &r : se.refs) {
                switch (r.innerKind) {
                  case InnerKind::Invariant: {
                    // The hoist key: constant when hoisted above the
                    // innermost level, fresh every iteration when the
                    // hoist boundary is the innermost loop itself.
                    if (r.byBlocks && r.hoistLevel == int(n) - 1) {
                        Int own = owner_of(r, false);
                        if (own < 0 || own == p) {
                            addCount(acc.localAccesses, count);
                            ref_local(r.globalIdx, count);
                        } else {
                            charge_bulk_transfers(r, own, count);
                            lastKey[r.globalIdx] = ticks[n - 1] + count;
                        }
                    } else {
                        charge_uniform(r, owner_of(r, false), count,
                                       hoist_key(r));
                    }
                    break;
                  }
                  case InnerKind::Wrapped: {
                    const Distribution &dist = c.dists[r.arrayId];
                    Int a = sub_now(r.distSubs[0]);
                    Int delta = r.distSubs[0].innerDelta;
                    Int procs = dist.processors();
                    CongruentCount local = r.stepper.count(a, count, p);
                    uint64_t remote = count - local.hits;
                    addCount(acc.localAccesses, local.hits);
                    ref_local(r.globalIdx, local.hits);
                    if (remote == 0)
                        break;
                    const bool bulk = r.byBlocks && r.hoistLevel == int(n) - 1;
                    // Per-owner attribution for the communication
                    // matrix: walk the owner residue cycle once
                    // (O(min(count, procs/gcd)), bounded by what the
                    // naive walk pays per run) and count each owner's
                    // congruent iterations in closed form. Message
                    // faults never reach this path with comm on
                    // (compile_ref downgrades those references to the
                    // incremental walk).
                    if (comm) {
                        Int d = euclidMod(delta, procs);
                        uint64_t period =
                            d == 0 ? 1
                                   : uint64_t(procs / gcdInt(d, procs));
                        uint64_t distinct =
                            std::min<uint64_t>(count, period);
                        Int q = euclidMod(a, procs);
                        if (r.byBlocks && !bulk) {
                            // One hoist key covers the whole run: the
                            // naive walk charges the (at most one) new
                            // transfer at the first remote iteration.
                            if (lastKey[r.globalIdx] != hoist_key(r)) {
                                Int first_owner =
                                    q != p ? q
                                           : euclidMod(q + d, procs);
                                comm_add(first_owner, 0, 1, 0);
                            }
                        }
                        for (uint64_t t = 0; t < distinct; ++t) {
                            if (q != p) {
                                uint64_t hits =
                                    r.stepper.count(a, count, q).hits;
                                if (bulk)
                                    comm_add(q, 0, hits, hits);
                                else if (r.byBlocks)
                                    comm_add(q, 0, 0, hits);
                                else
                                    comm_add(q, hits, 0, 0);
                            }
                            q += d;
                            if (q >= procs)
                                q -= procs;
                        }
                    }
                    if (r.byBlocks) {
                        if (bulk) {
                            // Every remote iteration ticks the hoist
                            // level, so each fetches a fresh block; the
                            // last key consumed belongs to the last
                            // remote iteration.
                            uint64_t j_last_remote =
                                local.hits > 0 && local.jLast == count - 1
                                    ? count - 2
                                    : count - 1;
                            charge_bulk_transfers(r, kCommByCaller,
                                                  remote);
                            lastKey[r.globalIdx] =
                                ticks[n - 1] + j_last_remote + 1;
                        } else {
                            charge_hoisted(r, kCommByCaller, hoist_key(r),
                                           remote);
                        }
                    } else {
                        charge_remote_elems(r, kCommByCaller, remote);
                    }
                    break;
                  }
                  case InnerKind::Stepped:
                  case InnerKind::Reeval:
                    any_slow = true;
                    break;
                }
            }
        }
        if (any_slow) {
            // Walk the run once for the references the closed forms do
            // not cover, advancing their subscripts incrementally.
            for (const StmtEval &se : c.stmts)
                for (const RefEval &r : se.refs)
                    if (r.innerKind == InnerKind::Stepped)
                        for (size_t d = 0; d < r.distSubs.size(); ++d)
                            coords[r.coordBase + d] =
                                sub_now(r.distSubs[d]);
            Int v = start;
            for (uint64_t j = 0; j < count; ++j) {
                u[n - 1] = v;
                uint64_t inner_tick = ticks[n - 1] + j + 1;
                for (const StmtEval &se : c.stmts) {
                    for (const RefEval &r : se.refs) {
                        if (r.innerKind != InnerKind::Stepped &&
                            r.innerKind != InnerKind::Reeval)
                            continue;
                        Int own;
                        if (r.innerKind == InnerKind::Stepped) {
                            Int c0 = coords[r.coordBase];
                            Int c1 = r.distSubs.size() > 1
                                         ? coords[r.coordBase + 1]
                                         : 0;
                            own = c.dists[r.arrayId].ownerOfDistCoords(
                                c0, c1);
                        } else {
                            own = owner_of(r, true);
                        }
                        charge_uniform(r, own, 1,
                                       r.hoistLevel == int(n) - 1
                                           ? inner_tick
                                           : hoist_key(r));
                        if (r.innerKind == InnerKind::Stepped)
                            for (size_t d = 0; d < r.distSubs.size(); ++d)
                                coords[r.coordBase + d] +=
                                    r.distSubs[d].innerDelta;
                    }
                }
                v += s;
            }
            u[n - 1] = start; // the point the numerators describe
        }
        addCount(ticks[n - 1], count);
    };

    // A middle run charged in closed form (see planMiddleRun): the
    // counters, remoteByArray, the hoist keys and the middle and inner
    // ticks end where the walk of its positions leaves them.
    MiddleRun &mrun = ws.run;
    auto closed_run = [&](size_t k, Int first, Int128 step,
                          uint64_t trip) {
        if (!worthSolving(c, trip))
            return false;
        mrun.mid = k;
        mrun.first = first;
        mrun.step = step;
        mrun.trip = trip;
        mrun.anchor = 0;
        if (track_y) {
            y.push_back(0); // the middle entry: H(inner, middle) == 0
            mrun.anchor = nest_.lattice().anchor(n - 1, y);
            y.pop_back();
        }
        mrun.clamp = n == 2 && clamp1;
        mrun.clampLo = clamp1_lo;
        mrun.clampHi = clamp1_hi;
        mrun.u = &u;
        mrun.num = &num;
        if (!planMiddleRun(c, p, mrun))
            return false;
        if (tally)
            ++tally->closedRuns;
        const uint64_t mid_ticks = ticks[k], inner_ticks = ticks[n - 1];
        addCount(acc.iterations, mrun.iterations);
        for (const StmtEval &se : c.stmts) {
            addCount(acc.flops, mulCount(se.flops, mrun.iterations));
            for (const RefEval &r : se.refs) {
                const RefCharge &q = mrun.refs[r.globalIdx];
                addCount(acc.localAccesses, q.local);
                if (q.remote == 0)
                    continue;
                if (!r.byBlocks) {
                    charge_remote_elems(r, kCommByCaller, q.remote);
                    continue;
                }
                addCount(acc.blockElements, q.remote);
                uint64_t &last = lastKey[r.globalIdx];
                if (r.hoistLevel == int(n) - 1) {
                    // Every remote element is a fresh one-element block.
                    addCount(acc.blockTransfers, q.remote);
                    last = inner_ticks + q.lastTick;
                } else if (r.hoistLevel == int(k)) {
                    // One block per position with a remote element.
                    addCount(acc.blockTransfers, q.remotePositions);
                    last = mid_ticks + q.lastPos + 1;
                } else if (last != hoist_key(r)) {
                    // A key above the run: at most one new block.
                    addCount(acc.blockTransfers, 1);
                    last = hoist_key(r);
                }
            }
        }
        addCount(ticks[k], trip);
        addCount(ticks[n - 1], mrun.iterations);
        return true;
    };

    // The naive walk: bounds, anchors and owners evaluated from scratch
    // at every point, the body charged one iteration at a time.
    auto naive_walk = [&](auto &self, size_t k) -> void {
        if (k == n) {
            execute_body();
            return;
        }
        Int lo = c.bounds.lower(k, u);
        Int hi = c.bounds.upper(k, u);
        if (k == 1 && clamp1) {
            lo = std::max(lo, clamp1_lo);
            hi = std::min(hi, clamp1_hi);
        }
        if (lo > hi)
            return;
        Int s = c.strides[k];
        for (Int v = nest_.startAt(k, lo, y); v <= hi; v += s) {
            u[k] = v;
            ticks[k] += 1;
            y.push_back(nest_.lattice().solveY(k, v, y));
            self(self, k + 1);
            y.pop_back();
        }
        u[k] = 0;
    };

    // The fast walk of levels 1 .. n - 1: incremental bounds, the
    // innermost level in closed form, the middle level too where it can.
    auto fast_walk = [&](auto &self, size_t k) -> void {
        Int lo = bound_now(k, true);
        Int hi = bound_now(k, false);
        if (k == 1 && clamp1) {
            lo = std::max(lo, clamp1_lo);
            hi = std::min(hi, clamp1_hi);
        }
        if (lo > hi)
            return;
        Int s = c.strides[k];
        Int start = track_y ? nest_.startAt(k, lo, y) : lo;
        if (start > hi)
            return;
        if (k == n - 1) {
            run_inner(start, hi, s);
            return;
        }
        uint64_t trip = trip_count(start, hi, s);
        if (k == n - 2 && closed_run(k, start, s, trip))
            return;
        for (uint64_t i = 0; i < trip; ++i) {
            Int v = Int(Int128(start) + Int128(i) * s);
            set_var(k, v);
            ticks[k] += 1;
            if (track_y)
                y.push_back(nest_.lattice().solveY(k, v, y));
            self(self, k + 1);
            if (track_y)
                y.pop_back();
        }
    };

    // Walk the requested positions of the slice (positions are 0-based
    // within the slice's arithmetic progression). When tracing, one
    // span is recorded per position, stamped from the simulated clock
    // derived from the counters at the position boundary -- where every
    // execution strategy agrees bit-for-bit -- with the counter deltas
    // (element counts of the closed-form bulk charges included) as
    // args, and instant events for any recovery work inside it. A
    // two-deep nest charges these positions as one middle run when it
    // can (never when tracing).
    ProcStats snap;
    auto position = [&](uint64_t j) {
        if (tally)
            ++tally->walked;
        Int idx = fromIdx + Int(j) * idxStep;
        Int v = checkedAdd(slice.start, checkedMul(idx, slice.step));
        double ts0 = 0.0;
        if (events) {
            acc.flushInto(stats);
            snap = stats;
            finalizeProcTime(snap, c.rates);
            ts0 = snap.time;
        }
        set_var(0, v);
        ticks[0] += 1;
        if (track_y)
            y.push_back(nest_.lattice().solveY(0, v, y));
        if (!plan_.outerParallel)
            addCount(acc.syncs, 1);
        if (fast)
            fast_walk(fast_walk, 1);
        else
            naive_walk(naive_walk, 1);
        if (track_y)
            y.pop_back();
        if (events) {
            acc.flushInto(stats);
            ProcStats now = stats;
            finalizeProcTime(now, c.rates);
            obs::TraceEvent e;
            e.name = spanName;
            e.ph = 'X';
            e.tid = p;
            e.ts = ts0;
            e.dur = now.time - ts0;
            e.arg("v", obs::jsonNum(int64_t(v)));
            auto delta = [&](const char *key, uint64_t now_v,
                             uint64_t before) {
                if (now_v > before)
                    e.arg(key, obs::jsonNum(now_v - before));
            };
            delta("iterations", stats.iterations, snap.iterations);
            delta("local", stats.localAccesses, snap.localAccesses);
            delta("remote", stats.remoteAccesses, snap.remoteAccesses);
            delta("blockTransfers", stats.blockTransfers,
                  snap.blockTransfers);
            delta("blockElements", stats.blockElements,
                  snap.blockElements);
            delta("syncs", stats.syncs, snap.syncs);
            events->push_back(std::move(e));
            auto instant = [&](const char *name, uint64_t now_v,
                               uint64_t before) {
                if (now_v <= before)
                    return;
                obs::TraceEvent f;
                f.name = name;
                f.ph = 'i';
                f.tid = p;
                f.ts = now.time;
                f.arg("count", obs::jsonNum(now_v - before));
                events->push_back(std::move(f));
            };
            instant("retry",
                    stats.transferRetries + stats.remoteRetries,
                    snap.transferRetries + snap.remoteRetries);
            instant("refetch", stats.transferRefetches,
                    snap.transferRefetches);
            instant("abandon", stats.abandonedTransfers,
                    snap.abandonedTransfers);
        }
    };
    const uint64_t positions = uint64_t((toIdx - 1 - fromIdx) / idxStep) + 1;
    bool closed = false;
    if (n == 2 && worthSolving(c, positions)) {
        // The walk's arithmetic at the first and last positions.
        Int first = checkedAdd(slice.start, checkedMul(fromIdx, slice.step));
        Int last_idx = fromIdx + Int(positions - 1) * idxStep;
        checkedAdd(slice.start, checkedMul(last_idx, slice.step));
        closed = closed_run(0, first, Int128(slice.step) * idxStep,
                            positions);
        if (closed && !plan_.outerParallel)
            addCount(acc.syncs, positions);
    }
    // Charge the positions by stretches (stretchBounds; see
    // numa/stretch.h). The last position of the slice is walked, so
    // that it raises what the per-position walk raises there: every
    // value moves affinely with the outer variable, so the positions
    // between lie between the two ends.
    std::vector<uint64_t> &bounds = ws.bounds;
    const bool stretched =
        !closed &&
        stretchBounds(c, slice, fromIdx, idxStep, positions, bounds);
    if (!closed && !stretched)
        for (uint64_t j = 0; j < positions; ++j)
            position(j);
    // The state crossing positions: the counters, every level's ticks
    // and remoteByArray (empty while all zero). A hoist key of a level
    // h >= 0 is dead across positions, since the next position's keys
    // of that level exceed every tick it has seen. A key above the nest
    // is consumed by the slice's first position with a remote element,
    // the first of all where nothing moves (planStretches): that
    // position is walked before the samples.
    const size_t width = std::size(kAccumFields) + n + n_arrays;
    auto save = [&](uint64_t *to) {
        for (uint64_t ProcAccum::*f : kAccumFields)
            *to++ = acc.*f;
        to = std::copy(ticks.begin(), ticks.end(), to);
        for (size_t a = 0; a < n_arrays; ++a)
            *to++ = stats.remoteByArray.empty() ? 0 : stats.remoteByArray[a];
    };
    auto load = [&](const uint64_t *v) {
        for (uint64_t ProcAccum::*f : kAccumFields)
            acc.*f = *v++;
        for (size_t k = 0; k < n; ++k)
            ticks[k] = *v++;
        if (std::all_of(v, v + n_arrays, [](uint64_t x) { return x == 0; }))
            stats.remoteByArray.clear();
        else
            stats.remoteByArray.assign(v, v + n_arrays);
    };
    for (size_t b = 1; stretched && b < bounds.size(); ++b)
        chargeStretch({bounds[b - 1], bounds[b], c.stretchDegree,
                       b == 1 ? c.stretchLead : 0, bounds[b] == positions},
                      width, ws.states, position, save, load);
    acc.flushInto(stats);
    // Fold the slice's comm cells into the processor's sparse row
    // (owner-sorted, duplicates from earlier slices -- e.g. the
    // adoption phase -- coalesced), so the row is a pure function of
    // the walk's counts regardless of map iteration order.
    if (comm && !commAcc.empty()) {
        stats.comm.reserve(stats.comm.size() + commAcc.size());
        for (auto &kv : commAcc)
            stats.comm.push_back(kv.second);
        std::sort(stats.comm.begin(), stats.comm.end(),
                  [](const obs::CommEdge &a, const obs::CommEdge &b) {
                      return a.owner < b.owner;
                  });
        size_t w = 0;
        for (size_t i = 0; i < stats.comm.size(); ++i) {
            if (w > 0 && stats.comm[w - 1].owner == stats.comm[i].owner) {
                obs::CommEdge &into = stats.comm[w - 1];
                addCount(into.remoteElements, stats.comm[i].remoteElements);
                addCount(into.blockTransfers, stats.comm[i].blockTransfers);
                addCount(into.blockElements, stats.comm[i].blockElements);
            } else {
                stats.comm[w++] = stats.comm[i];
            }
        }
        stats.comm.resize(w);
    }
}

Simulator::Compiled
Simulator::compile(const ir::Bindings &binds, bool values) const
{
    // Compile the nest body against the bound parameters.
    Compiled c;
    c.depth = nest_.depth();
    c.params = binds.paramValues;
    c.bounds = ir::LoopBounds(nest_.loops(), c.params);
    for (const ir::ArrayDecl &a : prog_.arrays)
        c.dists.emplace_back(a.dist, a.evalExtents(binds.paramValues),
                             opts_.processors);
    const MachineParams &m = opts_.machine;
    c.rates.loopOverhead = m.loopOverheadTime;
    c.rates.flop = m.flopTime;
    c.rates.local = m.localAccessTime;
    c.rates.remote = m.remoteTime(int(opts_.processors));
    c.rates.blockStartup = m.blockStartupTime;
    c.rates.blockElement =
        m.blockPerByteTime *
        (1.0 + m.contentionFactor * double(opts_.processors - 1)) *
        double(m.elementSize);
    c.rates.guard = m.guardTime;
    c.rates.sync = m.syncTime;
    c.rates.backoffUnit = m.retryBackoffTime;
    c.rates.restart = m.restartTime;
    if (!std::isfinite(c.rates.remote) ||
        !std::isfinite(c.rates.blockElement))
        throw UserError(
            "contention model overflows at P = " +
            std::to_string(opts_.processors) +
            " (remote/block rates are not finite); reduce "
            "contentionFactor or the processor count");

    for (size_t k = 0; k < c.depth; ++k) {
        c.strides.push_back(nest_.lattice().stride(k));
        c.unitLattice = c.unitLattice && c.strides[k] == 1;
    }
    c.lowerForms.resize(c.depth);
    c.upperForms.resize(c.depth);
    for (size_t k = 1; k < c.depth; ++k) {
        for (const ir::CompiledAffine &f : c.bounds.lowers(k)) {
            c.lowerForms[k].push_back(c.forms.size());
            c.forms.push_back(f);
        }
        for (const ir::CompiledAffine &f : c.bounds.uppers(k)) {
            c.upperForms[k].push_back(c.forms.size());
            c.forms.push_back(f);
        }
    }

    size_t inner = c.depth > 0 ? c.depth - 1 : 0;
    Int inner_stride = c.depth > 0 ? c.strides[inner] : 1;
    auto compile_ref = [&](const ir::ArrayRef &ref, bool is_write) {
        RefEval re;
        re.arrayId = ref.arrayId;
        re.isWrite = is_write;
        re.coordBase = c.numCoords;
        const Distribution &dist = c.dists[ref.arrayId];
        bool varies = false, exact = true;
        for (size_t dim : dist.spec().dims) {
            if (dim >= ref.subscripts.size())
                throw InternalError(
                    "distribution dimension exceeds reference rank");
            DistSub ds;
            ds.form = c.forms.size();
            c.forms.push_back(ir::CompiledAffine::compile(
                ref.subscripts[dim], c.params));
            if (c.depth > 0 &&
                !c.forms.back().stepDelta(inner, inner_stride,
                                          &ds.innerDelta))
                exact = false;
            if (ds.innerDelta != 0 || !exact)
                varies = true;
            re.distSubs.push_back(ds);
        }
        c.numCoords += re.distSubs.size();
        if (!exact)
            re.innerKind = InnerKind::Reeval;
        else if (!varies)
            re.innerKind = InnerKind::Invariant;
        else if (dist.spec().kind == ir::DistKind::Wrapped)
            re.innerKind = InnerKind::Wrapped;
        else
            re.innerKind = InnerKind::Stepped;
        // Per-owner fault outcomes cannot be split out of the wrapped
        // closed forms: with both comm collection and message faults
        // armed, take the incremental walk instead -- identical
        // counters (the PR 1 contract) at the naive walk's cost, and
        // both features are opt-in.
        if (re.innerKind == InnerKind::Wrapped && opts_.commMatrix &&
            opts_.faults.anyMessage())
            re.innerKind = InnerKind::Stepped;
        if (re.innerKind == InnerKind::Wrapped)
            re.stepper = CongruentStepper(re.distSubs[0].innerDelta,
                                          dist.processors());
        return re;
    };

    size_t global = 0;
    for (size_t si = 0; si < nest_.body().size(); ++si) {
        const ir::Statement &stmt = nest_.body()[si];
        StmtEval se;
        se.flops = stmt.flopCount();
        size_t read_idx = 0;
        stmt.rhs.forEachRef([&](const ir::ArrayRef &r) {
            RefEval re = compile_ref(r, false);
            for (const BlockHoist &h : plan_.hoists)
                if (h.stmt == si && h.readIdx == read_idx)
                    re.hoistLevel = h.level;
            re.byBlocks = opts_.blockTransfers && re.hoistLevel != kNoHoist;
            re.globalIdx = global++;
            se.refs.push_back(std::move(re));
            ++read_idx;
        });
        RefEval w = compile_ref(stmt.lhs, true);
        w.globalIdx = global++;
        se.refs.push_back(std::move(w));
        c.stmts.push_back(std::move(se));
    }
    c.numRefs = global;

    c.formsOf.resize(c.depth);
    for (size_t k = 0; k < c.depth; ++k)
        for (size_t f = 0; f < c.forms.size(); ++f)
            if (c.forms[f].dependsOnVar(k))
                c.formsOf[k].push_back({f, c.forms[f].num[k]});
    c.origin.assign(c.depth, 0);

    // Owner twins: references that charge alike along a middle run.
    std::vector<const RefEval *> refs(c.numRefs);
    for (const StmtEval &se : c.stmts)
        for (const RefEval &r : se.refs)
            refs[r.globalIdx] = &r;
    c.ownerTwin.resize(c.numRefs);
    for (size_t g = 0; g < c.numRefs; ++g) {
        const RefEval &r = *refs[g];
        auto same_owner = [&](const RefEval *o) {
            const Distribution &d = c.dists[r.arrayId],
                               &e = c.dists[o->arrayId];
            if (d.spec().kind != ir::DistKind::Wrapped ||
                e.spec().kind != ir::DistKind::Wrapped ||
                d.processors() != e.processors() ||
                r.innerKind != o->innerKind)
                return false;
            const ir::CompiledAffine &f = c.forms[r.distSubs[0].form],
                                     &h = c.forms[o->distSubs[0].form];
            return f.num == h.num && f.cst == h.cst && f.den == h.den;
        };
        c.ownerTwin[g] = size_t(
            std::find_if(refs.begin(), refs.begin() + g, same_owner) -
            refs.begin());
    }

    if (c.depth > 0) {
        c.outerLo = c.bounds.lower(0, c.origin);
        c.outerHi = c.bounds.upper(0, c.origin);
        c.outerEmpty = c.outerLo > c.outerHi;
    }
    // The step of every non-empty slice: s * P round robin, lcm(s, P)
    // owner-wrapped and s under the block schemes, where s is the outer
    // lattice stride.
    if (c.depth > 0) {
        const Int s = c.strides[0], procs = opts_.processors;
        c.sliceStep = plan_.scheme == PartitionScheme::RoundRobin
                          ? Int128(s) * procs
                      : plan_.scheme == PartitionScheme::OwnerWrapped
                          ? Int128(s / std::gcd(s, procs)) * procs
                          : s;
    }
    if (!c.outerEmpty) {
        c.outerBase = nest_.startAt(0, c.outerLo, {});
        if (plan_.scheme == PartitionScheme::OwnerWrapped) {
            const Int s = c.strides[0];
            const ExtGcd e = extGcd(s, opts_.processors);
            c.alignRem = euclidMod(c.outerBase, s);
            c.alignGcd = e.g;
            c.alignModG = opts_.processors / e.g;
            c.alignInv = euclidMod(e.x, c.alignModG);
        }
    }
    // Middle runs and stretches are charged from the counters alone, so
    // neither applies where more crosses positions than the counters:
    // value execution, message-fault streams, per-reference counters
    // and communication-matrix cells.
    const bool counters_only = opts_.fastInner && !values &&
                               !opts_.faults.anyMessage() &&
                               !opts_.perReference && !opts_.commMatrix;
    planClosedMiddle(c, counters_only);
    if (c.closedMiddle)
        buildOwnerTables(c);
    planStretches(c, counters_only);
    planAcross(c, counters_only);
    return c;
}

void
Simulator::planStretches(Compiled &c, bool countersOnly) const
{
    // A slice is charged by stretches on the fast walk of a nest at
    // least three deep (two deep, the slice is one closed-form middle
    // run) when the counters are the whole state crossing positions
    // (countersOnly) and each position carries no trace span of its
    // own; when no lattice anchor below level 0 and no non-wrapped
    // owner reads the outer variable; and when each position moves
    // every form that does by a multiple of P (outerMoves, checked per
    // slice by stretchBounds). Where only wrapped owners read it, every
    // position runs the same sub-walk: the counters are degree 0 in the
    // position. Where bounds of levels >= 1 read it too, see planCuts.
    if (!countersOnly || c.depth < 3 || opts_.trace || c.outerEmpty)
        return;
    bool moving = false;
    for (size_t k = 1; k < c.depth; ++k) {
        if (nest_.lattice().hnf()(k, 0) != 0)
            return;
        for (const auto *level : {&c.lowerForms[k], &c.upperForms[k]})
            for (size_t f : *level)
                moving = moving || c.forms[f].dependsOnVar(0);
    }
    const Int procs = opts_.processors;
    std::vector<std::pair<Int128, Int128>> moves;
    for (const StmtEval &se : c.stmts) {
        for (const RefEval &r : se.refs) {
            const bool wrapped =
                c.dists[r.arrayId].spec().kind == ir::DistKind::Wrapped;
            for (const DistSub &ds : r.distSubs) {
                const ir::CompiledAffine &f = c.forms[ds.form];
                if (f.dependsOnVar(0)) {
                    if (!wrapped)
                        return;
                    moves.push_back({f.num[0], Int128(f.den) * procs});
                }
                // With moving bounds the sub-walks change shape, so each
                // owner must repeat with period P along every level.
                for (size_t k = 1; moving && k < f.num.size(); ++k)
                    if (wrapped ? f.num[k] % f.den != 0 : f.num[k] != 0)
                        return;
            }
            if (r.byBlocks && r.hoistLevel == -1 && !r.distSubs.empty()) {
                if (moving)
                    return; // the first transfer may land mid-stretch
                c.stretchLead = 1;
            }
        }
    }
    c.outerMoves = std::move(moves);
    if (moving && !planCuts(c))
        return;
    c.stretchDegree = moving ? c.depth - 1 : 0;
    c.stretches = true;
}

bool
Simulator::planCuts(Compiled &c) const
{
    // Along a slice every event must move by a multiple of P per
    // position, like a moving owner, so that every owner pattern
    // repeats (outerMoves).
    const Int procs = opts_.processors;
    const Int128 positions =
        (Int128(c.outerHi) - c.outerBase) / c.sliceStep + 1;
    if (plan_.scheme == PartitionScheme::OwnerBlock2D ||
        plan_.scheme == PartitionScheme::OwnerBlocked || positions < 16)
        return false; // walking the short slices costs less
    if (!eventCuts(c))
        return false;
    for (const auto &[num, den] : c.events.slopes) {
        Int128 mod;
        if (mulOverflow128(den, procs, &mod))
            return false;
        c.outerMoves.push_back({num, mod});
    }
    return true;
}

bool
Simulator::eventCuts(Compiled &c) const
{
    if (c.eventState == 0) {
        const bool found =
            c.depth == 3 && c.strides[1] == 1 && c.strides[2] == 1 &&
            findPieceCuts(c.bounds, c.outerLo, c.outerHi, c.events);
        c.eventState = found ? 1 : -1;
    }
    return c.eventState > 0;
}

void
Simulator::planAcross(Compiled &c, bool countersOnly) const
{
    // Processors are charged by evaluation across processors (see
    // SimOptions::fastInner) on the fast walk of a three-deep nest with
    // a unit lattice below level 0, partitioned round robin or
    // owner-wrapped on a unit outer stride, when the counters are the
    // whole state (countersOnly) and no trace span is recorded. Moving
    // processor p to p + 1 then moves every position x of its slice by
    // d = acrossStep, and p is an affine function of x there. For the
    // counters to be polynomial in p between cuts:
    //  - the geometry: every bound and inner crossing (eventCuts) moves
    //    by a whole number per step d, so that between the cuts in x
    //    the iterations, and the middle positions with a nonempty inner
    //    run, are polynomials of degree 2;
    //  - the owners: each distributed reference is replicated or
    //    wrapped, and its subscript f, modulo P, either reads neither y
    //    nor z and moves by 1 per step d (owned by p everywhere or
    //    nowhere, alike along the run), or reads y with coefficient +-1
    //    and not z, or z with coefficient +-1 and y with an integral one
    //    (an AcrossRef). The elements p owns then lie on planes
    //    y = v + k * P or z = tilt * y + v + k * P, v linear in p;
    //    acrossCuts cuts where a plane enters or leaves the iteration
    //    space or the bounds that shape it cross on it;
    //  - hoisted reads that may be remote are hoisted to the middle
    //    level (one transfer per middle position with a remote element,
    //    owner alike along the inner run) or the inner one.
    if (!countersOnly || opts_.trace || c.depth != 3 || c.outerEmpty ||
        c.strides[1] != 1 || c.strides[2] != 1)
        return;
    const Int procs = opts_.processors;
    const Int d = c.strides[0];
    if (plan_.scheme == PartitionScheme::OwnerWrapped
            ? d != 1
            : plan_.scheme != PartitionScheme::RoundRobin)
        return;
    // Slices of three positions or more are charged by stretches along
    // the slice, or walked because they are short: the counters of such
    // a processor are cheap enough to walk. So are a few processors:
    // fewer than 8 with work, or 64 where bounds below level 0 read x
    // and the cuts of the middle run's pieces must be planned first.
    const Int128 outer = (Int128(c.outerHi) - c.outerBase) / d + 1;
    bool moving = false, shaped = false; // bounds below 0 read x; x or y
    for (size_t k = 1; k < 3; ++k)
        for (const auto *level : {&c.lowerForms[k], &c.upperForms[k]})
            for (size_t f : *level) {
                moving = moving || c.forms[f].dependsOnVar(0);
                shaped = shaped || c.forms[f].dependsOnVar(0) ||
                         c.forms[f].dependsOnVar(1);
            }
    if (outer > 2 * Int128(procs) ||
        std::min(outer, Int128(procs)) < (moving ? 64 : 8))
        return;
    std::vector<AcrossRef> refs;
    try {
        // A range of y over x in [outerLo, outerHi], then of z over
        // that box: each bound is affine, so its extremes lie at the
        // corners.
        for (size_t level : {1, 2}) {
            const size_t b = level - 1;
            for (bool lower : {true, false}) {
                bool first = true;
                for (size_t f : lower ? c.lowerForms[level]
                                      : c.upperForms[level]) {
                    const ir::CompiledAffine &a = c.forms[f];
                    Int128 best = 0;
                    for (int corner = 0; corner < 4; ++corner) {
                        const Int128 x = corner & 1 ? c.outerHi : c.outerLo;
                        const Int128 y = corner & 2 ? c.boxHi[0] : c.boxLo[0];
                        const Int128 n =
                            geoAdd(geoAdd(geoMul(coeffOf(a, 0), x),
                                          geoMul(coeffOf(a, 1), y)),
                                   a.cst);
                        const Int128 v = lower ? ceilDiv128(n, a.den)
                                               : floorDiv128(n, a.den);
                        if (corner == 0 || (lower ? v < best : v > best))
                            best = v;
                    }
                    Int128 &w = lower ? c.boxLo[b] : c.boxHi[b];
                    if (first || (lower ? best > w : best < w))
                        w = best;
                    first = false;
                }
                if (first)
                    return; // the walk reports the malformed loop
            }
        }
        for (const StmtEval &se : c.stmts) {
            for (const RefEval &r : se.refs) {
                if (r.distSubs.empty())
                    continue; // replicated: always local
                if (c.dists[r.arrayId].spec().kind != ir::DistKind::Wrapped)
                    return;
                if (r.byBlocks && r.hoistLevel < 1)
                    return; // one transfer above the middle level
                const ir::CompiledAffine &f = c.forms[r.distSubs[0].form];
                const Int128 den = f.den, wrap = geoMul(den, procs);
                const Int128 a0d = geoMul(coeffOf(f, 0), d);
                if (a0d % den != 0)
                    return;
                const Int a1 = coeffOf(f, 1), a2 = coeffOf(f, 2);
                const bool reads1 = a1 % wrap != 0, reads2 = a2 % wrap != 0;
                if (!reads1 && !reads2) {
                    if ((a0d - den) % wrap != 0)
                        return;
                    continue;
                }
                AcrossRef ar;
                ar.form = r.distSubs[0].form;
                ar.level = reads2 ? 2 : 1;
                const Int a = reads2 ? a2 : a1;
                if (a != den && a != -den)
                    return;
                // One transfer per middle position with a remote element
                // needs the owner alike along the inner run.
                if (ar.level == 2 && r.byBlocks && r.hoistLevel == 1)
                    return;
                ar.sign = a / den;
                ar.step = geoMul(ar.sign, geoAdd(1, -(a0d / den)));
                if (ar.level == 2) {
                    if (reads1 && a1 % den != 0)
                        return;
                    ar.tilt = reads1 ? -geoMul(ar.sign, a1 / den) : 0;
                    // The y bound each inner bound puts on the plane
                    // must move by a whole number per step.
                    for (bool lower : {true, false})
                        for (size_t g : lower ? c.lowerForms[2]
                                              : c.upperForms[2]) {
                            const ir::CompiledAffine &e = c.forms[g];
                            const Int128 ey =
                                geoAdd(coeffOf(e, 1), -geoMul(ar.tilt, e.den));
                            const Int128 m1 =
                                geoAdd(geoMul(ar.step, e.den),
                                       -geoMul(coeffOf(e, 0), d));
                            if (ey != 0 && m1 % ey != 0)
                                return;
                        }
                }
                bool seen = false;
                for (const AcrossRef &o : refs) {
                    const ir::CompiledAffine &g = c.forms[o.form];
                    seen = seen || (g.num == f.num && g.cst == f.cst &&
                                    g.den == f.den);
                }
                if (!seen)
                    refs.push_back(ar);
            }
        }
    } catch (const Decline &) {
        return;
    }
    if (moving && !eventCuts(c))
        return;
    for (const auto &[num, den] : c.events.slopes) {
        Int128 moved;
        if (mulOverflow128(num, d, &moved) || moved % den != 0)
            return;
    }
    // Without bounds that read x or y, a run's counters are constant in
    // p between the cuts, except on a tilted plane z = tilt * y + v:
    // the middle positions it crosses within the inner range are a
    // clipped difference of linear functions of v.
    const bool tilted = std::any_of(refs.begin(), refs.end(),
                                    [](const AcrossRef &r) {
                                        return r.tilt != 0;
                                    });
    c.acrossRefs = std::move(refs);
    c.acrossStep = d;
    c.acrossDegree = shaped ? 2 : tilted ? 1 : 0;
    c.across = true;
}

void
Simulator::planClosedMiddle(Compiled &c, bool countersOnly) const
{
    // Middle runs are charged in closed form on the fast walk when the
    // counters are the whole state crossing positions (countersOnly; a
    // two-deep nest's positions each carry their own trace span), the
    // inner lattice anchor stays put along the middle loop, and every
    // owner is a closed form of the position: replicated, wrapped, or a
    // non-wrapped one that ignores the middle variable and, when it
    // moves along the inner run, sees the same inner run everywhere.
    if (!countersOnly || c.depth < 2 || (c.depth == 2 && opts_.trace))
        return;
    const size_t mid = c.depth - 2, in = c.depth - 1;
    if (nest_.lattice().hnf()(in, mid) != 0)
        return; // the inner anchor moves with the middle variable
    bool fixed_geometry = true;
    for (const auto *level : {&c.lowerForms[in], &c.upperForms[in]})
        for (size_t b : *level)
            fixed_geometry = fixed_geometry && !c.forms[b].dependsOnVar(mid);
    for (const StmtEval &se : c.stmts) {
        for (const RefEval &r : se.refs) {
            if (r.innerKind == InnerKind::Reeval)
                return;
            if (r.distSubs.empty() ||
                c.dists[r.arrayId].spec().kind == ir::DistKind::Wrapped) {
                if (r.innerKind == InnerKind::Stepped)
                    return;
                continue;
            }
            for (const DistSub &ds : r.distSubs)
                if (c.forms[ds.form].dependsOnVar(mid))
                    return;
            if (r.innerKind == InnerKind::Stepped && !fixed_geometry)
                return;
        }
    }
    c.closedMiddle = true;
    c.fixedInner = fixed_geometry;
}

Simulator::RunTally
Simulator::runTally(const ir::Bindings &binds) const
{
    RunTally tally;
    runWith(binds, nullptr, &tally);
    return tally;
}

SimStats
Simulator::run(const ir::Bindings &binds, ir::ArrayStorage *storage) const
{
    return runWith(binds, storage, nullptr);
}

SimStats
Simulator::runWith(const ir::Bindings &binds, ir::ArrayStorage *storage,
                   RunTally *tally) const
{
    if (binds.paramValues.size() != prog_.params.size())
        throw UserError("wrong number of parameter values");
    if (opts_.executeValues && !storage)
        throw UserError("executeValues requires storage");
    if (!opts_.executeValues)
        storage = nullptr;

    Compiled c = compile(binds, storage != nullptr);

    // Fail-stop injection: the victim stops after killAfterSlices of
    // its outer-slice iterations (phase 1); its unstarted positions are
    // redistributed or restarted afterwards (phase 2).
    const FaultOptions &f = opts_.faults;
    const bool kill = f.killProc >= 0 && f.killProc < opts_.processors;
    OuterSlice victim_slice;
    Int victim_total = 0, victim_done = 0;
    if (kill) {
        victim_slice = outerSlice(c, f.killProc);
        victim_total = victim_slice.count();
        victim_done = f.killAfterSlices > uint64_t(victim_total)
                          ? victim_total
                          : Int(f.killAfterSlices);
    }

    // Symmetry-class aggregation: when the partition's structure can
    // be bounded, simulate one representative per equivalence class
    // instead of all P processors. Value-executing runs always take the
    // direct path (every processor's stores must happen).
    SymmetryPlan sym;
    bool aggregate = false;
    if (!storage &&
        (opts_.symmetry == SymmetryMode::Force ||
         (opts_.symmetry == SymmetryMode::Auto &&
          opts_.processors > opts_.symmetryThreshold))) {
        sym = planClasses(c, victim_total - victim_done);
        aggregate = sym.usable;
    }
    // The simulated processors, and the slices of an aggregated run's
    // representatives (or of the processors a run evaluates across),
    // each computed once: the class checks, the evaluation across
    // processors and phase 1 share them. A representative whose slice
    // does not hold the trip count of its class's closed form (or a
    // default one with work) means the symmetry argument does not
    // apply: simulate directly rather than aggregate wrongly.
    std::vector<Int> procs;
    std::vector<OuterSlice> slices;
    if (aggregate) {
        procs.reserve(sym.classCount());
        for (const SymmetryPlan::Group &g : sym.groups)
            procs.push_back(g.representative);
        if (sym.hasDefault)
            procs.push_back(sym.defaultRep);
        slices.reserve(procs.size());
        for (size_t i = 0; i < procs.size() && aggregate; ++i) {
            slices.push_back(outerSlice(c, procs[i]));
            const Int trips = i < sym.groups.size() ? sym.groups[i].trips : 0;
            aggregate = trips < 0 || slices[i].count() == trips;
        }
    }
    if (!aggregate) {
        procs.resize(size_t(opts_.processors));
        std::iota(procs.begin(), procs.end(), Int(0));
        slices.clear();
    }

    // Each simulated processor's stats: an aggregated run charges its
    // class table's representatives in place, perProc stays empty.
    SimStats out;
    out.processors = opts_.processors;
    if (aggregate) {
        out.classes.resize(procs.size());
        for (size_t i = 0; i < sym.groups.size(); ++i) {
            out.classes[i].multiplicity = sym.groups[i].multiplicity;
            out.classes[i].members = sym.groups[i].members;
        }
        if (sym.hasDefault) {
            out.classes.back().multiplicity = sym.defaultCount;
            out.classes.back().isDefault = true;
        }
        out.aggregated = true;
    } else {
        out.perProc.assign(procs.size(), ProcStats{});
    }
    auto stat = [&](size_t i) -> ProcStats & {
        return aggregate ? out.classes[i].rep : out.perProc[i];
    };

    // Trace-event buffers: one per simulated processor, filled inside
    // the (possibly host-parallel) walks and merged in processor order
    // afterwards, so the emitted trace never depends on host-thread
    // interleaving.
    const bool tracing = opts_.trace != nullptr;
    std::vector<std::vector<obs::TraceEvent>> buffers(
        tracing ? procs.size() : 0);
    auto buf = [&](size_t i) {
        return tracing ? &buffers[i] : nullptr;
    };

    // An instant event on simulated processor i's track, stamped with
    // its simulated clock now.
    auto mark = [&](size_t i, const char *name) -> obs::TraceEvent & {
        ProcStats at = stat(i);
        finalizeProcTime(at, c.rates);
        obs::TraceEvent e;
        e.name = name;
        e.ph = 'i';
        e.tid = procs[i];
        e.ts = at.time;
        buffers[i].push_back(std::move(e));
        return buffers[i].back();
    };

    // Phase 1: every simulated processor walks its own slice (the victim
    // only up to its point of death), from `slices` where they are
    // computed.
    auto phase1 = [&](size_t i, ir::ArrayStorage *st) {
        const Int p = procs[i];
        ProcStats &ps = stat(i);
        ps.proc = p;
        if (!kill || p != f.killProc) {
            const OuterSlice slice =
                slices.empty() ? outerSlice(c, p) : slices[i];
            runSlice(c, p, slice, 0, slice.count(), 1, ps, st, binds, buf(i));
            return;
        }
        ps.killed = 1;
        runSlice(c, p, victim_slice, 0, victim_done, 1, ps, st, binds, buf(i));
        if (tracing)
            mark(i, "killed").arg("afterSlices",
                                  obs::jsonNum(uint64_t(victim_done)));
    };

    // Evaluation across processors (planAcross): a run of consecutive
    // simulated processors whose slices hold as many positions and start
    // acrossStep apart is cut by acrossCuts into stretches; a stretch
    // long enough walks its first degree + 1 processors and evaluates
    // the others from them (evaluateStretch). The run's last processor
    // is walked, so that it raises what its walk raises: every value
    // moves affinely with the processor, so the ones between lie
    // between the two ends. The kill victim and its adopters are
    // walked.
    struct ProcStretch
    {
        size_t first, evalFrom, evalTo; //!< indices into procs
    };
    std::vector<ProcStretch> stretches;
    std::vector<uint8_t> evaluated(procs.size(), 0);
    const size_t samples = c.acrossDegree + 1;
    if (c.across && procs.size() >= samples + 2) {
        // A stretch spans at least samples + 1 processors.
        stretches.reserve(procs.size() / (samples + 1));
        const Int survivors = opts_.processors - 1;
        auto walked_anyway = [&](Int p) {
            if (!kill)
                return false;
            if (p == f.killProc)
                return true;
            const Int si = p < f.killProc ? p : p - 1;
            return survivors > 0 && plan_.outerParallel &&
                   victim_done + si < victim_total;
        };
        for (size_t i = slices.size(); i < procs.size(); ++i)
            slices.push_back(outerSlice(c, procs[i]));
        std::vector<uint8_t> eligible(procs.size(), 0);
        for (size_t i = 0; i < procs.size(); ++i) {
            const Int positions = slices[i].count();
            eligible[i] = positions > 0 && positions <= 2 &&
                          !walked_anyway(procs[i]);
        }
        std::vector<uint64_t> cuts;
        for (size_t i = 0, j; i < procs.size(); i = j) {
            for (j = i + 1; eligible[i] && j < procs.size() && eligible[j] &&
                            procs[j] == procs[j - 1] + 1 &&
                            slices[j].count() == slices[i].count() &&
                            Int128(slices[j].start) ==
                                Int128(slices[j - 1].start) + c.acrossStep;
                 ++j) {
            }
            const uint64_t count = j - i;
            cuts.assign({0, count});
            if (count < samples + 2 ||
                !acrossCuts(c, procs[i], slices[i], count, cuts))
                continue;
            std::sort(cuts.begin(), cuts.end());
            cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
            for (size_t b = 1; b < cuts.size(); ++b) {
                const uint64_t from = cuts[b - 1], to = cuts[b],
                               last = to == count;
                if (to - from < samples + 1 + last)
                    continue;
                ProcStretch st{i + from, i + from + samples, i + to - last};
                std::fill(evaluated.begin() + st.evalFrom,
                          evaluated.begin() + st.evalTo, 1);
                stretches.push_back(st);
            }
        }
    }
    std::vector<size_t> walk;
    walk.reserve(procs.size());
    for (size_t i = 0; i < procs.size(); ++i)
        if (!evaluated[i])
            walk.push_back(i);
    if (tally) {
        tally->walked = walk.size();
        tally->evaluated = procs.size() - walk.size();
    }

    // Only the walks use the host threads. A thread that counts or
    // injects checked-arithmetic faults keeps them to itself, so that
    // the operation indices it sees do not depend on scheduling.
    size_t threads = opts_.hostThreads > 0
                         ? size_t(opts_.hostThreads)
                         : ThreadPool::shared().concurrency();
    bool serial = storage != nullptr || !plan_.outerParallel ||
                  threads <= 1 || walk.size() <= 1 || fault::active();
    if (serial) {
        for (size_t i : walk)
            phase1(i, storage);
    } else {
        ThreadPool::shared().parallelFor(
            walk.size(), threads,
            [&](size_t k) { phase1(walk[k], nullptr); });
    }
    // Each evaluated processor's stats: the counters and remoteByArray
    // at its offset in the stretch (remoteByArray stays empty while all
    // zero, as the walk leaves it).
    const size_t n_arrays = c.dists.size();
    const size_t width = std::size(kStatFields) + n_arrays;
    Workspace &ws = workspace(); // this thread's walks are done
    std::vector<uint64_t> &states = ws.states, &values = ws.values;
    states.resize(samples * width);
    for (const ProcStretch &st : stretches) {
        for (size_t k = 0; k < samples; ++k) {
            const ProcStats &ps = stat(st.first + k);
            uint64_t *to = &states[k * width];
            for (uint64_t ProcStats::*fld : kStatFields)
                *to++ = ps.*fld;
            for (size_t a = 0; a < n_arrays; ++a)
                *to++ = ps.remoteByArray.empty() ? 0 : ps.remoteByArray[a];
        }
        values.resize((st.evalTo - st.evalFrom) * width);
        evaluateStretch(states.data(), samples, width,
                        st.evalFrom - st.first, st.evalTo - st.evalFrom,
                        values.data(), ws.diffs);
        for (size_t i = st.evalFrom; i < st.evalTo; ++i) {
            ProcStats &ps = stat(i);
            ps.proc = procs[i];
            const uint64_t *v = &values[(i - st.evalFrom) * width];
            for (uint64_t ProcStats::*fld : kStatFields)
                ps.*fld = *v++;
            if (!std::all_of(v, v + n_arrays,
                             [](uint64_t x) { return x == 0; }))
                ps.remoteByArray.assign(v, v + n_arrays);
        }
    }

    // Phase 2: the victim's unstarted outer-slice positions. With a
    // parallel outer loop and survivors, position done + j is adopted
    // by survivor j mod (P - 1) (survivors keep their own identity for
    // locality, pay one redistribution sync each, and walk with fresh
    // state); otherwise the victim reboots and finishes its own slice.
    if (kill && victim_done < victim_total) {
        Int survivors = opts_.processors - 1;
        if (survivors > 0 && plan_.outerParallel) {
            for (size_t i = 0; i < procs.size(); ++i) {
                Int p = procs[i];
                if (p == f.killProc)
                    continue;
                ProcStats &ps = stat(i);
                addCount(ps.syncs, 1);
                Int si = p < f.killProc ? p : p - 1;
                Int first = victim_done + si;
                if (first >= victim_total)
                    continue;
                Int adopted = (victim_total - 1 - first) / survivors + 1;
                addCount(ps.reassignedSlices, uint64_t(adopted));
                runSlice(c, p, victim_slice, first, victim_total,
                         survivors, ps, storage, binds, buf(i), "adopt");
            }
        } else {
            for (size_t i = 0; i < procs.size(); ++i) {
                if (procs[i] != f.killProc)
                    continue;
                ProcStats &ps = stat(i);
                addCount(ps.restarts, 1);
                if (tracing)
                    mark(i, "restart");
                runSlice(c, f.killProc, victim_slice, victim_done,
                         victim_total, 1, ps, storage, binds, buf(i),
                         "restart");
            }
        }
    }

    for (size_t i = 0; i < procs.size(); ++i)
        finalizeProcTime(stat(i), c.rates);

    // Per-reference labels, for the observability layer's tables.
    if (opts_.perReference) {
        out.refNames.assign(c.numRefs, "");
        for (size_t si = 0; si < c.stmts.size(); ++si) {
            const StmtEval &se = c.stmts[si];
            size_t read_idx = 0;
            for (const RefEval &re : se.refs) {
                std::string label = "s" + std::to_string(si) +
                                    (re.isWrite
                                         ? ".w "
                                         : ".r" + std::to_string(read_idx++) +
                                               " ") +
                                    prog_.arrays[re.arrayId].name;
                out.refNames[re.globalIdx] = std::move(label);
            }
        }
    }

    // Merge the per-processor trace buffers in processor order, then
    // add one summary span per processor spanning its whole simulated
    // run. The merged order (and every timestamp, already stamped from
    // the simulated clock) is a pure function of the counters, so the
    // trace is byte-identical across host-thread counts and inner-loop
    // strategies.
    if (tracing) {
        obs::Trace &tr = *opts_.trace;
        for (size_t i = 0; i < procs.size(); ++i) {
            tr.thread(opts_.tracePid, procs[i],
                      "proc " + std::to_string(procs[i]));
            obs::TraceEvent sum;
            sum.name = "slice";
            sum.ph = 'X';
            sum.tid = procs[i];
            sum.ts = 0.0;
            const ProcStats &ps = stat(i);
            sum.dur = ps.time;
            sum.arg("iterations", obs::jsonNum(ps.iterations));
            sum.arg("local", obs::jsonNum(ps.localAccesses));
            sum.arg("remote", obs::jsonNum(ps.remoteAccesses));
            sum.arg("blockTransfers", obs::jsonNum(ps.blockTransfers));
            sum.arg("blockElements", obs::jsonNum(ps.blockElements));
            sum.arg("syncs", obs::jsonNum(ps.syncs));
            // Aggregated runs trace representatives only; the class
            // size says how many processors this track stands for.
            // Direct runs emit exactly the historical byte stream.
            if (aggregate)
                sum.arg("classSize",
                        obs::jsonNum(out.classes[i].multiplicity));
            sum.pid = opts_.tracePid;
            tr.add(std::move(sum));
            for (obs::TraceEvent &e : buffers[i]) {
                e.pid = opts_.tracePid;
                tr.add(std::move(e));
            }
        }
    }

    return out;
}

double
sequentialTime(const ir::Program &prog, const xform::TransformedNest &nest,
               const MachineParams &machine, const IntVec &params)
{
    SimOptions opts;
    opts.processors = 1;
    opts.machine = machine;
    opts.blockTransfers = false;
    ExecutionPlan plan;
    Simulator sim(prog, nest, plan, opts);
    ir::Bindings binds{params,
                       std::vector<double>(prog.scalars.size(), 1.0)};
    return sim.run(binds).parallelTime();
}

SimStats
simulateOwnership(const ir::Program &prog, const SimOptions &opts,
                  const ir::Bindings &binds)
{
    const MachineParams &m = opts.machine;
    opts.validate();
    m.validate();
    Int procs = opts.processors;
    std::vector<Distribution> dists;
    for (const ir::ArrayDecl &a : prog.arrays)
        dists.emplace_back(a.dist, a.evalExtents(binds.paramValues), procs);

    // Symmetry aggregation for the baseline: the walk is O(iterations)
    // regardless of P, but the per-processor bookkeeping is not --
    // discover the touched owners on the fly (O(min(P, elements))
    // singleton classes), and fold every untouched processor into one
    // default class that pays only the guard sweep.
    const bool aggregate =
        opts.symmetry == SymmetryMode::Force ||
        (opts.symmetry == SymmetryMode::Auto &&
         procs > opts.symmetryThreshold);
    SimStats out;
    out.processors = procs;
    if (!aggregate) {
        out.perProc.resize(size_t(procs));
        for (Int p = 0; p < procs; ++p)
            out.perProc[size_t(p)].proc = p;
    }
    std::unordered_map<Int, size_t> slot_of;
    std::vector<ProcStats> touched;
    CostRates rates;
    rates.loopOverhead = m.loopOverheadTime;
    rates.flop = m.flopTime;
    rates.local = m.localAccessTime;
    rates.remote = m.remoteTime(int(procs));
    rates.guard = m.guardTime;

    // Compile every reference's distribution coordinates once; the
    // ownership rule re-walks the untransformed nest, so subscripts are
    // integer dot products via the shared helper.
    struct OwnRef
    {
        size_t arrayId;
        std::vector<std::pair<size_t, ir::CompiledAffine>> distSubs;
    };
    struct OwnStmt
    {
        size_t flops;
        OwnRef lhs;
        std::vector<OwnRef> refs; //!< reads, then the write again
    };
    auto compile_ref = [&](const ir::ArrayRef &r) {
        OwnRef o;
        o.arrayId = r.arrayId;
        for (size_t dim : dists[r.arrayId].spec().dims) {
            if (dim >= r.subscripts.size())
                throw InternalError(
                    "distribution dimension exceeds reference rank");
            o.distSubs.emplace_back(
                dim, ir::CompiledAffine::compile(r.subscripts[dim],
                                                 binds.paramValues));
        }
        return o;
    };
    std::vector<OwnStmt> stmts;
    for (const ir::Statement &s : prog.nest.body()) {
        OwnStmt os;
        os.flops = s.flopCount();
        os.lhs = compile_ref(s.lhs);
        s.rhs.forEachRef(
            [&](const ir::ArrayRef &r) { os.refs.push_back(compile_ref(r)); });
        os.refs.push_back(compile_ref(s.lhs));
        stmts.push_back(std::move(os));
    }

    auto owner_of = [&](const OwnRef &r, const IntVec &it) -> Int {
        if (r.distSubs.empty())
            return -1;
        Int c0 = r.distSubs[0].second.eval(it);
        Int c1 = r.distSubs.size() > 1 ? r.distSubs[1].second.eval(it) : 0;
        return dists[r.arrayId].ownerOfDistCoords(c0, c1);
    };

    uint64_t total_iterations = 0;
    ir::forEachIteration(prog.nest, binds.paramValues, [&](const IntVec &it) {
        ++total_iterations;
        for (const OwnStmt &s : stmts) {
            // Owner of the left-hand side element (replicated lhs runs
            // on processor 0 by convention).
            Int own = s.lhs.distSubs.empty() ? 0 : owner_of(s.lhs, it);
            ProcStats *psp = nullptr;
            if (own >= 0 && own < procs) {
                if (aggregate) {
                    auto [at, fresh] =
                        slot_of.try_emplace(own, touched.size());
                    if (fresh) {
                        touched.emplace_back();
                        touched.back().proc = own;
                    }
                    psp = &touched[at->second];
                } else {
                    psp = &out.perProc[size_t(own)];
                }
            }
            if (!psp)
                continue;
            ProcStats &ps = *psp;
            addCount(ps.iterations, 1);
            addCount(ps.flops, s.flops);
            for (const OwnRef &r : s.refs) {
                Int o = owner_of(r, it);
                if (o < 0 || o == own) {
                    addCount(ps.localAccesses, 1);
                } else {
                    ps.noteRemote(r.arrayId, dists.size());
                }
            }
        }
    });

    // Every processor pays the guard on every iteration -- the
    // "looking for work to do" cost.
    if (aggregate) {
        std::sort(touched.begin(), touched.end(),
                  [](const ProcStats &a, const ProcStats &b) {
                      return a.proc < b.proc;
                  });
        out.classes.reserve(touched.size() + 1);
        for (ProcStats &ps : touched) {
            addCount(ps.guardChecks, total_iterations);
            finalizeProcTime(ps, rates);
            ProcClass pc;
            pc.multiplicity = 1;
            pc.members = ProcRange{ps.proc, 1, 1};
            pc.rep = std::move(ps);
            out.classes.push_back(std::move(pc));
        }
        if (uint64_t(touched.size()) < uint64_t(procs)) {
            ProcClass pc;
            Int rep = 0;
            for (const ProcClass &t : out.classes) {
                if (t.rep.proc != rep)
                    break;
                ++rep;
            }
            pc.rep.proc = rep;
            pc.rep.guardChecks = total_iterations;
            finalizeProcTime(pc.rep, rates);
            pc.multiplicity = uint64_t(procs) - touched.size();
            pc.isDefault = true;
            out.classes.push_back(std::move(pc));
        }
        out.aggregated = true;
    } else {
        for (ProcStats &ps : out.perProc) {
            addCount(ps.guardChecks, total_iterations);
            finalizeProcTime(ps, rates);
        }
    }
    return out;
}

} // namespace anc::numa
