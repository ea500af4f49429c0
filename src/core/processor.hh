/**
 * @file
 * The trace processor: cycle-level, execution-driven model of Figure 2
 * with the control-independence mechanisms of Sections 2-4.
 *
 * Pipeline per cycle:
 *   completions -> cache buses -> result buses -> load violations ->
 *   misprediction events (recovery) -> retirement -> dispatch -> issue ->
 *   frontend fetch.
 *
 * The window is the paper's linked-list control structure: an ordered
 * sequence of PE-resident traces supporting insertion and removal in the
 * middle (CGCI). Retirement is optionally verified instruction by
 * instruction against the golden functional emulator, which checks the
 * entire control-independence machinery end to end: every control and
 * data repair must converge to the architectural execution.
 *
 * The cycle loop is serial and every phase runs in window order; the
 * issue and completion phases are event-driven within a trace: per-PE
 * slot masks (not issued / in flight / completed / locally ready) let
 * them visit only the slots that can act, in slot order, and a
 * completion wakes or reissues exactly its local consumers. Statistics
 * are those of a full slot-by-slot scan, and tests/test_golden.cc pins
 * them bit for bit.
 */

#ifndef TPROC_CORE_PROCESSOR_HH
#define TPROC_CORE_PROCESSOR_HH

#include <deque>
#include <memory>
#include <vector>

#include "arb/arb.hh"
#include "cache/dcache.hh"
#include "common/logging.hh"
#include "common/timeseries.hh"
#include "core/config.hh"
#include "emulator/emulator.hh"
#include "frontend/frontend.hh"
#include "pe/processing_element.hh"
#include "rename/rename.hh"

namespace tproc
{

/**
 * What the retirement watchdog raises when no trace has retired for
 * cfg.watchdogCycles. Under a ScopedErrorCapture it is thrown as-is, so
 * harnesses (sweep fault isolation, the soak campaign) get the machine
 * state as structured fields rather than a formatted string to regex:
 * the firing cycle, the stall length, the window occupancy, and the
 * workload/seed identity the harness stamped via Processor::setIdentity.
 * Outside a capture it degrades to the usual panic/abort.
 */
struct WatchdogError : SimError
{
    WatchdogError(const std::string &msg, uint64_t cycle_,
                  uint64_t stalled_cycles, size_t window_size,
                  std::string identity_)
        : SimError(msg), cycle(cycle_), stalledCycles(stalled_cycles),
          windowSize(window_size), identity(std::move(identity_))
    {}

    uint64_t cycle;         //!< cycle at which the watchdog fired
    uint64_t stalledCycles; //!< cycles since the last retirement
    size_t windowSize;      //!< traces resident when it fired
    std::string identity;   //!< workload/seed identity ("" if unset)
};

/** Aggregate statistics for one simulation. */
struct ProcessorStats
{
    uint64_t cycles = 0;
    uint64_t retiredInsts = 0;
    uint64_t retiredTraces = 0;
    uint64_t retiredTraceLenSum = 0;
    uint64_t dispatchedTraces = 0;
    uint64_t squashedTraces = 0;
    uint64_t squashedInsts = 0;

    uint64_t mispEvents = 0;        //!< trace mispredictions repaired
    uint64_t condMispEvents = 0;
    uint64_t indirectMispEvents = 0;
    uint64_t recoveriesFgci = 0;
    uint64_t recoveriesCgci = 0;
    uint64_t recoveriesFull = 0;
    uint64_t cgciReconverged = 0;
    uint64_t cgciAbandoned = 0;
    uint64_t tracesPreserved = 0;   //!< CI traces kept across recoveries
    uint64_t redispatchedTraces = 0;
    uint64_t reissuedSlots = 0;
    uint64_t reissueLocal = 0;      //!< producer recompletion cascades
    uint64_t reissueGlobal = 0;     //!< phys-reg re-broadcast cascades
    uint64_t reissueViol = 0;       //!< memory ordering violations
    uint64_t reissueRedisp = 0;     //!< re-dispatch source-name changes
    uint64_t loadViolations = 0;

    uint64_t insertActiveCycles = 0;   //!< cycles with an insertion open
    uint64_t dispatchBlockedCycles = 0; //!< dispatch bus busy (repairs)
    uint64_t fetchStallCycles = 0;      //!< frontend produced nothing

    uint64_t retiredCondBranches = 0;
    uint64_t retiredBranchMisps = 0;    //!< prediction != outcome at retire

    /** @name Component statistics (copied at end of run). */
    /// @{
    uint64_t tcLookups = 0, tcMisses = 0;
    uint64_t icAccesses = 0, icMisses = 0;
    uint64_t dcAccesses = 0, dcMisses = 0;
    uint64_t bitLookups = 0, bitMisses = 0;
    uint64_t tracePredictions = 0, fallbackFetches = 0, constructions = 0;
    /// @}

    double
    ipc() const
    {
        return cycles ? static_cast<double>(retiredInsts) / cycles : 0.0;
    }

    double
    avgRetiredTraceLen() const
    {
        return retiredTraces ?
            static_cast<double>(retiredTraceLenSum) / retiredTraces : 0.0;
    }

    /** Trace mispredictions per 1000 retired instructions. */
    double
    traceMispPerKilo() const
    {
        return retiredInsts ?
            1000.0 * mispEvents / retiredInsts : 0.0;
    }

    /** Trace-cache misses per 1000 retired instructions. */
    double
    tcMissPerKilo() const
    {
        return retiredInsts ? 1000.0 * tcMisses / retiredInsts : 0.0;
    }
};

/**
 * Host-independent work done by the scheduler, kept outside
 * ProcessorStats so it never enters a StatDict (golden snapshots and
 * sweep artifacts are unaffected). Deterministic for a given run, so
 * benches can gate it exactly.
 */
struct SchedWork
{
    uint64_t operandProbes = 0;     //!< global readiness probes
    uint64_t issuedSlots = 0;       //!< slot issues (first and reissues)
    uint64_t issueCandidates = 0;   //!< slots the issue walk visited
    uint64_t completionVisits = 0;  //!< slots the completion walk visited
    uint64_t consumerVisits = 0;    //!< local consumers a completion woke

    double
    probesPerIssue() const
    {
        return issuedSlots ?
            static_cast<double>(operandProbes) / issuedSlots : 0.0;
    }
};

class Processor
{
  public:
    /**
     * @param golden_source the architectural stream retirement is
     * verified against when cfg.verifyRetirement is set; defaults to a
     * live Emulator over prog_. A replay::ReplaySource here runs the
     * whole simulation off a recorded trace instead.
     */
    Processor(const Program &prog_, const ProcessorConfig &cfg_,
              std::unique_ptr<ArchSource> golden_source = nullptr);
    ~Processor();

    /** Run until HALT retires (or limits hit). @return final stats. */
    const ProcessorStats &run(uint64_t max_insts = UINT64_MAX,
                              uint64_t max_cycles = UINT64_MAX);

    /** Advance one cycle. */
    void step();

    bool done() const { return simDone; }
    Cycle now() const { return curCycle; }
    const ProcessorStats &statsSoFar() const { return stats; }

    /** Window occupancy (diagnostics / tests). */
    size_t windowSize() const { return window.size(); }

    /** Stamp a workload/seed identity onto watchdog errors (harness
     *  use; has no effect on the simulation itself). */
    void setIdentity(std::string id) { identity = std::move(id); }

    /** Scheduler work counters so far. */
    const SchedWork &schedWork() const { return work; }

    /** Check internal invariants (tests call this liberally): PE
     *  accounting, and each resident trace's slot masks against its
     *  slot flags and dep1/dep2. */
    void checkInvariants() const;

    /** @name Windowed telemetry (cfg.metricsInterval > 0).
     * The recorder is a pure observer of the counters the simulation
     * already maintains, so statistics are bit-identical whether or
     * not it runs; with sampling off the cycle loop pays exactly one
     * branch. docs/metrics.md is the normative channel reference. */
    /// @{
    /** Channel names, in sample-row order. */
    static const std::vector<std::string> &metricsChannels();
    /** Interval series recorded so far; null when sampling is off. */
    const IntervalSeries *metricsSeries() const;
    /** Wall seconds spent polling the window for completions and
     *  issue so far; 0 when sampling is off. */
    double metricsComputeSeconds() const;
    /** Wall seconds spent in the whole cycle loop so far; 0 when
     *  sampling is off. Everything but completion and issue polling
     *  is the difference. */
    double metricsCycleSeconds() const;
    /// @}

  private:
    /** A detected control misprediction awaiting recovery. */
    struct MispEvent
    {
        TraceUid uid;
        int slot;
        bool indirect;      //!< indirect-target (vs conditional direction)
    };

    struct BusRequest
    {
        TraceUid uid;
        int slot;
        PhysReg dest;
        int64_t value;
    };

    struct CacheRequest
    {
        TraceUid uid;
        int slot;
    };

    /** CGCI insertion mode (Section 2.1, coarse-grain recovery). */
    struct InsertMode
    {
        bool active = false;
        TraceUid targetUid = invalidTraceUid;   //!< assumed first CI trace
        Cycle deadline = 0;     //!< abandon if re-convergence takes longer
    };

    /** @name Window helpers. */
    /// @{
    /** Resident trace by uid: a linear probe of the PE uid array (at
     *  most numPEs comparisons over two cache lines — cheaper than any
     *  hash for a 16-entry window, and stale uids simply miss). */
    InFlightTrace *find(TraceUid uid);
    const InFlightTrace *find(TraceUid uid) const;
    /** The trace at window position wpos (O(1) pool index). */
    InFlightTrace &entryAt(size_t wpos) { return pePool[windowPe[wpos]]; }
    const InFlightTrace &
    entryAt(size_t wpos) const
    {
        return pePool[windowPe[wpos]];
    }
    int windowIndex(TraceUid uid) const;    //!< -1 if absent
    int64_t orderOf(TraceUid uid) const;    //!< ARB ordering callback
    void refreshLogicalPositions();
    /// @}

    /** @name Pipeline phases. */
    /// @{
    void phaseCompletions();
    void phaseCacheBuses();
    void phaseResultBuses();
    void phaseViolations();
    void phaseEvents();
    void phaseRetire();
    void phaseDispatch();
    void phaseIssue();
    /// @}

    /** @name Execution. */
    /// @{
    /** First live-in operand register not ready this cycle, or
     *  invalidPhysReg; in-trace operands are the caller's
     *  InFlightTrace::locallyReady check (the local-ready mask). */
    PhysReg unreadyLiveIn(const DynSlot &d) const;
    int64_t operandValue(const InFlightTrace &t, int dep, PhysReg src) const;
    void issueSlot(InFlightTrace &t, int slot);
    /** One PE's issue/execute pass over its own slots. */
    void issueTrace(InFlightTrace &t);
    void completeSlot(InFlightTrace &t, int slot);
    void reissueSlot(InFlightTrace &t, int slot, Cycle earliest);
    void reissueConsumersOf(PhysReg reg);
    /// @}

    /** @name Recovery. */
    /// @{
    void recoverCond(InFlightTrace &t, int slot);
    void recoverIndirect(InFlightTrace &t, int slot);
    /** Squash one trace (ARB cleanup, register frees, PE release). */
    void squashTrace(TraceUid uid);
    /** Squash window entries with index > idx (from the tail down). */
    void squashAllAfter(int idx);
    /** Map state just after trace t (snapshot + its live-outs). */
    RenameMap mapAfter(const InFlightTrace &t) const;
    /** Speculative history up to and including window[idx]. */
    PathHistory historyUpTo(int idx) const;
    /** Point fetch at the continuation of t (fallthrough / indirect). */
    void redirectAfterTrace(InFlightTrace &t, Cycle resume_at);
    /** Atomic re-dispatch pass over window[start_idx..]; map must equal
     *  the state after window[start_idx-1]. */
    void redispatchFrom(int start_idx, Cycle first_cycle);
    /** Locate the first control independent trace per the CGCI
     *  heuristics; -1 if none. @param t the mispredicted trace's index */
    int findCgciTarget(int t_idx, const DynSlot &branch);
    void exitInsertModeAbandon();
    void releaseDeferredFrees();
    /// @}

    void verifyRetiredSlot(const InFlightTrace &t, const DynSlot &d);
    void checkSlotMasks(const InFlightTrace &t, size_t pos) const;

    const Program &prog;
    ProcessorConfig cfg;
    ProcessorStats stats;
    SchedWork work;

    Frontend frontend;
    DCache dcache;
    Arb arb;
    PhysRegFile prf;
    RenameMap map;          //!< speculative map at the dispatch point
    RenameMap retireMap;    //!< architectural map at retirement
    SparseMemory mem;       //!< committed memory state
    std::unique_ptr<ArchSource> golden;

    /** The linked-list window: trace uids in logical (program) order. */
    std::vector<TraceUid> window;
    /** PE index of each window entry (parallel to window): the paper's
     *  physical-to-logical translation, giving O(1) access from a
     *  window position to the resident trace. */
    std::vector<int> windowPe;
    /**
     * Flat PE slot pool, indexed by PE id. Each PE holds at most one
     * in-flight trace (window.size() + freePes.size() == numPEs), so
     * the pool replaces the old uid-keyed map of heap-allocated
     * traces: dispatch re-initializes a pool entry in place (vector
     * capacities survive, so the steady state allocates nothing), and
     * lookup is an index or a short scan instead of a hash.
     */
    std::vector<InFlightTrace> pePool;
    /** Resident trace uid per PE; invalidTraceUid = free. find() probes
     *  this dense array. */
    std::vector<TraceUid> peUid;
    std::vector<int> freePes;

    std::vector<MispEvent> events;
    std::deque<BusRequest> busQueue;
    std::deque<CacheRequest> cacheQueue;
    std::vector<PhysReg> deferredFree;

    /** @name Per-cycle scratch (members so the hot phases allocate
     *  nothing; contents are dead between cycles). */
    /// @{
    std::vector<int> busPerPe;
    std::vector<CacheRequest> cacheKept;
    std::vector<BusRequest> busKept;
    /// @}

    /** Telemetry recorder state; null when cfg.metricsInterval is 0. */
    struct MetricsState;
    std::unique_ptr<MetricsState> metrics;
    /** Advance the cycle-loop phases (the pre-telemetry step body). */
    void stepPhases();
    /** Throw (capture active) or panic with the watchdog diagnosis. */
    [[noreturn]] void raiseWatchdog();
    /** Per-cycle accumulation + interval-boundary sampling. */
    void tickMetrics();
    /** Emit one sample covering the @p elapsed cycles since the last
     *  sample (cfg.metricsInterval at a countdown boundary, less for
     *  the end-of-run partial flush) and reset the accumulators. */
    void sampleMetrics(uint64_t elapsed);

    InsertMode insertMode;

    std::string identity;   //!< harness-stamped label for watchdog errors

    Cycle curCycle = 0;
    Cycle dispatchBusyUntil = 0;
    TraceUid nextUid = 1;
    TraceUid lastDispatchedUid = invalidTraceUid;
    Addr dispatchExpectedPc;    //!< start pc the next dispatch must have
    bool simDone = false;
    Cycle lastRetireCycle = 0;
};

} // namespace tproc

#endif // TPROC_CORE_PROCESSOR_HH
