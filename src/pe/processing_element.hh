/**
 * @file
 * Processing-element-resident trace state.
 *
 * Each PE holds one in-flight trace (Figure 2). Intra-trace values are
 * pre-renamed to producer slot indices once, when the trace is selected
 * (TraceSlot::dep1/dep2), and bypass locally; only live-in and live-out
 * registers are renamed to global physical registers at dispatch.
 * Instructions remain in the PE until retirement, which is what makes
 * selective reissue transparent (Section 2.2.3): whenever an input value
 * arrives again, the consumer simply reissues.
 */

#ifndef TPROC_PE_PROCESSING_ELEMENT_HH
#define TPROC_PE_PROCESSING_ELEMENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "rename/rename.hh"
#include "tpred/trace_predictor.hh"
#include "trace/trace.hh"

namespace tproc
{

/** Index of the lowest set bit of a nonzero mask. */
inline int
lowestSlot(uint64_t m)
{
    return __builtin_ctzll(m);
}

/** Mask of slots [0, n) (n <= maxSlotsPerTrace). */
constexpr uint64_t
lowSlots(size_t n)
{
    return n >= maxSlotsPerTrace ? ~uint64_t(0)
                                 : slotBit(static_cast<int>(n)) - 1;
}

/**
 * Dynamic state of one instruction slot in a PE. The static facts (pc,
 * instruction, selection-time branch outcome, FGCI region flags, the
 * pre-renamed in-trace producers and consumers) stay in the trace
 * (InFlightTrace::at), and the issue status lives in the trace's slot
 * masks; a DynSlot holds only what dispatch and execution add.
 *
 * Field order is load-bearing for the hot path: the issue walk reads
 * the issue gate and the renamed sources of each candidate and the
 * completion walk reads the completion gate and waitingBus, so those
 * lead the struct (first cache line), ahead of the flags and the values.
 */
struct DynSlot
{
    /** @name Scheduling gates and renaming (read by every walk). */
    /// @{
    Cycle earliestIssue = 0;    //!< dispatch / repair / reissue gate
    Cycle execDoneAt = 0;   //!< completion time of the in-flight issue
    /** Live-in phys reg for rs1; valid iff the slot reads rs1 and has
     *  no in-trace producer for it (TraceSlot::dep1 < 0). */
    PhysReg src1 = invalidPhysReg;
    PhysReg src2 = invalidPhysReg;
    PhysReg dest = invalidPhysReg;  //!< live-out phys reg (last writers)
    uint32_t issueCount = 0;        //!< times issued (reissue statistics)
    /// @}

    /** @name Execution flags. */
    /// @{
    bool waitingBus = false;    //!< agen done, waiting for a cache bus
    bool agenDone = false;      //!< effective address computed
    bool performed = false;     //!< store version live in the ARB
    bool resolvedTaken = false;     //!< branch outcome of last execution
    /** Value-change filter across reissues: consumers only reissue when
     *  a recompletion actually produced a different value. Deliberately
     *  not cleared by resetDynamic. */
    bool everCompleted = false;
    /// @}

    /** @name Execution state. */
    /// @{
    int64_t value = 0;      //!< result (dest value / store data / br cond)
    int64_t lastValue = 0;
    int64_t srcVal1 = 0;    //!< operand values captured at issue
    int64_t srcVal2 = 0;
    Addr effAddr = invalidAddr;
    Addr brTarget = invalidAddr;    //!< resolved indirect target
    /// @}

    /** Clear execution state so the slot issues again from scratch.
     *  earliestIssue is preserved; callers adjust it explicitly, and
     *  the slot's status bits are the caller's (InFlightTrace masks). */
    void
    resetDynamic()
    {
        execDoneAt = 0;
        value = 0;
        resolvedTaken = false;
        brTarget = invalidAddr;
        effAddr = invalidAddr;
        agenDone = false;
        performed = false;
        waitingBus = false;
    }
};

static_assert(sizeof(DynSlot) <= 88,
              "DynSlot grew: static slot facts belong in the trace");

/** A live-out register of a trace. */
struct LiveOut
{
    ArchReg arch;
    PhysReg phys;
    int slot;
};

/** A trace resident in a PE, with full recovery metadata. */
struct InFlightTrace
{
    TraceUid uid = invalidTraceUid;
    std::shared_ptr<const Trace> trace;
    int peId = -1;
    /** One per trace slot (slots.size() == trace->size()). */
    std::vector<DynSlot> slots;
    std::vector<LiveOut> liveOuts;

    /** Global map snapshot taken before this trace was renamed; recovery
     *  backs the maps up to this state (Section 2.1). */
    RenameMap mapBefore;
    /** Trace predictor path history before this trace was predicted. */
    PathHistory histBefore;

    /** Logical position in the window; re-derived from the PE linked
     *  list whenever the window changes (disambiguation support). */
    int64_t logicalPos = -1;

    /** @name Slot masks (bit i = slot i).
     * The slot status itself: there are no per-slot issued/completed
     * flags. The first three partition the slots; the processor's
     * issue/complete/reissue transitions move bits between them, and
     * resetStatusFrom() re-marks a dispatched or repaired suffix. The
     * issue and completion phases walk their set bits instead of every
     * slot, and skip a trace whose mask is empty. */
    /// @{
    uint64_t notIssuedMask = 0;     //!< never issued, or reissued since
    uint64_t inFlightMask = 0;      //!< issued, not yet completed
    uint64_t completedMask = 0;     //!< issued and completed
    /** Slots whose in-trace producers have all completed (operand
     *  wakeup: a completion sets its consumers' bits, a reissue of a
     *  completed slot clears them). */
    uint64_t localReadyMask = 0;
    /** Un-issued slots parked on a live-in register that had no value
     *  when probed; the issue walk skips them until the register file's
     *  write signature meets parkSig (the OR of their registers'
     *  PhysRegFile::sigBit), then wakes them all. */
    uint64_t parkedMask = 0;
    uint64_t parkSig = 0;
    /// @}

    size_t size() const { return slots.size(); }

    /** Static facts of slot i, read from the trace. */
    const TraceSlot &at(size_t i) const { return trace->slots[i]; }

    bool completed(int i) const { return completedMask & slotBit(i); }

    /** True iff every in-trace producer of slot i has completed. */
    bool
    locallyReady(size_t i) const
    {
        return (at(i).producers & ~completedMask) == 0;
    }

    /** Mark slots [from, size()) not issued, keep the status of the
     *  slots before them, and recompute local readiness (dispatch
     *  passes 0, repair the surviving prefix length). Unparks all. */
    void
    resetStatusFrom(size_t from)
    {
        const uint64_t keep = lowSlots(from);
        notIssuedMask = (notIssuedMask & keep) | (lowSlots(size()) & ~keep);
        inFlightMask &= keep;
        completedMask &= keep;
        localReadyMask = parkedMask = parkSig = 0;
        for (size_t i = 0; i < slots.size(); ++i) {
            if (locallyReady(i))
                localReadyMask |= slotBit(static_cast<int>(i));
        }
    }
};

/**
 * Rename a freshly selected trace against the global map, in place.
 *
 * Intra-trace dependences were resolved at selection; only the live-ins
 * are mapped (reading the pre-update map) and the trace's live-outs
 * allocated and installed in the map. t is fully re-initialized for the
 * new trace but keeps its vectors' capacity — the processor's PE slot
 * pool recycles the same InFlightTrace across dispatches, so the steady
 * state allocates nothing.
 */
void initInFlightTrace(InFlightTrace &t, TraceUid uid,
                       std::shared_ptr<const Trace> trace, RenameMap &map,
                       PhysRegFile &prf);

/**
 * Replace the instructions of a PE-resident trace after slot prefix_len
 * with the repaired trace's instructions (FGCI-style intra-PE repair).
 *
 * Slots [0, prefix_len) keep their dynamic state and status bits; the
 * repaired trace is guaranteed by selection determinism to share that
 * prefix, and the suffix is marked not issued. Live-out
 * physical registers of surviving prefix last-writers are preserved; old
 * suffix live-outs are appended to deferred_free (released once the
 * subsequent re-dispatch pass has re-pointed all consumers).
 *
 * @param map the global map, already restored to t.mapBefore
 * @param now current cycle (publishing values of prefix slots that newly
 *        became live-outs)
 */
void repairInFlightTrace(InFlightTrace &t,
                         std::shared_ptr<const Trace> new_trace,
                         size_t prefix_len, RenameMap &map, PhysRegFile &prf,
                         Cycle now, std::vector<PhysReg> &deferred_free);

/**
 * Trace re-dispatch (Section 2.2.1): re-rename live-ins against the
 * updated map; live-outs keep their mappings and are re-installed into
 * the map. @return slot indices whose source register names changed and
 * must therefore reissue.
 */
std::vector<int> redispatchInFlightTrace(InFlightTrace &t, RenameMap &map);

} // namespace tproc

#endif // TPROC_PE_PROCESSING_ELEMENT_HH
