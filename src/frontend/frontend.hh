/**
 * @file
 * Trace processor frontend (Figure 6): next-trace prediction, trace
 * cache, outstanding trace buffers with non-blocking construction, and
 * trace repair construction.
 *
 * The frontend produces an in-order queue of pending traces (the
 * outstanding trace buffers); the processor's dispatch stage consumes one
 * per cycle when the head is ready and a PE is free. Trace-cache misses
 * construct the trace from the instruction cache using the branch
 * predictor (serialized on the single construction port); trace
 * mispredictions are repaired here as well (buildRepair).
 */

#ifndef TPROC_FRONTEND_FRONTEND_HH
#define TPROC_FRONTEND_FRONTEND_HH

#include <deque>
#include <memory>

#include "arb/arb.hh"
#include "bpred/branch_predictor.hh"
#include "cache/icache.hh"
#include "core/config.hh"
#include "tcache/trace_cache.hh"
#include "tpred/trace_predictor.hh"
#include "trace/selection.hh"

namespace tproc
{

/** An entry in the outstanding trace buffers, awaiting dispatch. */
struct PendingTrace
{
    std::shared_ptr<const Trace> trace;
    Cycle readyAt = 0;
    PathHistory histBefore;
    bool tcacheHit = false;
};

class Frontend
{
  public:
    Frontend(const Program &prog_, const ProcessorConfig &cfg_);

    /** Advance fetch by one cycle: predict / look up / construct at most
     *  one trace into the pending queue. */
    void cycle(Cycle now);

    bool
    hasReady(Cycle now) const
    {
        return !queue.empty() && queue.front().readyAt <= now;
    }

    /** Head of the pending queue (only valid when hasReady()). */
    const PendingTrace &peek() const { return queue.front(); }

    PendingTrace pop();

    /**
     * Redirect fetch after a recovery. Flushes the pending queue.
     *
     * @param new_hist rebuilt speculative path history
     * @param next_pc where fetch resumes; invalidAddr means the resume
     *        point is the unresolved target of the indirect at
     *        last_indirect_pc (fetch stalls until indirectResolved)
     * @param resume_at earliest cycle fetch may produce again
     */
    void redirect(const PathHistory &new_hist, Addr next_pc,
                  Addr last_indirect_pc, Cycle resume_at);

    /** FGCI recovery: history refresh only; pending queue is preserved
     *  because subsequent traces are unaffected. */
    void setHistory(const PathHistory &new_hist) { hist = new_hist; }

    /** True if fetch is stalled waiting for an indirect target. */
    bool waitingIndirect() const { return waitingForIndirect; }

    /** @name Introspection for diagnostics and tests. */
    /// @{
    size_t queueSize() const { return queue.size(); }
    bool haltSeenByFetch() const { return haltSeen; }
    Addr fetchPc() const { return nextPc; }
    /// @}

    /** Supply the resolved target of the indirect fetch is stalled on. */
    void indirectResolved(Addr target);

    /** Train the next-trace predictor on the retired trace stream. */
    void trainRetire(const TraceId &id);

    /**
     * Build the repaired trace for a misprediction at branch_slot of
     * orig (Section 2.1): the prefix outcomes are preserved, the
     * mispredicted branch is corrected, and the rest is re-predicted —
     * except that an FGCI-covered repair replays the original outcomes
     * after the region's re-convergent point, which (together with
     * length padding) guarantees the repaired trace ends where the
     * original did.
     *
     * @return repaired trace, repair fetch latency in cycles, and the
     *         preserved prefix length (branch_slot + 1)
     */
    struct RepairResult
    {
        std::shared_ptr<const Trace> trace;
        Cycle readyAt = 0;      //!< when the repaired trace is available
        size_t prefixLen = 0;
    };
    RepairResult buildRepair(Cycle now, const Trace &orig, int branch_slot,
                             bool corrected_taken, bool fgci_covered);

    /** @name Component access. */
    /// @{
    BranchPredictor &branchPredictor() { return bpred; }
    TraceCache &traceCache() { return tcache; }
    TracePredictor &tracePredictor() { return tpred; }
    ICache &icache() { return icacheModel; }
    Bit &bitTable() { return bit; }
    const PathHistory &history() const { return hist; }
    /// @}

    /** @name Statistics. */
    /// @{
    uint64_t constructions = 0;
    uint64_t predictions = 0;       //!< traces supplied by the predictor
    uint64_t fallbackFetches = 0;   //!< traces built without a prediction
    /// @}

  private:
    /** Construct a trace from start_pc (trace-cache miss path). */
    PendingTrace construct(Cycle now, Addr start_pc,
                           std::optional<TraceId> predicted);

    const Program &prog;
    const ProcessorConfig &cfg;

    BranchPredictor bpred;
    ICache icacheModel;
    TraceCache tcache;
    TracePredictor tpred;
    Bit bit;
    TraceSelector selector;

    std::deque<PendingTrace> queue;
    PathHistory hist;
    PathHistory retireHist;

    Addr nextPc;
    bool haltSeen = false;
    bool waitingForIndirect = false;
    Addr lastIndirectPc = invalidAddr;

    Cycle constructBusyUntil = 0;   //!< single construction port
    Cycle resumeAt = 0;
};

} // namespace tproc

#endif // TPROC_FRONTEND_FRONTEND_HH
