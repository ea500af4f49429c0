#include "frontend/frontend.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tproc
{

Frontend::Frontend(const Program &prog_, const ProcessorConfig &cfg_)
    : prog(prog_), cfg(cfg_), bpred(cfg_.btbEntries), icacheModel(cfg_.icache),
      tcache(cfg_.tcache), tpred(cfg_.tpred), bit(cfg_.bit),
      selector(prog_, cfg_.selection, &bit), nextPc(prog_.entry)
{
}

PendingTrace
Frontend::construct(Cycle now, Addr start_pc,
                    std::optional<TraceId> predicted)
{
    BranchOracle oracle;
    if (predicted) {
        TraceId id = *predicted;
        oracle = [this, id](int idx, Addr pc, const Instruction &inst,
                            bool in_region) {
            if (idx < id.numBranches)
                return (id.outcomes >> idx & 1) != 0;
            (void)inst;
            (void)in_region;
            return bpred.predict(pc);
        };
    } else {
        oracle = [this](int, Addr pc, const Instruction &, bool) {
            return bpred.predict(pc);
        };
    }

    SelectionResult sel = selector.select(start_pc, oracle, &icacheModel, 0);

    PendingTrace pt;
    pt.trace = std::make_shared<Trace>(std::move(sel.trace));

    // The single construction port (one datapath to the instruction
    // cache, branch predictor, and BIT) serializes constructions; the
    // fetch pipe itself remains non-blocking.
    Cycle start = std::max(now, constructBusyUntil);
    pt.readyAt = start + 1 + sel.fetchCycles + sel.scanCycles;
    constructBusyUntil = pt.readyAt;

    tcache.insert(pt.trace);
    ++constructions;
    return pt;
}

void
Frontend::cycle(Cycle now)
{
    if (now < resumeAt || haltSeen || waitingForIndirect)
        return;
    if (queue.size() >= static_cast<size_t>(cfg.numPEs))
        return;     // all outstanding trace buffers occupied

    // Determine the next trace: prediction must agree with a statically
    // known fall-through start pc.
    std::optional<TraceId> pred = tpred.predict(hist);
    ++tpred.predictions;
    bool use_pred = pred.has_value() &&
        (nextPc == invalidAddr || pred->startPc == nextPc);

    Addr start_pc;
    if (use_pred) {
        start_pc = pred->startPc;
    } else if (nextPc != invalidAddr) {
        start_pc = nextPc;
        pred.reset();
    } else {
        // Indirect trace boundary with no trace prediction: fall back to
        // the BTB's last-target table; stall if it has never seen this
        // indirect branch.
        Addr t = bpred.predictTarget(lastIndirectPc);
        if (t == invalidAddr) {
            waitingForIndirect = true;
            return;
        }
        start_pc = t;
        pred.reset();
    }

    PendingTrace pt;
    if (use_pred) {
        ++predictions;
        auto cached = tcache.lookup(*pred);
        if (cached) {
            pt.trace = std::move(cached);
            pt.readyAt = now + 1;   // fetch stage
            pt.tcacheHit = true;
        } else {
            pt = construct(now, start_pc, pred);
        }
    } else {
        // Without a prediction the trace cache cannot be indexed; fetch
        // from the instruction cache (outcomes from the simple branch
        // predictor).
        ++fallbackFetches;
        ++tcache.lookups;
        ++tcache.misses;
        pt = construct(now, start_pc, std::nullopt);
    }

    pt.histBefore = hist;
    hist.push(pt.trace->id);

    // Advance the fetch target.
    const Trace &tr = *pt.trace;
    if (tr.end == TraceEnd::HALT) {
        haltSeen = true;
        nextPc = invalidAddr;
    } else if (tr.fallthroughPc != invalidAddr) {
        nextPc = tr.fallthroughPc;
    } else {
        nextPc = invalidAddr;
        lastIndirectPc = tr.slots.back().pc;
    }

    queue.push_back(std::move(pt));
}

PendingTrace
Frontend::pop()
{
    panic_if(queue.empty(), "Frontend::pop on empty queue");
    PendingTrace pt = std::move(queue.front());
    queue.pop_front();
    return pt;
}

void
Frontend::redirect(const PathHistory &new_hist, Addr next_pc,
                   Addr last_indirect_pc, Cycle resume_at)
{
    queue.clear();
    hist = new_hist;
    haltSeen = false;
    waitingForIndirect = false;
    resumeAt = std::max(resumeAt, resume_at);

    if (next_pc != invalidAddr) {
        nextPc = next_pc;
    } else {
        nextPc = invalidAddr;
        lastIndirectPc = last_indirect_pc;
        Addr t = bpred.predictTarget(last_indirect_pc);
        if (t == invalidAddr)
            waitingForIndirect = true;
        // else: cycle() will re-consult predictTarget / tpred normally.
    }
}

void
Frontend::indirectResolved(Addr target)
{
    if (!waitingForIndirect)
        return;
    waitingForIndirect = false;
    nextPc = target;
}

void
Frontend::trainRetire(const TraceId &id)
{
    tpred.update(retireHist, id);
    retireHist.push(id);
}

Frontend::RepairResult
Frontend::buildRepair(Cycle now, const Trace &orig, int branch_slot,
                      bool corrected_taken, bool fgci_covered)
{
    RepairResult res;
    res.prefixLen = static_cast<size_t>(branch_slot) + 1;

    const TraceSlot &bs = orig.slots[branch_slot];
    panic_if(!bs.isCondBr, "buildRepair: slot %d is not a branch",
             branch_slot);

    // Branch index of the repaired branch within the trace.
    int k = 0;
    for (int i = 0; i < branch_slot; ++i) {
        if (orig.slots[i].isCondBr)
            ++k;
    }

    // Prefix outcomes (identical to the original by selection
    // determinism).
    std::vector<bool> prefix;
    prefix.reserve(k);
    for (int i = 0; i < branch_slot; ++i) {
        if (orig.slots[i].isCondBr)
            prefix.push_back(orig.slots[i].taken);
    }

    // For FGCI-covered repairs, locate the enclosing embedded region and
    // the original post-region outcome sequence to replay.
    Addr region_start_pc = invalidAddr;
    Addr reconv_pc = invalidAddr;
    std::vector<bool> suffix;
    if (fgci_covered) {
        panic_if(!bs.inRegion, "fgci repair of a branch outside a region");
        int start_idx = branch_slot;
        while (!orig.slots[start_idx].regionStart) {
            panic_if(start_idx == 0, "fgci repair: region start missing");
            --start_idx;
        }
        region_start_pc = orig.slots[start_idx].pc;
        reconv_pc = orig.slots[start_idx].reconvPc;

        // The suffix begins at the first slot past the region span: the
        // first slot after the region start that is not an interior
        // region slot (a new region may begin right at the re-convergent
        // point; its branches belong to the suffix).
        size_t sfx = static_cast<size_t>(start_idx) + 1;
        while (sfx < orig.slots.size() && orig.slots[sfx].inRegion &&
               !orig.slots[sfx].regionStart) {
            ++sfx;
        }
        for (size_t i = sfx; i < orig.slots.size(); ++i) {
            if (orig.slots[i].isCondBr)
                suffix.push_back(orig.slots[i].taken);
        }
    }

    size_t suffix_i = 0;
    bool region_phase = fgci_covered;
    Addr last_region_pc = bs.pc;
    BranchOracle oracle = [&, k](int idx, Addr pc, const Instruction &,
                                 bool in_region) {
        if (idx < k)
            return static_cast<bool>(prefix[idx]);
        if (idx == k)
            return corrected_taken;
        if (!fgci_covered)
            return bpred.predict(pc);
        // FGCI: re-predict inside the repaired region; replay the
        // original outcomes once past the re-convergent point so the
        // trace ends exactly where it used to. Interior branch pcs are
        // strictly increasing within one region instance (forward DAG),
        // which distinguishes the repaired instance from later dynamic
        // visits to the same static region (e.g. the next loop
        // iteration).
        if (region_phase) {
            if (in_region && pc > last_region_pc && pc < reconv_pc) {
                last_region_pc = pc;
                return bpred.predict(pc);
            }
            region_phase = false;   // crossed the re-convergent point
        }
        if (suffix_i < suffix.size())
            return static_cast<bool>(suffix[suffix_i++]);
        return bpred.predict(pc);
    };
    (void)region_start_pc;

    SelectionResult sel = selector.select(orig.id.startPc, oracle,
                                          &icacheModel, res.prefixLen);
    res.trace = std::make_shared<Trace>(std::move(sel.trace));

    Cycle start = std::max(now, constructBusyUntil);
    res.readyAt = start + 1 + sel.fetchCycles + sel.scanCycles;
    constructBusyUntil = res.readyAt;

    tcache.insert(res.trace);
    return res;
}

} // namespace tproc
