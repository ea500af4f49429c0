#include "pe/processing_element.hh"

#include <array>

#include "common/logging.hh"

namespace tproc
{

namespace
{

/** Copy the static portion of a trace slot into a DynSlot. */
void
setStatic(DynSlot &d, const TraceSlot &s)
{
    d.pc = s.pc;
    d.inst = s.inst;
    d.isCondBr = s.isCondBr;
    d.predTaken = s.taken;
    d.inRegion = s.inRegion;
    d.regionStart = s.regionStart;
    d.reconvPc = s.reconvPc;
}

/**
 * Compute intra-trace dependences, the local producer/consumer masks
 * and live-in sources for all slots. Does not touch destinations.
 * @return last writer slot per arch reg (-1 = none).
 */
std::array<int, numArchRegs>
computeDeps(InFlightTrace &t, const RenameMap &map)
{
    std::array<int, numArchRegs> last_writer;
    last_writer.fill(-1);

    for (size_t i = 0; i < t.slots.size(); ++i) {
        DynSlot &d = t.slots[i];
        d.dep1 = d.dep2 = -1;
        d.src1 = d.src2 = invalidPhysReg;
        d.producers = d.consumers = 0;
        const uint64_t bit = slotBit(static_cast<int>(i));
        if (readsRs1(d.inst)) {
            int w = last_writer[d.inst.rs1];
            if (w >= 0) {
                d.dep1 = w;
                d.producers |= slotBit(w);
                t.slots[w].consumers |= bit;
            } else {
                d.src1 = map[d.inst.rs1];
            }
        }
        if (readsRs2(d.inst)) {
            int w = last_writer[d.inst.rs2];
            if (w >= 0) {
                d.dep2 = w;
                d.producers |= slotBit(w);
                t.slots[w].consumers |= bit;
            } else {
                d.src2 = map[d.inst.rs2];
            }
        }
        if (writesReg(d.inst))
            last_writer[d.inst.rd] = static_cast<int>(i);
    }
    return last_writer;
}

/** The slot masks are 64-bit; config validation keeps traces within
 *  them, so a longer one is a selection bug. */
void
checkTraceWidth(const Trace &trace)
{
    panic_if(trace.slots.size() > maxSlotsPerTrace,
             "trace of %zu slots exceeds the %zu-slot PE mask width",
             trace.slots.size(), maxSlotsPerTrace);
}

} // anonymous namespace

void
initInFlightTrace(InFlightTrace &t, TraceUid uid,
                  std::shared_ptr<const Trace> trace, RenameMap &map,
                  PhysRegFile &prf)
{
    checkTraceWidth(*trace);
    t.uid = uid;
    t.mapBefore = map;
    t.peId = -1;
    t.fromPredictor = false;
    t.logicalPos = -1;
    t.dispatchedAt = 0;
    t.pendingMisp = 0;

    // assign() (not resize) so slots recycled from the previous occupant
    // of this pool entry start from default dynamic state; the vector
    // keeps its capacity.
    t.slots.assign(trace->slots.size(), DynSlot{});
    for (size_t i = 0; i < trace->slots.size(); ++i)
        setStatic(t.slots[i], trace->slots[i]);
    t.trace = std::move(trace);

    auto last_writer = computeDeps(t, map);

    // Allocate global physical registers for live-outs and install them.
    t.liveOuts.clear();
    for (int a = 0; a < numArchRegs; ++a) {
        int w = last_writer[a];
        if (w < 0)
            continue;
        PhysReg p = prf.alloc();
        t.slots[w].dest = p;
        t.liveOuts.push_back({static_cast<ArchReg>(a), p, w});
        map[a] = p;
    }

    t.recountPending();
}

std::unique_ptr<InFlightTrace>
makeInFlightTrace(TraceUid uid, std::shared_ptr<const Trace> trace,
                  RenameMap &map, PhysRegFile &prf)
{
    auto t = std::make_unique<InFlightTrace>();
    initInFlightTrace(*t, uid, std::move(trace), map, prf);
    return t;
}

void
repairInFlightTrace(InFlightTrace &t, std::shared_ptr<const Trace> new_trace,
                    size_t prefix_len, RenameMap &map, PhysRegFile &prf,
                    Cycle now, std::vector<PhysReg> &deferred_free)
{
    panic_if(prefix_len > new_trace->slots.size(),
             "repair: prefix longer than repaired trace (%zu > %zu)",
             prefix_len, new_trace->slots.size());
    checkTraceWidth(*new_trace);

    // Remember old live-out assignments keyed by (slot, arch).
    std::array<PhysReg, numArchRegs> old_phys;
    std::array<int, numArchRegs> old_slot;
    old_phys.fill(invalidPhysReg);
    old_slot.fill(-1);
    for (const auto &lo : t.liveOuts) {
        old_phys[lo.arch] = lo.phys;
        old_slot[lo.arch] = lo.slot;
    }

    // Rebuild the slot array: prefix keeps dynamic state, suffix is new.
    std::vector<DynSlot> slots(new_trace->slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
        if (i < prefix_len)
            slots[i] = t.slots[i];      // keep dynamic state
        setStatic(slots[i], new_trace->slots[i]);
        if (i < prefix_len) {
            // Verify selection determinism: the repaired trace must share
            // the instruction prefix (outcome flags may differ only on
            // the repaired branch, which is the last prefix slot).
            panic_if(slots[i].pc != t.slots[i].pc ||
                     !(slots[i].inst == t.slots[i].inst),
                     "repair: prefix mismatch at slot %zu", i);
        } else {
            slots[i].resetDynamic();
            slots[i].dest = invalidPhysReg;
        }
    }
    t.slots = std::move(slots);
    t.trace = std::move(new_trace);

    auto last_writer = computeDeps(t, map);

    // Destinations are reassigned from scratch below; prefix slots that
    // lost their live-out status must not keep publishing to stale regs.
    for (auto &d : t.slots)
        d.dest = invalidPhysReg;

    // Reassign live-outs: a prefix last-writer that was already the
    // live-out for the same register keeps its physical register ("the
    // prefix is untouched"); everything else allocates fresh.
    t.liveOuts.clear();
    std::array<bool, numArchRegs> reused;
    reused.fill(false);
    for (int a = 0; a < numArchRegs; ++a) {
        int w = last_writer[a];
        if (w < 0)
            continue;
        PhysReg p;
        if (w == old_slot[a] &&
            static_cast<size_t>(w) < prefix_len) {
            p = old_phys[a];    // same slot still produces this register
            reused[a] = true;
        } else {
            p = prf.alloc();
            // A prefix slot that newly became a live-out and has already
            // completed must publish its value now; nothing will complete
            // again to write the register.
            if (static_cast<size_t>(w) < prefix_len &&
                t.slots[w].completed) {
                prf.write(p, t.slots[w].value, now + 2);
            }
        }
        t.slots[w].dest = p;
        t.liveOuts.push_back({static_cast<ArchReg>(a), p, w});
        map[a] = p;
    }

    // Free old live-outs that were not carried over (deferred until the
    // re-dispatch pass has re-pointed every consumer).
    for (int a = 0; a < numArchRegs; ++a) {
        if (old_phys[a] != invalidPhysReg && !reused[a])
            deferred_free.push_back(old_phys[a]);
    }

    // The slot array was rebuilt wholesale; re-derive the slot masks
    // from the surviving prefix + fresh suffix flags.
    t.recountPending();
}

std::vector<int>
redispatchInFlightTrace(InFlightTrace &t, RenameMap &map)
{
    std::vector<int> changed;
    t.mapBefore = map;

    for (size_t i = 0; i < t.slots.size(); ++i) {
        DynSlot &d = t.slots[i];
        bool dirty = false;
        if (d.dep1 < 0 && readsRs1(d.inst)) {
            PhysReg p = map[d.inst.rs1];
            if (p != d.src1) {
                d.src1 = p;
                dirty = true;
            }
        }
        if (d.dep2 < 0 && readsRs2(d.inst)) {
            PhysReg p = map[d.inst.rs2];
            if (p != d.src2) {
                d.src2 = p;
                dirty = true;
            }
        }
        if (dirty)
            changed.push_back(static_cast<int>(i));
    }

    // Live-outs keep their mappings (Section 2.2.1).
    for (const auto &lo : t.liveOuts)
        map[lo.arch] = lo.phys;

    return changed;
}

} // namespace tproc
