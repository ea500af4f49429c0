#include "pe/processing_element.hh"

#include <array>

#include "common/logging.hh"

namespace tproc
{

namespace
{

/** Map the live-in operands of every slot to the physical registers the
 *  map names (the slots' dependences were resolved at selection). */
void
renameLiveIns(InFlightTrace &t, const RenameMap &map)
{
    for (size_t i = 0; i < t.slots.size(); ++i) {
        DynSlot &d = t.slots[i];
        const TraceSlot &s = t.at(i);
        d.src1 = s.readsRs1 && s.dep1 < 0 ? map[s.inst.rs1] : invalidPhysReg;
        d.src2 = s.readsRs2 && s.dep2 < 0 ? map[s.inst.rs2] : invalidPhysReg;
    }
}

} // anonymous namespace

void
initInFlightTrace(InFlightTrace &t, TraceUid uid,
                  std::shared_ptr<const Trace> trace, RenameMap &map,
                  PhysRegFile &prf)
{
    t.uid = uid;
    t.mapBefore = map;
    t.peId = -1;
    t.logicalPos = -1;

    // assign() (not resize) so slots recycled from the previous occupant
    // of this pool entry start from default dynamic state; the vector
    // keeps its capacity.
    t.slots.assign(trace->slots.size(), DynSlot{});
    t.trace = std::move(trace);

    renameLiveIns(t, map);

    // Allocate global physical registers for live-outs and install them.
    t.liveOuts.clear();
    for (const TraceLiveOut &lo : t.trace->liveOuts) {
        PhysReg p = prf.alloc();
        t.slots[lo.slot].dest = p;
        t.liveOuts.push_back({lo.arch, p, lo.slot});
        map[lo.arch] = p;
    }

    t.resetStatusFrom(0);
}

void
repairInFlightTrace(InFlightTrace &t, std::shared_ptr<const Trace> new_trace,
                    size_t prefix_len, RenameMap &map, PhysRegFile &prf,
                    Cycle now, std::vector<PhysReg> &deferred_free)
{
    panic_if(prefix_len > new_trace->slots.size(),
             "repair: prefix longer than repaired trace (%zu > %zu)",
             prefix_len, new_trace->slots.size());

    // Remember old live-out assignments keyed by (slot, arch).
    std::array<PhysReg, numArchRegs> old_phys;
    std::array<int, numArchRegs> old_slot;
    old_phys.fill(invalidPhysReg);
    old_slot.fill(-1);
    for (const auto &lo : t.liveOuts) {
        old_phys[lo.arch] = lo.phys;
        old_slot[lo.arch] = lo.slot;
    }

    // Verify selection determinism: the repaired trace must share the
    // instruction prefix (outcome flags may differ only on the repaired
    // branch, which is the last prefix slot).
    for (size_t i = 0; i < prefix_len; ++i) {
        const TraceSlot &o = t.at(i), &n = new_trace->slots[i];
        panic_if(o.pc != n.pc || !(o.inst == n.inst),
                 "repair: prefix mismatch at slot %zu", i);
    }

    // The prefix keeps its dynamic state; the suffix starts from fresh
    // slots.
    t.slots.resize(prefix_len);
    t.slots.resize(new_trace->slots.size());
    t.trace = std::move(new_trace);

    renameLiveIns(t, map);

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
    for (const TraceLiveOut &lo : t.trace->liveOuts) {
        const ArchReg a = lo.arch;
        const int w = lo.slot;
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
            if (static_cast<size_t>(w) < prefix_len && t.completed(w)) {
                prf.write(p, t.slots[w].value, now + 2);
            }
        }
        t.slots[w].dest = p;
        t.liveOuts.push_back({a, p, w});
        map[a] = p;
    }

    // Free old live-outs that were not carried over (deferred until the
    // re-dispatch pass has re-pointed every consumer).
    for (int a = 0; a < numArchRegs; ++a) {
        if (old_phys[a] != invalidPhysReg && !reused[a])
            deferred_free.push_back(old_phys[a]);
    }

    // Prefix status bits survive; the suffix is not issued.
    t.resetStatusFrom(prefix_len);
}

std::vector<int>
redispatchInFlightTrace(InFlightTrace &t, RenameMap &map)
{
    std::vector<int> changed;
    t.mapBefore = map;

    for (size_t i = 0; i < t.slots.size(); ++i) {
        DynSlot &d = t.slots[i];
        const Instruction &inst = t.at(i).inst;
        // src* is valid exactly for the live-in operands.
        auto repoint = [&](ArchReg r, PhysReg &src) {
            if (src == invalidPhysReg || src == map[r])
                return false;
            src = map[r];
            return true;
        };
        const bool dirty1 = repoint(inst.rs1, d.src1);
        if (repoint(inst.rs2, d.src2) || dirty1)
            changed.push_back(static_cast<int>(i));
    }

    // Live-outs keep their mappings (Section 2.2.1).
    for (const auto &lo : t.liveOuts)
        map[lo.arch] = lo.phys;

    return changed;
}

} // namespace tproc
