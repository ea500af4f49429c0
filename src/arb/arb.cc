#include "arb/arb.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace tproc
{

Arb::Arb(OrderFn order_fn) : order(std::move(order_fn)) {}

int64_t
Arb::seqOf(TraceUid uid, int slot) const
{
    int64_t pos = order(uid);
    panic_if(pos < 0, "Arb: ordering queried for unknown trace %llu",
             static_cast<unsigned long long>(uid));
    return pos * 64 + slot;
}

void
Arb::flagViolation(const SeqTag &load)
{
    ++violations;
    pendingViolations.push_back(load);
}

void
Arb::storePerform(TraceUid uid, int slot, Addr addr, int64_t value)
{
    SeqTag tag{uid, slot};

    // Re-execution to a different address shows up as undo + perform.
    auto idx = storeIndex.find(tag);
    if (idx != storeIndex.end() && idx->second != addr)
        storeUndo(uid, slot);

    auto &vers = stores[addr];
    auto it = std::find_if(vers.begin(), vers.end(), [&](const auto &v) {
        return v.uid == uid && v.slot == slot;
    });
    if (it != vers.end())
        it->value = value;
    else
        vers.push_back({uid, slot, value});
    storeIndex[tag] = addr;

    // Snoop: a load must reissue if it is logically after this store and
    // consumed either an older version (or raw memory), or this very
    // version with a now-different value.
    int64_t store_seq = seqOf(uid, slot);
    auto lit = loads.find(addr);
    if (lit == loads.end())
        return;
    for (const auto &le : lit->second) {
        int64_t load_seq = seqOf(le.uid, le.slot);
        if (load_seq <= store_seq)
            continue;
        if (!le.src.valid()) {
            flagViolation({le.uid, le.slot});       // consumed memory
        } else {
            int64_t src_seq = seqOf(le.src.uid, le.src.slot);
            if (src_seq < store_seq) {
                flagViolation({le.uid, le.slot});   // older version
            } else if (src_seq == store_seq && le.observed != value) {
                flagViolation({le.uid, le.slot});   // value changed
            }
        }
    }
}

void
Arb::storeUndo(TraceUid uid, int slot)
{
    SeqTag tag{uid, slot};
    auto idx = storeIndex.find(tag);
    if (idx == storeIndex.end())
        return;     // store never performed (nothing to undo)
    Addr addr = idx->second;
    storeIndex.erase(idx);

    auto &vers = stores[addr];
    vers.erase(std::remove_if(vers.begin(), vers.end(),
                              [&](const auto &v) {
                                  return v.uid == uid && v.slot == slot;
                              }),
               vers.end());
    if (vers.empty())
        stores.erase(addr);

    // Loads snoop the undo: any load whose data came from this store
    // must reissue (Section 2.2.2). Re-point their source at memory so
    // later snoops do not dereference a dead sequence number.
    auto lit = loads.find(addr);
    if (lit == loads.end())
        return;
    for (auto &le : lit->second) {
        if (le.src == tag) {
            flagViolation({le.uid, le.slot});
            le.src = SeqTag{};
        }
    }
}

void
Arb::commitStore(TraceUid uid, int slot, SparseMemory &mem)
{
    SeqTag tag{uid, slot};
    auto idx = storeIndex.find(tag);
    panic_if(idx == storeIndex.end(),
             "commitStore: store %llu/%d not in ARB",
             static_cast<unsigned long long>(uid), slot);
    Addr addr = idx->second;
    storeIndex.erase(idx);

    auto &vers = stores[addr];
    auto it = std::find_if(vers.begin(), vers.end(), [&](const auto &v) {
        return v.uid == uid && v.slot == slot;
    });
    panic_if(it == vers.end(), "commitStore: version missing");
    mem.write(addr, it->value);
    vers.erase(it);
    if (vers.empty())
        stores.erase(addr);

    // Loads that consumed this version now effectively read memory (the
    // value is unchanged); re-point them so ordering stays well-defined.
    auto lit = loads.find(addr);
    if (lit != loads.end()) {
        for (auto &le : lit->second) {
            if (le.src == tag)
                le.src = SeqTag{};
        }
    }
}

bool
Arb::storePerformed(TraceUid uid, int slot) const
{
    return storeIndex.count({uid, slot}) != 0;
}

Arb::LoadResult
Arb::loadAccess(TraceUid uid, int slot, Addr addr, const SparseMemory &mem)
{
    // Drop any previous registration (a reissuing load re-queries).
    loadRemove(uid, slot);

    LoadResult res;
    int64_t load_seq = seqOf(uid, slot);

    auto sit = stores.find(addr);
    if (sit != stores.end()) {
        int64_t best_seq = -1;
        const StoreVersion *best = nullptr;
        for (const auto &v : sit->second) {
            int64_t s = seqOf(v.uid, v.slot);
            if (s < load_seq && s > best_seq) {
                best_seq = s;
                best = &v;
            }
        }
        if (best) {
            res.value = best->value;
            res.fromStore = true;
            res.src = {best->uid, best->slot};
        }
    }
    if (!res.fromStore)
        res.value = mem.read(addr);

    loads[addr].push_back({uid, slot, res.src, res.value});
    loadIndex[{uid, slot}] = addr;
    return res;
}

void
Arb::loadRemove(TraceUid uid, int slot)
{
    SeqTag tag{uid, slot};
    auto idx = loadIndex.find(tag);
    if (idx == loadIndex.end())
        return;
    Addr addr = idx->second;
    loadIndex.erase(idx);

    auto &ls = loads[addr];
    ls.erase(std::remove_if(ls.begin(), ls.end(),
                            [&](const auto &le) {
                                return le.uid == uid && le.slot == slot;
                            }),
             ls.end());
    if (ls.empty())
        loads.erase(addr);
}

std::vector<SeqTag>
Arb::takeViolations()
{
    return std::exchange(pendingViolations, {});
}

} // namespace tproc
