#include "rename/rename.hh"

#include "common/logging.hh"

namespace tproc
{

PhysRegFile::PhysRegFile(size_t n)
    : cap(n), values(new int64_t[n]), readyAts(new Cycle[n]),
      valids(new uint8_t[n]), inUses(new uint8_t[n])
{
    panic_if(n < numArchRegs + 2, "PhysRegFile too small");
    // Register 0 is the architectural zero: always valid, never freed.
    valids[zeroReg] = 1;
    inUses[zeroReg] = 1;
    values[zeroReg] = 0;
    readyAts[zeroReg] = 0;
}

PhysReg
PhysRegFile::alloc()
{
    PhysReg r;
    if (!recycled.empty()) {
        r = recycled.back();
        recycled.pop_back();
    } else {
        panic_if(highWater == cap, "PhysRegFile exhausted");
        r = static_cast<PhysReg>(highWater++);
    }
    valids[r] = 0;
    inUses[r] = 1;
    values[r] = 0;
    readyAts[r] = 0;
    return r;
}

void
PhysRegFile::free(PhysReg r)
{
    if (r == zeroReg)
        return;
    panic_if(r >= highWater || !inUses[r],
             "free of a physical register not in use: %u", r);
    inUses[r] = 0;
    valids[r] = 0;
    recycled.push_back(r);
}

void
PhysRegFile::write(PhysReg r, int64_t value, Cycle ready_at)
{
    panic_if(r == zeroReg, "write to the zero register");
    panic_if(r >= highWater || !inUses[r],
             "write to a free physical register %u", r);
    values[r] = value;
    valids[r] = 1;
    readyAts[r] = ready_at;
    writtenSig |= sigBit(r);
}

} // namespace tproc
