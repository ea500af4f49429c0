#include "rename/rename.hh"

#include "common/logging.hh"

namespace tproc
{

PhysRegFile::PhysRegFile(size_t n)
    : values(n, 0), readyAts(n, 0), valids(n, 0), inUses(n, 0)
{
    panic_if(n < numArchRegs + 2, "PhysRegFile too small");
    // Register 0 is the architectural zero: always valid, never freed.
    valids[zeroReg] = 1;
    inUses[zeroReg] = 1;
    values[zeroReg] = 0;
    readyAts[zeroReg] = 0;

    freeList.reserve(n - 1);
    for (size_t i = n - 1; i >= 1; --i)
        freeList.push_back(static_cast<PhysReg>(i));
}

PhysReg
PhysRegFile::alloc()
{
    panic_if(freeList.empty(), "PhysRegFile exhausted");
    PhysReg r = freeList.back();
    freeList.pop_back();
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
    panic_if(!inUses[r], "double free of physical register %u", r);
    inUses[r] = 0;
    valids[r] = 0;
    freeList.push_back(r);
}

void
PhysRegFile::write(PhysReg r, int64_t value, Cycle ready_at)
{
    panic_if(r == zeroReg, "write to the zero register");
    panic_if(!inUses[r], "write to a free physical register %u", r);
    values[r] = value;
    valids[r] = 1;
    readyAts[r] = ready_at;
    writtenSig |= sigBit(r);
}

} // namespace tproc
