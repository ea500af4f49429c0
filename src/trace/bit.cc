#include "trace/bit.hh"

#include "common/logging.hh"

namespace tproc
{

namespace
{

/** floor(log2(v)) for v > 0 (C++17 stand-in for std::bit_width(v) - 1). */
size_t
log2Floor(size_t v)
{
    size_t n = 0;
    while (v >>= 1)
        ++n;
    return n;
}

} // namespace

Bit::Bit(const Params &p)
    : params(p), sets(p.entries / p.assoc),
      setShift(log2Floor(sets)), array(sets * p.assoc, Way{})
{
    panic_if(sets == 0 || (sets & (sets - 1)) != 0,
             "Bit: set count must be a power of two");
}

const BitEntry &
Bit::lookup(const Program &prog, Addr pc, int *scan_cycles)
{
    ++lookups;
    ++useClock;
    if (scan_cycles)
        *scan_cycles = 0;

    size_t set = setIndex(pc);
    Addr tag = tagOf(pc);
    size_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (size_t w = 0; w < params.assoc; ++w) {
        const Way &way = array[set * params.assoc + w];
        if (way.valid && way.tag == tag) {
            Way &hit = array.touch(set * params.assoc + w);
            hit.lastUse = useClock;
            return hit.entry;
        }
        if (!way.valid) {
            victim = w;
            oldest = 0;
        } else if (way.lastUse < oldest) {
            victim = w;
            oldest = way.lastUse;
        }
    }

    // Miss: run the FGCI-algorithm (the BIT miss handler).
    ++misses;
    FgciResult res = analyzeFgci(prog, pc, params.maxTraceLen,
                                 params.edgeArraySize);
    scanInsts += res.scannedInsts;
    if (scan_cycles)
        *scan_cycles = res.scannedInsts;

    Way &way = array.touch(set * params.assoc + victim);
    way.valid = true;
    way.tag = tag;
    way.lastUse = useClock;
    way.entry.embeddable = res.embeddable;
    way.entry.regionSize = res.regionSize;
    way.entry.reconvOffset =
        res.embeddable ? static_cast<int>(res.reconvPc - pc) : 0;
    return way.entry;
}

const BitEntry *
Bit::probe(Addr pc) const
{
    size_t set = setIndex(pc);
    Addr tag = tagOf(pc);
    for (size_t w = 0; w < params.assoc; ++w) {
        const Way &way = array[set * params.assoc + w];
        if (way.valid && way.tag == tag)
            return &way.entry;
    }
    return nullptr;
}

void
Bit::reset()
{
    array.clear();
    lookups = misses = scanInsts = 0;
    useClock = 0;
}

} // namespace tproc
