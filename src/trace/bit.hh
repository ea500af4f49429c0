/**
 * @file
 * Branch Information Table (Section 3.1): a set-associative cache of
 * FGCI-algorithm results. All forward conditional branches allocate
 * entries (whether embeddable or not) so trace selection can distinguish
 * "known not embeddable" from "unknown". Misses invoke the FGCI scan and
 * report its latency so the frontend can charge construction stalls.
 * The ways are a LazyTable: a way never filled reads invalid, so
 * construction and reset() touch only its valid bitmap.
 */

#ifndef TPROC_TRACE_BIT_HH
#define TPROC_TRACE_BIT_HH

#include <cstddef>
#include <cstdint>

#include "common/lazy_table.hh"
#include "program/program.hh"
#include "trace/fgci.hh"

namespace tproc
{

/** Cached per-branch FGCI information (a 4-byte entry in the paper). */
struct BitEntry
{
    bool embeddable;
    int regionSize;
    int reconvOffset;   //!< reconvPc - branchPc
};

class Bit
{
  public:
    struct Params
    {
        size_t entries = 8 * 1024;
        size_t assoc = 4;
        int maxTraceLen = 32;
        int edgeArraySize = 8;
    };

    Bit() : Bit(Params()) {}
    explicit Bit(const Params &p);

    /**
     * Look up the branch at pc; on miss, run the FGCI-algorithm on prog
     * and allocate. @param scan_cycles if non-null, receives the scan
     * latency charged for a miss (0 on hit).
     */
    const BitEntry &lookup(const Program &prog, Addr pc,
                           int *scan_cycles = nullptr);

    /** Probe without side effects; returns nullptr on miss. */
    const BitEntry *probe(Addr pc) const;

    void reset();

    /** Table entries the constructor initialised (bitmap words). */
    size_t setupEntries() const { return array.setupEntries(); }

    uint64_t lookups = 0;
    uint64_t misses = 0;
    uint64_t scanInsts = 0;     //!< total FGCI scan work

  private:
    struct Way
    {
        bool valid;
        Addr tag;
        uint64_t lastUse;
        BitEntry entry;
    };

    size_t setIndex(Addr pc) const { return pc & (sets - 1); }
    Addr tagOf(Addr pc) const { return pc >> setShift; }

    Params params;
    size_t sets;
    unsigned setShift;
    uint64_t useClock = 0;
    LazyTable<Way> array;   //!< sets x assoc ways, set-major
};

} // namespace tproc

#endif // TPROC_TRACE_BIT_HH
