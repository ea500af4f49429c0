/**
 * @file
 * Traces: the fundamental unit of control flow in a trace processor.
 *
 * A trace is identified by its starting pc plus the outcomes of the
 * conditional branches inside it; trace selection is deterministic given
 * that identity, the static program, and the selection parameters.
 */

#ifndef TPROC_TRACE_TRACE_HH
#define TPROC_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace tproc
{

/** Identity of a trace: start pc + embedded conditional branch outcomes. */
struct TraceId
{
    Addr startPc = invalidAddr;
    uint32_t outcomes = 0;      //!< bit i = outcome of i-th cond branch
    uint8_t numBranches = 0;

    bool valid() const { return startPc != invalidAddr; }

    bool
    operator==(const TraceId &o) const
    {
        return startPc == o.startPc && outcomes == o.outcomes &&
            numBranches == o.numBranches;
    }

    bool operator!=(const TraceId &o) const { return !(*this == o); }

    uint64_t
    hash() const
    {
        uint64_t h = startPc * 0x9e3779b97f4a7c15ull;
        h ^= (static_cast<uint64_t>(outcomes) << 8) ^ numBranches;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        return h;
    }

    std::string str() const;
};

/** Why a trace ended. */
enum class TraceEnd : uint8_t
{
    LENGTH,     //!< hit the maximum (padded) trace length
    INDIRECT,   //!< ends with a jr/callr/ret (default selection rule)
    NTB,        //!< ends after a predicted not-taken backward branch
    HALT,       //!< program end
    FG_DEFER    //!< next branch's FGCI region did not fit; deferred
};

const char *traceEndName(TraceEnd end);

/** Slot capacity of a trace: its pre-renamed dependence masks, like
 *  the PE scheduling masks, are 64-bit, so ProcessorConfig::validate()
 *  caps selection.maxTraceLen here. */
constexpr size_t maxSlotsPerTrace = 64;

/** Mask bit of slot i (i < maxSlotsPerTrace). */
constexpr uint64_t
slotBit(int i)
{
    return uint64_t(1) << i;
}

/**
 * One instruction slot within a trace: the instruction, its
 * selection-time control facts, and its pre-renamed intra-trace
 * dependences. Selection fills every field once, when the trace is
 * built; the trace is then shared, immutable, by the trace cache and
 * every dispatch of it.
 */
struct TraceSlot
{
    Addr pc = 0;
    Instruction inst;
    bool isCondBr = false;
    bool taken = false;     //!< selection-time outcome of this cond branch
    bool inRegion = false;  //!< inside an embedded FGCI region
    bool regionStart = false;   //!< branch that opened an embedded region
    /** @name Pre-renamed operands.
     * A read operand with no in-trace producer (dep < 0) is a live-in,
     * renamed to a global physical register at dispatch. */
    /// @{
    int8_t dep1 = -1;       //!< in-trace producer slot of rs1, or -1
    int8_t dep2 = -1;       //!< in-trace producer slot of rs2, or -1
    bool readsRs1 = false;
    bool readsRs2 = false;
    /// @}
    Addr reconvPc = invalidAddr;    //!< region re-convergent pc (if start)
    /** In-trace producer slots (bits of dep1/dep2): the slot is locally
     *  ready once every one of them has completed. */
    uint64_t producers = 0;
    /** In-trace consumer slots (every later slot whose dep1/dep2 is this
     *  one): whom a completion wakes and a changed value reissues. */
    uint64_t consumers = 0;
};

/** A register the trace leaves behind: its last writer in the trace. */
struct TraceLiveOut
{
    ArchReg arch;
    uint8_t slot;
};

/**
 * A selected trace. The slots are the actual instructions; accruedLen is
 * the *padded* length used by FGCI trace selection (>= slots.size()).
 */
struct Trace
{
    TraceId id;
    std::vector<TraceSlot> slots;
    int accruedLen = 0;
    TraceEnd end = TraceEnd::LENGTH;
    /** Next pc after the trace when statically known (LENGTH, NTB,
     *  FG_DEFER, and taken-fallthrough cases); invalidAddr for INDIRECT
     *  and HALT. */
    Addr fallthroughPc = invalidAddr;
    /** Number of straight-line runs (basic-block fetch units). */
    int numBlocks = 0;
    /** Live-out registers in ascending register order, with their last
     *  writer; dispatch allocates one physical register for each. */
    std::vector<TraceLiveOut> liveOuts;

    size_t size() const { return slots.size(); }
    bool endsInReturn() const;
    bool
    endsInIndirect() const
    {
        return end == TraceEnd::INDIRECT;
    }

    /** Multi-line disassembly for debugging. */
    std::string str() const;
};

} // namespace tproc

/** std::hash support so TraceId can key unordered containers. */
template <>
struct std::hash<tproc::TraceId>
{
    size_t
    operator()(const tproc::TraceId &id) const noexcept
    {
        return static_cast<size_t>(id.hash());
    }
};

#endif // TPROC_TRACE_TRACE_HH
