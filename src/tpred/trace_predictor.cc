#include "tpred/trace_predictor.hh"

#include "common/logging.hh"

namespace tproc
{

namespace
{

/** The 2-bit hysteresis counter's ceiling. */
constexpr uint8_t confMax = 3;

} // anonymous namespace

TracePredictor::Table::Table(size_t n_)
    : blockValid((std::min(n_, blockBits) + 63) / 64, 0), n(n_),
      blockShift(0), entries(new Entry[n_])
{
    panic_if(n == 0 || (n & (n - 1)) != 0,
             "TracePredictor: table sizes must be powers of two");
    while ((n >> blockShift) > blockBits)
        ++blockShift;
}

const TracePredictor::Entry *
TracePredictor::Table::find(size_t i) const
{
    const Entry &e = entries[i];
    return blockSet(i >> blockShift) && e.valid ? &e : nullptr;
}

TracePredictor::Entry &
TracePredictor::Table::touch(size_t i)
{
    const size_t b = i >> blockShift;
    if (!blockSet(b)) {
        const size_t first = b << blockShift;
        for (size_t j = first; j < first + (size_t(1) << blockShift); ++j)
            entries[j].valid = 0;
        blockValid[b >> 6] |= uint64_t(1) << (b & 63);
    }
    return entries[i];
}

TracePredictor::TracePredictor(const Params &p)
    : pathTable(p.pathEntries), simpleTable(p.simpleEntries)
{
}

std::optional<TraceId>
TracePredictor::predict(const PathHistory &hist) const
{
    const Entry *pe = pathTable.find(pathIndex(hist));
    const Entry *se = simpleTable.find(simpleIndex(hist));

    // Hybrid selection: the path-based component wins when it has a
    // confident entry; otherwise fall back to the simple component.
    if (pe && (pe->conf > 0 || !se))
        return pe->id();
    if (se)
        return se->id();
    if (pe)
        return pe->id();
    return std::nullopt;
}

void
TracePredictor::trainEntry(Entry &e, const TraceId &actual)
{
    if (e.valid && e.id() == actual) {
        if (e.conf < confMax)
            ++e.conf;
    } else if (!e.valid || e.conf == 0) {
        e.valid = 1;
        e.startPc = actual.startPc;
        e.outcomes = actual.outcomes;
        e.numBranches = actual.numBranches;
        e.conf = 1;
    } else {
        --e.conf;
    }
}

void
TracePredictor::update(const PathHistory &hist, const TraceId &actual)
{
    trainEntry(pathTable.touch(pathIndex(hist)), actual);
    trainEntry(simpleTable.touch(simpleIndex(hist)), actual);
}

void
TracePredictor::reset()
{
    pathTable.clear();
    simpleTable.clear();
    predictions = 0;
}

} // namespace tproc
