#include "tpred/trace_predictor.hh"

#include "common/logging.hh"

namespace tproc
{

namespace
{

/** The 2-bit hysteresis counter's ceiling. */
constexpr uint8_t confMax = 3;

} // anonymous namespace

TracePredictor::TracePredictor(const Params &p)
    : pathTable(p.pathEntries, Entry{}),
      simpleTable(p.simpleEntries, Entry{})
{
    auto pow2 = [](size_t n) { return n != 0 && (n & (n - 1)) == 0; };
    panic_if(!pow2(p.pathEntries) || !pow2(p.simpleEntries),
             "TracePredictor: table sizes must be powers of two");
}

std::optional<TraceId>
TracePredictor::predict(const PathHistory &hist) const
{
    const Entry *pe = find(pathTable, pathIndex(hist));
    const Entry *se = find(simpleTable, simpleIndex(hist));

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
