#include "harness/oracle.hh"

#include <filesystem>
#include <sstream>

#include "harness/golden.hh"
#include "replay/capture.hh"
#include "replay/trace_store.hh"

namespace tproc::harness
{

namespace
{

/** Summarize a StatDict divergence ("cycles=102 vs 104, ..."). */
std::string
diffSummary(const StatDict &a, const StatDict &b)
{
    std::ostringstream os;
    size_t shown = 0;
    const auto drift = diffStatDicts(a, b);
    for (const auto &d : drift) {
        if (++shown > 6) {
            os << ", ... " << drift.size() - 6 << " more";
            break;
        }
        if (shown > 1)
            os << ", ";
        os << d.key << "=" << d.expected << " vs " << d.actual;
    }
    return os.str();
}

} // anonymous namespace

OracleVerdict
judgeOracles(const SweepResult &live, const SweepResult &replayed,
             bool inject)
{
    OracleVerdict v;
    if (!live.ok) {
        v.kind = "panic";
        v.message = live.error;
        return v;
    }
    if (!replayed.ok) {
        v.kind = "panic(replay)";
        v.message = replayed.error;
        return v;
    }
    const StatDict a = statsToDict(live.stats);
    const StatDict b = statsToDict(replayed.stats);
    if (a != b) {
        v.kind = "replay-divergence";
        v.message = diffSummary(a, b);
    } else if (inject) {
        v.kind = "injected";
        v.message = "injected divergence (test hook)";
    }
    return v;
}

std::string
captureFailure(const std::string &dir, const std::string &workload,
               uint64_t seed, double scale, uint64_t insts,
               std::string &message)
{
    try {
        std::filesystem::create_directories(dir);
        replay::TraceStore store(dir);
        const std::string path =
            store.tracePath(workload, seed, scale, insts);
        replay::captureWorkloadTrace(workload, seed, scale, insts, path,
                                     true);
        return path;
    } catch (const std::exception &e) {
        message += " [capture failed: " + std::string(e.what()) + "]";
        return "";
    }
}

} // namespace tproc::harness
