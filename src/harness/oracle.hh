/**
 * @file
 * The standing oracle ladder shared by the soak campaign and the
 * config-space explorer. A point runs twice: live (golden-verified)
 * and replayed from a captured trace. Both runs must complete, and
 * their StatDicts must agree bit for bit. A failing point is captured
 * as a replayable `.tpt` named by the trace-store convention, so
 * `--trace-dir=<failure-dir>` replays it directly.
 */

#ifndef TPROC_HARNESS_ORACLE_HH
#define TPROC_HARNESS_ORACLE_HH

#include <cstdint>
#include <string>

#include "harness/sweep.hh"

namespace tproc::harness
{

/** What the ladder concluded about one point. */
struct OracleVerdict
{
    /** "" when every oracle agreed; otherwise "panic",
     *  "panic(replay)", "replay-divergence", or "injected". */
    std::string kind;
    std::string message;

    bool ok() const { return kind.empty(); }
    /** Both runs completed but disagree (or the test hook fired). */
    bool
    divergence() const
    {
        return kind == "replay-divergence" || kind == "injected";
    }
};

/**
 * Walk the ladder, first failure wins: the live run must complete, the
 * replayed run must complete, their StatDicts must be bit-identical.
 * @p inject reports an otherwise clean point as "injected", the test
 * hook that proves capture-on-failure end to end.
 */
OracleVerdict judgeOracles(const SweepResult &live,
                           const SweepResult &replayed, bool inject);

/**
 * Capture-on-failure: record @p workload into @p dir (created on
 * demand) as a v2 trace under its trace-store name. Returns the path,
 * or "" after appending the reason to @p message.
 */
std::string captureFailure(const std::string &dir,
                           const std::string &workload, uint64_t seed,
                           double scale, uint64_t insts,
                           std::string &message);

} // namespace tproc::harness

#endif // TPROC_HARNESS_ORACLE_HH
