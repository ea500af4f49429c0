/**
 * @file
 * Soak campaign: a randomized-but-seeded stream of generated workloads
 * driven through the standing correctness oracles, with capture-on-
 * failure.
 *
 * Each soak point i builds the generated workload "gen:<mix>:<i>" and
 * runs it through the oracle ladder (harness/oracle.hh): live
 * (golden-verified) and replayed from a captured trace. Any panic
 * (including a watchdog bark — a structured WatchdogError), any
 * StatDict divergence between the runs, or any verification failure is
 * a soak failure. A failure writes the offending workload as a v2
 * `.tpt` into the failure directory — named by the trace-store
 * convention, so `--trace-dir=<failure-dir>` replays it directly — and
 * prints a one-line tproc-sweep repro command (the microreboot idea
 * from PAPERS.md: every crash leaves a cheap, precise recovery point).
 */

#ifndef TPROC_HARNESS_SOAK_HH
#define TPROC_HARNESS_SOAK_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tproc::harness
{

struct SoakOptions
{
    /** Pattern-mix spec for the generated stream (generator.hh). */
    std::string mix = "all";

    /** Seed for every generated point (the index varies the program). */
    uint64_t seed = 1;

    /** Stop after this many points (0 = no point bound). */
    uint64_t maxPoints = 0;

    /** Stop once this much wall time has elapsed (0 = no time bound).
     *  The bound is checked between points, so the last point may
     *  overshoot it. If neither bound is set, runSoak defaults to 30
     *  seconds. */
    double maxSeconds = 0.0;

    /** Retired-instruction cap per run. */
    uint64_t insts = 60000;

    /** Models rotated across points. */
    std::vector<std::string> models = {"base", "FG+MLB-RET"};

    /** Where failing workloads are captured as .tpt files. Stays
     *  untouched (not even created) while every point passes. */
    std::string failureDir = "soak-failures";

    /** Trace store for the replay oracle; defaults to
     *  failureDir + ".store" so the failure dir itself holds nothing
     *  but failures. */
    std::string scratchDir;

    /** Per-point progress + failure/repro lines (null = silent). */
    std::ostream *log = nullptr;

    /** Test hook: report this point index as a divergence even though
     *  its oracles agreed, to prove the capture-on-failure path end to
     *  end (-1 = off). */
    int64_t injectFailureAt = -1;
};

struct SoakFailure
{
    uint64_t index = 0;
    std::string workload;
    std::string model;
    uint64_t seed = 0;
    /** The OracleVerdict kind: "panic", "panic(replay)",
     *  "replay-divergence", or "injected". */
    std::string kind;
    std::string message;
    /** Captured .tpt artifact ("" if the capture itself failed). */
    std::string tracePath;
    /** One-line tproc-sweep command replaying the captured point. */
    std::string repro;
};

struct SoakReport
{
    uint64_t points = 0;
    std::vector<SoakFailure> failures;
    double wallSeconds = 0.0;
};

/** Run the campaign until a bound (points or seconds) is hit. */
SoakReport runSoak(const SoakOptions &opts);

} // namespace tproc::harness

#endif // TPROC_HARNESS_SOAK_HH
