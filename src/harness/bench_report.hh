/**
 * @file
 * Canonical performance-trajectory reports (BENCH_<n>.json).
 *
 * Every optimisation PR checks one BENCH_<n>.json into the repo root:
 * a single JSON document holding simulation throughput (cycles/sec and
 * insts/sec) per golden workload, the capture-once/replay-many
 * speedup, and trace-container compression ratios — plus a
 * `baseline` block carrying the same
 * summary numbers measured on the tree *before* that PR's hot-path
 * work, so the file itself documents the win it claims.
 *
 * The report splits into timing fields (wall seconds, rates, speedups
 * — machine-dependent, never gated) and non-timing fields (cycle
 * counts, retired instructions, identity booleans, trace byte sizes —
 * bit-deterministic by the repo's replay contract). CI re-runs the
 * bench and diffs only the non-timing view against the checked-in
 * file, making the report a golden artifact without pinning wall
 * clocks.
 */

#ifndef TPROC_HARNESS_BENCH_REPORT_HH
#define TPROC_HARNESS_BENCH_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace tproc::harness
{

/** Everything a bench-report run needs; fully determines the report's
 *  non-timing fields. */
struct BenchReportOptions
{
    /** Retired-instruction limit per run. */
    uint64_t insts = 100000;

    /** Workload generation seed. */
    uint64_t seed = 1;

    /** Named model (ProcessorConfig::forModel) all runs use. */
    std::string model = "base";

    /** Wall-time repetitions; each pass reports the best rep to damp
     *  scheduler noise. Stats must be identical across reps. */
    int reps = 3;

    /** Sequence number of the BENCH_<n>.json this run produces. */
    unsigned benchIndex = 1;

    /** Golden-model retirement verification during the live pass. */
    bool verify = true;

    /** Trace directory for the replay passes; empty = fresh temp dir,
     *  removed afterwards. */
    std::string traceDir;

    /**
     * Windowed-telemetry sampling interval for every bench point
     * (ProcessorConfig::metricsInterval; 0 = off). Never part of the
     * report's non-timing identity: stats are bit-identical either way
     * by the telemetry contract, and the sampled series only leaves
     * through the metricsDoc out-param of runBenchReport.
     */
    uint64_t metricsInterval = 0;
};

/**
 * Run the full bench suite and build the report document. Progress
 * lines go to *progress when non-null. Throws std::runtime_error if a
 * simulation point fails (a broken simulator must not produce a
 * plausible-looking artifact).
 *
 * The report carries a "phases" block (wall-clock attribution from
 * PhaseTimers::global(), scoped to this run) which — like wall_seconds
 * and host — is a timing field, stripped from the non-timing view.
 * When opts.metricsInterval > 0 and metricsDoc is non-null, a
 * tproc-metrics-v1 document covering the live pass is stored there
 * (see harness/metrics.hh and docs/metrics.md).
 */
JsonValue runBenchReport(const BenchReportOptions &opts,
                         std::ostream *progress = nullptr,
                         JsonValue *metricsDoc = nullptr);

/**
 * The deterministic projection of a report: a deep copy with every
 * timing field (wall seconds, rates, speedups, the baseline block, and
 * host metadata) removed. Two runs of the same tree at the same
 * options produce bit-identical non-timing views; CI diffs this view
 * against the checked-in BENCH_<n>.json.
 */
JsonValue benchNonTimingView(const JsonValue &report);

/**
 * Compare the non-timing views of two reports. @return one
 * human-readable line per mismatch (empty = identical). Key order
 * matters: these artifacts are written by writeJson, so an ordering
 * change is a real schema change.
 */
std::vector<std::string> diffBenchReports(const JsonValue &a,
                                          const JsonValue &b);

/**
 * Rebuild the options a report was generated with from its "config"
 * block, so a checker re-runs at exactly the checked-in identity.
 * Throws std::runtime_error on a malformed block.
 */
BenchReportOptions optionsFromReport(const JsonValue &report);

/**
 * Attach a `baseline` block to report: the summary throughput numbers
 * of baselineReport (a report measured on the pre-change tree) plus
 * the speedup of report's own summary over it. label names what the
 * baseline tree was.
 */
void attachBaseline(JsonValue &report, const JsonValue &baselineReport,
                    const std::string &label);

} // namespace tproc::harness

#endif // TPROC_HARNESS_BENCH_REPORT_HH
