/**
 * @file
 * Shared helpers for the table/figure regeneration drivers.
 *
 * Every driver prints the paper's reference numbers next to the measured
 * ones; the workloads are synthetic SPEC95 analogs (see
 * docs/workloads.md), so the *shape* — who wins, by roughly what factor,
 * where crossovers fall — is the claim, not the absolute values.
 *
 * All drivers share one BenchOptions instance, filled from command-line
 * flags by parseBenchArgs.
 */

#ifndef TPROC_BENCHCOMMON_HH
#define TPROC_BENCHCOMMON_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/stats.hh"
#include "core/runner.hh"
#include "harness/sweep.hh"
#include "workloads/workloads.hh"

namespace tproc::bench
{

/** Every knob the bench drivers understand, in one struct; flags
 *  override the defaults (see parseBenchArgs). */
struct BenchOptions
{
    /** Instructions simulated per benchmark per configuration
     *  (--insts). */
    uint64_t insts = 400000;

    /** Workload generation seed (--seed). */
    uint64_t seed = 1;

    /** Golden-model verification (on by default, off with
     *  --no-verify: it is cheap and a silent wrong-path bug would
     *  invalidate the numbers). */
    bool verify = true;

    /** Sweep-engine worker threads, 0 = hardware concurrency
     *  (--threads); 1 restores the old serial behaviour bit for bit. */
    unsigned threads = 0;

    /** Per-point sweep-results JSON artifact path (--json); empty =
     *  driver default or none. */
    std::string json;
};

/** The driver-wide options instance parseBenchArgs fills. */
inline BenchOptions &
options()
{
    static BenchOptions opts;
    return opts;
}

/**
 * Apply one "--key=value" flag to opts. @return true if the flag was
 * recognized; sets *error (if non-null) on a recognized flag with a
 * malformed value.
 */
inline bool
applyBenchArg(BenchOptions &opts, const char *arg,
              std::string *error = nullptr)
{
    auto value = [&](const char *key) -> const char * {
        size_t len = std::strlen(key);
        if (std::strncmp(arg, key, len) == 0 && arg[len] == '=')
            return arg + len + 1;
        return nullptr;
    };
    auto parseUnsigned = [&](const char *v, auto &into) {
        using Into = std::decay_t<decltype(into)>;
        uint64_t n;
        if (!tproc::parseU64(v, n) ||
            n > std::numeric_limits<Into>::max()) {
            if (error)
                *error = std::string("malformed number in '") + arg + "'";
            return true;    // recognized, but bad
        }
        into = static_cast<Into>(n);
        return true;
    };
    if (const char *v = value("--insts"))
        return parseUnsigned(v, opts.insts);
    if (const char *v = value("--seed"))
        return parseUnsigned(v, opts.seed);
    if (const char *v = value("--threads"))
        return parseUnsigned(v, opts.threads);
    if (std::strcmp(arg, "--no-verify") == 0) {
        opts.verify = false;
        return true;
    }
    if (const char *v = value("--json")) {
        opts.json = v;
        return true;
    }
    return false;
}

/**
 * Parse flags into opts. @return std::nullopt on success, otherwise a
 * message describing the first unrecognized flag or malformed value.
 * The pure core of parseBenchArgs, separated so tests can drive it
 * without process exits.
 */
inline std::optional<std::string>
parseBenchArgsInto(BenchOptions &opts, int argc, char **argv,
                   std::vector<std::string> *passthrough = nullptr)
{
    for (int i = 1; i < argc; ++i) {
        std::string error;
        if (applyBenchArg(opts, argv[i], &error)) {
            if (!error.empty())
                return error;
            continue;
        }
        if (passthrough) {
            passthrough->push_back(argv[i]);
            continue;
        }
        return std::string("unknown argument '") + argv[i] + "'";
    }
    return std::nullopt;
}

inline void
printBenchUsage(const char *argv0, std::ostream &os)
{
    os << "usage: " << argv0 << " [flags]\n"
       << "  --insts=N       instructions per benchmark per config ("
       << BenchOptions().insts << ")\n"
       << "  --seed=N        workload generation seed (1)\n"
       << "  --no-verify     skip golden-model retirement verification\n"
       << "  --threads=N     sweep worker threads, 0 = hw concurrency\n"
       << "  --json=FILE     write per-point sweep results JSON\n";
}

/**
 * Parse command-line flags into options(). Prints usage and exits on
 * --help or on an unrecognized/malformed argument. Drivers that must
 * tolerate foreign flags (bench_micro_components forwards to
 * google-benchmark) pass a non-null passthrough vector.
 */
inline void
parseBenchArgs(int argc, char **argv,
               std::vector<std::string> *passthrough = nullptr)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            printBenchUsage(argv[0], std::cout);
            std::exit(0);
        }
    }
    if (auto err = parseBenchArgsInto(options(), argc, argv,
                                      passthrough)) {
        std::cerr << argv[0] << ": " << *err << "\n\n";
        printBenchUsage(argv[0], std::cerr);
        std::exit(2);
    }
}

/** A sweep engine configured from the shared options. */
inline harness::SweepEngine
makeEngine()
{
    harness::SweepEngine::Options opts;
    opts.threads = options().threads;
    opts.progress = true;
    return harness::SweepEngine(opts);
}

/**
 * Run a batch of points through the engine; any failed point aborts the
 * driver (the tables need every cell), but only after the whole batch
 * has run and every failure has been listed. If options().json names
 * a file, the full per-point results are written there for CI to
 * archive — including failed points, so the artifact survives for
 * debugging.
 */
inline std::vector<harness::SweepResult>
runSweep(std::vector<harness::SweepPoint> points)
{
    // Bench drivers assemble points by hand; stamp grid indices by
    // position so failure reports name the right point and the JSON
    // artifact stays merge-compatible (no duplicate index 0).
    for (size_t i = 0; i < points.size(); ++i)
        points[i].index = i;
    auto engine = makeEngine();
    std::cerr << "  sweep: " << points.size() << " points across "
              << engine.effectiveThreads(points.size()) << " threads\n";
    auto results = engine.run(points);
    if (!options().json.empty()) {
        std::ofstream out(options().json);
        harness::writeResultsJson(out, results);
        std::cerr << "  wrote sweep results to " << options().json
                  << '\n';
    }
    size_t failed = 0;
    for (const auto &r : results) {
        if (!r.ok) {
            std::cerr << "bench: point " << r.point.index << " "
                      << r.point.label() << " failed: " << r.error
                      << '\n';
            ++failed;
        }
    }
    if (failed) {
        std::cerr << "bench: " << failed << " of " << results.size()
                  << " points failed\n";
        std::exit(1);
    }
    return results;
}

/** Run all workloads on a set of models; result[workload][model].
 *  Points fan out across options().threads workers. */
inline std::map<std::string, std::map<std::string, ProcessorStats>>
runMatrix(const std::vector<std::string> &models)
{
    auto points = harness::crossPoints(workloadNames(), models,
                                       options().seed, options().insts,
                                       options().verify);
    auto results = runSweep(points);
    std::map<std::string, std::map<std::string, ProcessorStats>> out;
    for (const auto &r : results)
        out[r.point.workload][r.point.model] = r.stats;
    return out;
}

inline void
printHeaderNote(const char *what)
{
    std::cout << what << "\n"
              << "(synthetic SPEC95-analog workloads; "
              << options().insts << " instructions per run, seed "
              << options().seed << "; see docs/workloads.md for the "
              << "substitution rationale)\n\n";
}

} // namespace tproc::bench

#endif // TPROC_BENCHCOMMON_HH
