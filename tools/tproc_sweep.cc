/**
 * @file
 * tproc-sweep: batch simulation CLI. Fans (workload x model) points
 * across worker threads via the harness SweepEngine, prints a result
 * table, and optionally writes the full per-point stats as JSON.
 *
 * Sweep usage:
 *   tproc-sweep [--workloads=a,b,...] [--models=a,b,...] [--insts=N]
 *               [--seed=S] [--threads=T] [--shard=I/N]
 *               [--resume=FILE] [--retries=R] [--json=FILE]
 *               [--merged-json=FILE] [--trace-dir=DIR] [--golden=DIR]
 *               [--write-golden=DIR] [--metrics-json=FILE]
 *               [--metrics-interval=N] [--no-verify] [--quiet]
 *               [--generate=N] [--gen-seed=S] [--pattern-mix=SPEC]
 *
 * Soak usage:
 *   tproc-sweep --soak[=SECONDSs|POINTS] [--gen-seed=S]
 *               [--pattern-mix=SPEC] [--insts=N]
 *               [--failure-dir=DIR] [--models=a,b,...] [--quiet]
 *
 * Merge usage:
 *   tproc-sweep merge [--out=FILE] shard0.json shard1.json ...
 *
 * --generate=N swaps the workload list for N generated synthetic
 * workloads "gen:<mix>:<0..N-1>" (src/workloads/generator.hh): the mix
 * comes from --pattern-mix (default "all"), the data seed from
 * --gen-seed (default --seed). Generated points are ordinary
 * SweepPoints — identity is the name plus seed — so they compose with
 * --shard/--resume/--trace-dir/--golden/--metrics-json unchanged, and
 * two runs with the same flags are bit-identical.
 *
 * --soak runs an endless seeded stream of generated workloads through
 * the standing oracles (golden verification, live==replay) until the
 * bound is hit: "--soak=45s" is a wall-time bound, "--soak=200" a
 * point count, bare "--soak" 30 seconds. Any
 * panic, watchdog bark, or divergence is captured as a v2 .tpt into
 * --failure-dir (default soak-failures/, left untouched while points
 * pass) together with a printed one-line repro command; exit status is
 * the number of failing points. docs/workloads.md documents the
 * capture-on-failure contract.
 *
 * An unknown workload name, generator pattern, or pattern-mix spec is
 * reported with the valid names and exits 2 (the usage convention
 * shared with tproc-bench).
 *
 * --threads fans points across engine workers; each simulation itself
 * runs one serial cycle loop. Stats are bit-identical for every
 * --threads value.
 *
 * --trace-dir=DIR runs every point in capture-once/replay-many mode:
 * the first point to touch a workload records its architectural trace
 * into DIR, all others replay the file (bit-identical stats by
 * contract). --golden=DIR compares each point's stats against the
 * checked-in snapshot DIR/<workload>__<model>.json and fails on any
 * counter drift; --write-golden=DIR (re)generates the snapshots when a
 * behavioural change is intentional.
 *
 * --shard=I/N runs the stable 1/N slice of the point grid owned by
 * 0-based shard I, with the same per-point indices and seeds as the
 * unsharded run. --resume=FILE journals every finished point to FILE
 * (JSON lines, flushed per record) and, when FILE already has records,
 * skips completed points and retries failed ones — a failure whose
 * journaled attempts already reached 1 + --retries stands instead of
 * being re-run.
 * `merge` folds shard artifacts (--json files) into one merged JSON
 * that is bit-identical to --merged-json of a serial unsharded run.
 *
 * --metrics-json=FILE writes a tproc-metrics-v1 telemetry document
 * (per-point interval series + phase wall-time attribution — see
 * docs/metrics.md) and implies --metrics-interval=4096 unless one is
 * given. Sampling is a pure observer: stats, artifacts, journals, and
 * golden comparisons are bit-identical with it on or off.
 *
 * Defaults: all eight workloads, models base + FG+MLB-RET, 400000
 * instructions, seed 1, hardware-concurrency threads, 1 retry,
 * progress on. Exit status is the number of ultimately-failed points
 * (capped at 125); 126 flags a usage or artifact error, except an
 * unwritable --metrics-json destination which exits 2 (checked up
 * front, matching tproc-bench's usage convention — see docs/cli.md).
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <filesystem>

#include "common/hires_timer.hh"
#include "common/stats.hh"
#include "core/config.hh"
#include "core/runner.hh"
#include "harness/golden.hh"
#include "harness/journal.hh"
#include "harness/metrics.hh"
#include "harness/soak.hh"
#include "harness/sweep.hh"
#include "tools/cli.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace tproc;
using cli::parseArg;
using cli::splitList;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: tproc-sweep [--workloads=a,b,...] [--models=a,b,...]\n"
          "                   [--insts=N] [--seed=S] [--threads=T]\n"
          "                   [--shard=I/N] [--resume=FILE] "
          "[--retries=R]\n"
          "                   [--json=FILE] [--merged-json=FILE]\n"
          "                   [--trace-dir=DIR] [--golden=DIR]\n"
          "                   [--write-golden=DIR] "
          "[--metrics-json=FILE]\n"
          "                   [--metrics-interval=N] [--no-verify] "
          "[--quiet]\n"
          "                   [--generate=N] [--gen-seed=S] "
          "[--pattern-mix=SPEC]\n"
          "       tproc-sweep --soak[=SECONDSs|POINTS] [--gen-seed=S]\n"
          "                   [--pattern-mix=SPEC] [--insts=N]\n"
          "                   [--failure-dir=DIR] [--models=a,b,...] "
          "[--quiet]\n"
          "       tproc-sweep merge [--out=FILE] a.json b.json ...\n";
}

/** Failed-point recap so CI logs show what broke without scrollback. */
int
printFailureSummary(const std::vector<harness::SweepResult> &results)
{
    int failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    if (!failed)
        return 0;
    std::cerr << "\ntproc-sweep: " << failed << " of " << results.size()
              << " points failed";
    std::cerr << ":\n";
    for (const auto &r : results) {
        if (r.ok)
            continue;
        std::cerr << "  point " << r.point.index << " "
                  << r.point.label() << " (seed " << r.point.seed
                  << "): " << r.error << "  [" << r.attempts
                  << (r.attempts == 1 ? " attempt]" : " attempts]")
                  << '\n';
    }
    return failed;
}

int
mergeMain(int argc, char **argv)
{
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
        std::string v;
        if (parseArg(argv[i], "--out", v)) {
            out_path = v;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        } else if (argv[i][0] == '-') {
            std::cerr << "tproc-sweep merge: unknown argument '"
                      << argv[i] << "'\n";
            usage(std::cerr);
            return 126;
        } else {
            inputs.push_back(argv[i]);
        }
    }
    if (inputs.empty()) {
        std::cerr << "tproc-sweep merge: no input files\n";
        usage(std::cerr);
        return 126;
    }

    std::vector<harness::SweepResult> all;
    for (const auto &path : inputs) {
        std::ifstream in(path);
        if (!in) {
            std::cerr << "tproc-sweep merge: cannot read " << path
                      << '\n';
            return 126;
        }
        try {
            auto shard = harness::readResultsJson(in);
            all.insert(all.end(), shard.begin(), shard.end());
        } catch (const std::exception &e) {
            std::cerr << "tproc-sweep merge: " << path << ": "
                      << e.what() << '\n';
            return 126;
        }
    }

    // Shards must tile the grid: a duplicate index means two artifacts
    // claim the same point (merging would double-count it), a gap means
    // a shard is missing (the merge would silently under-report).
    std::vector<uint64_t> indices;
    indices.reserve(all.size());
    for (const auto &r : all)
        indices.push_back(r.point.index);
    std::sort(indices.begin(), indices.end());
    for (size_t i = 1; i < indices.size(); ++i) {
        if (indices[i] == indices[i - 1]) {
            std::cerr << "tproc-sweep merge: point index " << indices[i]
                      << " appears in more than one input\n";
            return 126;
        }
    }
    for (size_t i = 0; i < indices.size(); ++i) {
        if (indices[i] != i) {
            std::cerr << "tproc-sweep merge: warning: point index " << i
                      << " missing (inputs do not tile a full grid)\n";
            break;
        }
    }

    std::ostream *os = &std::cout;
    std::ofstream out_file;
    if (!out_path.empty()) {
        out_file.open(out_path);
        if (!out_file) {
            std::cerr << "tproc-sweep merge: cannot write " << out_path
                      << '\n';
            return 126;
        }
        os = &out_file;
    }
    harness::writeMergedJson(*os, all);
    size_t failed = 0;
    for (const auto &r : all)
        failed += r.ok ? 0 : 1;
    std::cerr << "merged " << inputs.size() << " artifacts, "
              << all.size() - failed << "/" << all.size()
              << " points ok\n";
    return failed > 125 ? 125 : static_cast<int>(failed);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "merge") == 0)
        return mergeMain(argc, argv);

    std::vector<std::string> workloads = workloadNames();
    std::vector<std::string> models = {"base", "FG+MLB-RET"};
    uint64_t insts = 400000;
    uint64_t seed = 1;
    unsigned threads = 0;
    unsigned retries = 1;
    unsigned shard = 0;
    unsigned shard_count = 0;
    bool verify = true;
    bool quiet = false;
    std::string json_path;
    std::string merged_path;
    std::string resume_path;
    std::string trace_dir;
    std::string golden_dir;
    std::string write_golden_dir;
    std::string metrics_path;
    uint64_t metrics_interval = 0;
    uint64_t generate = 0;
    uint64_t gen_seed = 0;
    bool gen_seed_set = false;
    bool insts_set = false;
    std::string pattern_mix = "all";
    bool soak = false;
    uint64_t soak_points = 0;
    double soak_seconds = 0.0;
    std::string failure_dir = "soak-failures";

    auto badNumber = [](const char *flag, const std::string &v) {
        std::cerr << "tproc-sweep: bad " << flag << " '" << v
                  << "' (want a decimal number)\n";
        usage(std::cerr);
        return 126;
    };

    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (parseArg(argv[i], "--workloads", v)) {
            workloads = splitList(v);
        } else if (parseArg(argv[i], "--models", v)) {
            models = splitList(v);
        } else if (parseArg(argv[i], "--insts", v)) {
            if (!cli::parseU64(v, insts))
                return badNumber("--insts", v);
            insts_set = true;
        } else if (parseArg(argv[i], "--seed", v)) {
            if (!cli::parseU64(v, seed))
                return badNumber("--seed", v);
        } else if (parseArg(argv[i], "--threads", v)) {
            if (!cli::parseU32(v, threads))
                return badNumber("--threads", v);
        } else if (parseArg(argv[i], "--retries", v)) {
            if (!cli::parseU32(v, retries))
                return badNumber("--retries", v);
        } else if (parseArg(argv[i], "--metrics-json", v)) {
            metrics_path = v;
        } else if (parseArg(argv[i], "--metrics-interval", v)) {
            if (!cli::parseU64(v, metrics_interval) ||
                metrics_interval == 0) {
                return badNumber("--metrics-interval", v);
            }
        } else if (parseArg(argv[i], "--shard", v)) {
            if (!cli::parseShard(v, shard, shard_count)) {
                std::cerr << "tproc-sweep: bad --shard '" << v
                          << "' (want decimal I/N with 0 <= I < N)\n";
                usage(std::cerr);
                return 126;
            }
        } else if (parseArg(argv[i], "--resume", v)) {
            resume_path = v;
        } else if (parseArg(argv[i], "--json", v)) {
            json_path = v;
        } else if (parseArg(argv[i], "--merged-json", v)) {
            merged_path = v;
        } else if (parseArg(argv[i], "--trace-dir", v)) {
            trace_dir = v;
        } else if (parseArg(argv[i], "--golden", v)) {
            golden_dir = v;
        } else if (parseArg(argv[i], "--write-golden", v)) {
            write_golden_dir = v;
        } else if (parseArg(argv[i], "--generate", v)) {
            if (!cli::parseU64(v, generate) || generate == 0)
                return badNumber("--generate", v);
            if (generate > cli::maxCountFlag) {
                std::cerr << "tproc-sweep: --generate=" << generate
                          << " exceeds the grid bound "
                          << cli::maxCountFlag
                          << " (shard a large campaign instead)\n";
                usage(std::cerr);
                return 126;
            }
        } else if (parseArg(argv[i], "--gen-seed", v)) {
            if (!cli::parseU64(v, gen_seed))
                return badNumber("--gen-seed", v);
            gen_seed_set = true;
        } else if (parseArg(argv[i], "--pattern-mix", v)) {
            pattern_mix = v;
        } else if (std::strcmp(argv[i], "--soak") == 0) {
            soak = true;
        } else if (parseArg(argv[i], "--soak", v)) {
            // A trailing 's' makes the bound wall time; bare digits
            // make it a point count. Either way zero is a typo.
            soak = true;
            if (!v.empty() && v.back() == 's') {
                uint64_t secs = 0;
                if (!cli::parseU64(v.substr(0, v.size() - 1), secs) ||
                    secs == 0) {
                    return badNumber("--soak", v);
                }
                soak_seconds = static_cast<double>(secs);
            } else if (!cli::parseU64(v, soak_points) ||
                       soak_points == 0) {
                return badNumber("--soak", v);
            }
        } else if (parseArg(argv[i], "--failure-dir", v)) {
            failure_dir = v;
        } else if (std::strcmp(argv[i], "--no-verify") == 0) {
            verify = false;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "tproc-sweep: unknown argument '" << argv[i]
                      << "'\n";
            usage(std::cerr);
            return 126;
        }
    }

    if (soak && generate) {
        std::cerr << "tproc-sweep: --soak and --generate are mutually "
                     "exclusive (soak streams its own generated "
                     "points)\n";
        usage(std::cerr);
        return 126;
    }

    // Unknown workload or pattern names are usage errors caught up
    // front — report the valid names and exit 2 (docs/cli.md), instead
    // of surfacing them as per-point fault-capture failures mid-sweep.
    try {
        parsePatternMix(pattern_mix);
        if (generate) {
            workloads.clear();
            for (uint64_t i = 0; i < generate; ++i)
                workloads.push_back(generatedName(pattern_mix, i));
            if (gen_seed_set)
                seed = gen_seed;
        } else {
            const auto known = workloadNames();
            for (const auto &w : workloads) {
                if (isGeneratedName(w)) {
                    validateGeneratedName(w);
                } else if (std::find(known.begin(), known.end(), w) ==
                           known.end()) {
                    // Throws the menu-listing UnknownWorkloadError.
                    (void)makeWorkload(w, 1, 1.0);
                }
            }
        }
    } catch (const UnknownWorkloadError &e) {
        std::cerr << "tproc-sweep: " << e.what() << '\n';
        usage(std::cerr);
        return 2;
    }

    // Model names get the same up-front validation: a typo'd --models
    // entry is a usage error before any point runs, not a per-point
    // fault mid-sweep.
    for (const std::string &m : models) {
        try {
            (void)ProcessorConfig::forModel(m);
        } catch (const ConfigError &e) {
            std::cerr << "tproc-sweep: " << e.what() << '\n';
            usage(std::cerr);
            return 2;
        }
    }

    if (soak) {
        harness::SoakOptions sopts;
        sopts.mix = pattern_mix;
        sopts.seed = gen_seed_set ? gen_seed : seed;
        sopts.maxPoints = soak_points;
        sopts.maxSeconds = soak_seconds;
        sopts.insts = insts_set ? insts : 60000;
        sopts.models = models;
        sopts.failureDir = failure_dir;
        sopts.log = quiet ? nullptr : &std::cerr;
        const harness::SoakReport rep = harness::runSoak(sopts);
        // With --quiet the per-point stream is suppressed, but a
        // failure's capture path and repro line must still land in the
        // log — they are the whole point of the harness.
        if (quiet) {
            for (const auto &f : rep.failures) {
                std::cerr << "soak FAILURE [" << f.index << "] "
                          << f.workload << "/" << f.model << " (seed "
                          << f.seed << "): " << f.kind << ": "
                          << f.message << "\n";
                if (!f.tracePath.empty())
                    std::cerr << "  captured: " << f.tracePath << "\n";
                std::cerr << "  repro: " << f.repro << "\n";
            }
        }
        std::cout << "soak: " << rep.points << " point"
                  << (rep.points == 1 ? "" : "s") << " in "
                  << rep.wallSeconds << "s, " << rep.failures.size()
                  << " failure"
                  << (rep.failures.size() == 1 ? "" : "s");
        if (!rep.failures.empty())
            std::cout << " (captured under " << failure_dir << ")";
        std::cout << "\n";
        const size_t nfail = rep.failures.size();
        return nfail > 125 ? 125 : static_cast<int>(nfail);
    }

    // An unwritable telemetry destination is a usage error up front
    // (exit 2, the metrics-emitting convention shared with tproc-bench
    // — docs/cli.md), not a lost-results fopen error after the sweep.
    if (!metrics_path.empty()) {
        if (!cli::checkWritable(metrics_path)) {
            std::cerr << "tproc-sweep: cannot write --metrics-json path '"
                      << metrics_path << "'\n";
            usage(std::cerr);
            return 2;
        }
        if (metrics_interval == 0)
            metrics_interval = 4096;
    }
    const std::vector<PhaseStat> phases_before =
        PhaseTimers::global().snapshot();

    auto grid =
        harness::crossPoints(workloads, models, seed, insts, verify);
    // Replay mode and telemetry are per-point execution details:
    // indices, seeds, and stats are identical to a plain live run, so
    // both compose with sharding and resume untouched.
    if (!trace_dir.empty()) {
        for (auto &p : grid)
            p.traceDir = trace_dir;
    }
    if (metrics_interval) {
        for (auto &p : grid)
            p.metricsInterval = metrics_interval;
    }
    auto points =
        shard_count ? harness::shardPoints(grid, shard, shard_count)
                    : grid;

    // Resume: reuse journaled work, run only what is missing or worth
    // retrying; every newly finished point is journaled as it lands.
    std::vector<harness::SweepResult> reused;
    std::unique_ptr<harness::SweepJournal> journal;
    if (!resume_path.empty()) {
        harness::ResumePlan plan;
        bool had_records = false;
        try {
            // load() throws on a journal whose lines parse but do not
            // decode (schema drift, edits): that must refuse the
            // resume, not silently re-run points. Torn tail lines are
            // merely counted and surface as a warning via the plan.
            size_t skipped = 0;
            auto records =
                harness::SweepJournal::load(resume_path, &skipped);
            had_records = !records.empty();
            plan = harness::planResume(points, records, retries + 1,
                                       skipped);
        } catch (const std::exception &e) {
            std::cerr << "tproc-sweep: " << e.what() << '\n';
            return 126;
        }
        if (plan.skippedLines) {
            std::cerr << "tproc-sweep: warning: dropped "
                      << plan.skippedLines << " unreadable journal line"
                      << (plan.skippedLines == 1 ? "" : "s")
                      << " (interrupted write?); those points will "
                         "re-run\n";
        }
        if (had_records) {
            std::cerr << "resume: reusing " << plan.completed
                      << " completed point"
                      << (plan.completed == 1 ? "" : "s") << ", retrying "
                      << plan.retried << ", keeping " << plan.exhausted
                      << " exhausted failure"
                      << (plan.exhausted == 1 ? "" : "s") << ", "
                      << plan.pending.size() << " to run\n";
        }
        reused = std::move(plan.reused);
        points = std::move(plan.pending);
        try {
            journal =
                std::make_unique<harness::SweepJournal>(resume_path);
        } catch (const std::exception &e) {
            std::cerr << "tproc-sweep: " << e.what() << '\n';
            return 126;
        }
    }

    harness::SweepEngine::Options opts;
    opts.threads = threads;
    opts.progress = !quiet;
    opts.retries = retries;
    if (journal) {
        opts.onResult = [&journal](const harness::SweepResult &r) {
            journal->append(r);
        };
    }
    harness::SweepEngine engine(opts);

    if (!quiet) {
        std::cerr << "sweep: " << points.size() << " points";
        if (shard_count) {
            std::cerr << " (shard " << shard << "/" << shard_count
                      << " of " << grid.size() << ")";
        } else {
            std::cerr << " (" << workloads.size() << " workloads x "
                      << models.size() << " models)";
        }
        std::cerr << ", " << engine.effectiveThreads(points.size())
                  << " threads, " << insts << " insts/point, seed "
                  << seed << (verify ? ", verified" : "");
        std::cerr << "\n";
    }

    auto results = engine.run(points);
    results.insert(results.end(), reused.begin(), reused.end());
    std::sort(results.begin(), results.end(),
              [](const harness::SweepResult &a,
                 const harness::SweepResult &b) {
                  return a.point.index < b.point.index;
              });

    TextTable table;
    table.header({"point", "result"});
    for (const auto &r : results) {
        if (r.ok) {
            table.row({r.point.label(), statsSummaryLine(r.stats)});
        } else {
            table.row({r.point.label(), "FAILED: " + r.error});
        }
    }
    table.print(std::cout);

    int failed = printFailureSummary(results);

    // Golden-statistics regression gate: every successful point's full
    // counter dict must match its checked-in snapshot bit for bit.
    int drifted = 0;
    if (!golden_dir.empty()) {
        for (const auto &r : results) {
            if (!r.ok)
                continue;
            const std::string path =
                golden_dir + "/" + harness::goldenFileName(r.point);
            try {
                const StatDict expected = harness::readGoldenFile(path);
                const auto drift = harness::diffStatDicts(
                    expected, harness::statsToDict(r.stats));
                if (drift.empty())
                    continue;
                ++drifted;
                std::cerr << "golden drift: " << r.point.label()
                          << " vs " << path << ":\n";
                size_t shown = 0;
                for (const auto &d : drift) {
                    if (++shown > 12) {
                        std::cerr << "  ... and " << drift.size() - 12
                                  << " more counters\n";
                        break;
                    }
                    std::cerr << "  " << d.key << ": golden "
                              << (d.inExpected ? jsonNumber(d.expected)
                                               : std::string("<absent>"))
                              << ", got "
                              << (d.inActual ? jsonNumber(d.actual)
                                             : std::string("<absent>"))
                              << '\n';
                }
            } catch (const std::exception &e) {
                ++drifted;
                std::cerr << "golden: " << r.point.label() << ": "
                          << e.what() << '\n';
            }
        }
        if (drifted) {
            std::cerr << "golden: " << drifted
                      << " point(s) drifted from " << golden_dir
                      << " (see README on regenerating snapshots)\n";
        } else if (!quiet) {
            std::cerr << "golden: all points match " << golden_dir
                      << '\n';
        }
    }

    if (!write_golden_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(write_golden_dir, ec);
        int written = 0;
        for (const auto &r : results) {
            if (!r.ok)
                continue;
            try {
                harness::writeGoldenFile(
                    write_golden_dir + "/" +
                        harness::goldenFileName(r.point),
                    harness::statsToDict(r.stats));
                ++written;
            } catch (const std::exception &e) {
                std::cerr << "tproc-sweep: " << e.what() << '\n';
                return 126;
            }
        }
        std::cerr << "wrote " << written << " golden snapshot"
                  << (written == 1 ? "" : "s") << " to "
                  << write_golden_dir << '\n';
    }

    StatDict merged = harness::mergeResults(results);
    std::cout << "\nmerged: " << results.size() - failed << "/"
              << results.size() << " points ok, "
              << jsonNumber(merged.get("retiredInsts"))
              << " total retired insts, "
              << jsonNumber(merged.get("cycles")) << " total cycles\n";

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "tproc-sweep: cannot write " << json_path
                      << '\n';
            return 126;
        }
        harness::writeResultsJson(out, results);
        if (!quiet)
            std::cerr << "wrote " << json_path << '\n';
    }
    if (!merged_path.empty()) {
        std::ofstream out(merged_path);
        if (!out) {
            std::cerr << "tproc-sweep: cannot write " << merged_path
                      << '\n';
            return 126;
        }
        harness::writeMergedJson(out, results);
        if (!quiet)
            std::cerr << "wrote " << merged_path << '\n';
    }
    if (!metrics_path.empty()) {
        try {
            harness::writeMetricsFile(
                metrics_path,
                harness::buildMetricsDoc(
                    metrics_interval, results,
                    PhaseTimers::diff(PhaseTimers::global().snapshot(),
                                      phases_before)));
        } catch (const std::exception &e) {
            std::cerr << "tproc-sweep: " << e.what() << '\n';
            return 126;
        }
        if (!quiet)
            std::cerr << "wrote " << metrics_path << '\n';
    }

    const int bad = failed + drifted;
    return bad > 125 ? 125 : bad;
}
