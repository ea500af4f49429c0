/**
 * @file
 * tproc-explore: config-space exploration CLI. Deterministically
 * samples N machine shapes from the declarative ShapeSpace knob
 * ranges, pairs shape i with generated workload "gen:<mix>:<i>", and
 * runs every point through the two standing oracles (live
 * golden-verified, replay-from-capture) with capture-on-failure and
 * cliff detection (src/harness/explorer.hh, docs/explorer.md).
 *
 * Usage:
 *   tproc-explore [--shapes=N] [--seed=S] [--mix=SPEC] [--insts=N]
 *                 [--threads=T] [--shard=I/N] [--point=I]
 *                 [--failure-dir=DIR] [--scratch-dir=DIR]
 *                 [--metrics-interval=N] [--frontier=K] [--json=FILE]
 *                 [--quiet]
 *
 * --json writes the deterministic explore-report-v1 document: two
 * runs with the same flags are byte-identical for any --threads or
 * machine (CI gates this). --shard=I/N explores the stable 1/N slice
 * of the shape grid (same indices, shapes, and workloads as the
 * unsharded run). --point=I re-runs exactly one index — the repro
 * path printed on every captured failure.
 *
 * Exit status: number of failing points (capped at 125); usage errors
 * exit 2 (the tproc-bench convention — every corner input, including
 * degenerate --shard specs and out-of-range counts, is a reported
 * usage error up front, never a downstream assert). An unknown
 * --mix lists the valid pattern names.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/explorer.hh"
#include "tools/cli.hh"
#include "workloads/workloads.hh"

using namespace tproc;
using cli::parseArg;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: tproc-explore [--shapes=N] [--seed=S] [--mix=SPEC]\n"
          "                     [--insts=N] [--threads=T]\n"
          "                     [--shard=I/N] [--point=I]\n"
          "                     [--failure-dir=DIR] "
          "[--scratch-dir=DIR]\n"
          "                     [--metrics-interval=N] [--frontier=K]\n"
          "                     [--json=FILE] [--quiet]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    harness::ExploreOptions opts;
    opts.shapes = 500;
    std::string json_path;
    bool quiet = false;
    int64_t point = -1;
    bool point_set = false;

    auto badNumber = [](const char *flag, const std::string &v) {
        std::cerr << "tproc-explore: bad " << flag << " '" << v
                  << "' (want a decimal number)\n";
        usage(std::cerr);
        return 2;
    };

    for (int i = 1; i < argc; ++i) {
        std::string v;
        uint64_t u = 0;
        if (parseArg(argv[i], "--shapes", v)) {
            if (!cli::parseU64(v, opts.shapes) || opts.shapes == 0)
                return badNumber("--shapes", v);
            if (opts.shapes > cli::maxCountFlag) {
                std::cerr << "tproc-explore: --shapes=" << opts.shapes
                          << " exceeds the grid bound "
                          << cli::maxCountFlag
                          << " (shard a large campaign instead)\n";
                usage(std::cerr);
                return 2;
            }
        } else if (parseArg(argv[i], "--seed", v)) {
            if (!cli::parseU64(v, opts.seed))
                return badNumber("--seed", v);
        } else if (parseArg(argv[i], "--mix", v)) {
            opts.mix = v;
        } else if (parseArg(argv[i], "--insts", v)) {
            if (!cli::parseU64(v, opts.insts) || opts.insts == 0)
                return badNumber("--insts", v);
        } else if (parseArg(argv[i], "--threads", v)) {
            if (!cli::parseU32(v, opts.threads))
                return badNumber("--threads", v);
        } else if (parseArg(argv[i], "--shard", v)) {
            if (!cli::parseShard(v, opts.shard, opts.shardCount)) {
                std::cerr << "tproc-explore: bad --shard '" << v
                          << "' (want decimal I/N with 0 <= I < N)\n";
                usage(std::cerr);
                return 2;
            }
        } else if (parseArg(argv[i], "--point", v)) {
            if (!cli::parseU64(v, u) || u > INT64_MAX)
                return badNumber("--point", v);
            point = static_cast<int64_t>(u);
            point_set = true;
        } else if (parseArg(argv[i], "--failure-dir", v)) {
            opts.failureDir = v;
        } else if (parseArg(argv[i], "--scratch-dir", v)) {
            opts.scratchDir = v;
        } else if (parseArg(argv[i], "--metrics-interval", v)) {
            if (!cli::parseU64(v, opts.metricsInterval))
                return badNumber("--metrics-interval", v);
        } else if (parseArg(argv[i], "--frontier", v)) {
            if (!cli::parseU64(v, u) || u == 0 ||
                u > cli::maxCountFlag) {
                return badNumber("--frontier", v);
            }
            opts.frontierSize = static_cast<size_t>(u);
        } else if (parseArg(argv[i], "--json", v)) {
            json_path = v;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "tproc-explore: unknown argument '" << argv[i]
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    if (point_set) {
        if (static_cast<uint64_t>(point) >= opts.shapes) {
            std::cerr << "tproc-explore: --point=" << point
                      << " is outside the grid (--shapes="
                      << opts.shapes << ")\n";
            usage(std::cerr);
            return 2;
        }
        opts.onlyPoint = point;
    }

    // A bad report destination is a usage error up front, not a
    // lost-results error after the whole campaign.
    if (!json_path.empty() && !cli::checkWritable(json_path)) {
        std::cerr << "tproc-explore: cannot write --json path '"
                  << json_path << "'\n";
        usage(std::cerr);
        return 2;
    }

    opts.log = quiet ? nullptr : &std::cerr;

    harness::ExploreReport report;
    try {
        // An unknown pattern mix lists the valid names (the
        // UnknownWorkloadError convention shared with tproc-sweep).
        report = harness::runExplore(opts);
    } catch (const UnknownWorkloadError &e) {
        std::cerr << "tproc-explore: " << e.what() << '\n';
        usage(std::cerr);
        return 2;
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "tproc-explore: cannot write " << json_path
                      << '\n';
            return 2;
        }
        harness::writeExploreReport(out, report, opts);
        if (!quiet)
            std::cerr << "wrote " << json_path << '\n';
    }

    std::cout << "explore: " << report.pointsRun << " shape"
              << (report.pointsRun == 1 ? "" : "s") << " of "
              << report.shapes << ", " << report.failures << " failure"
              << (report.failures == 1 ? "" : "s") << " ("
              << report.divergences << " divergence"
              << (report.divergences == 1 ? "" : "s") << ")";
    if (report.failures)
        std::cout << ", captures under " << opts.failureDir;
    if (!report.frontier.empty()) {
        std::cout << "\nfrontier:";
        for (uint64_t idx : report.frontier)
            std::cout << " " << idx;
    }
    std::cout << "\n";

    const uint64_t bad = report.failures;
    return bad > 125 ? 125 : static_cast<int>(bad);
}
