/**
 * @file
 * Sweep-engine scaling micro-benchmark: run the same point batch
 * serially (1 thread) and in parallel (--threads or hardware
 * concurrency), check the results are bit-identical, then run the
 * batch again in capture-once/replay-many mode (record each workload's
 * architectural trace on first use, replay it for every other point)
 * and check that replay is bit-identical to — and faster than —
 * regenerating every point from scratch. Wall-clock, throughput, and
 * speedups land in a JSON artifact for CI to archive (--json, default
 * sweep_scaling.json).
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "bench/common.hh"
#include "replay/capture.hh"
#include "replay/trace_store.hh"

using namespace tproc;

namespace
{

double
timedRun(harness::SweepEngine &engine,
         const std::vector<harness::SweepPoint> &points,
         std::vector<harness::SweepResult> &results)
{
    auto t0 = std::chrono::steady_clock::now();
    results = engine.run(points);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0).count();
}

bool
sameStats(const std::vector<harness::SweepResult> &a,
          const std::vector<harness::SweepResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].ok != b[i].ok ||
            harness::statsToDict(a[i].stats) !=
                harness::statsToDict(b[i].stats)) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::printHeaderNote("SWEEP SCALING: serial vs parallel vs replay");

    auto points = harness::crossPoints(
        workloadNames(), {"base", "FG+MLB-RET"}, bench::options().seed,
        bench::options().insts, bench::options().verify);

    // --repeat tiles the batch: more points amortize thread startup
    // and scheduler noise when the per-point runtime is small (CI
    // keeps --insts low to stay quick).
    const unsigned repeat = bench::options().repeat;
    const size_t base_count = points.size();
    for (unsigned r = 1; r < repeat; ++r)
        for (size_t i = 0; i < base_count; ++i)
            points.push_back(points[i]);
    // Re-stamp grid indices after tiling so the JSON artifact carries
    // distinct per-point identities.
    for (size_t i = 0; i < points.size(); ++i)
        points[i].index = i;

    harness::SweepEngine::Options serial_opts;
    serial_opts.threads = 1;
    harness::SweepEngine serial(serial_opts);

    harness::SweepEngine::Options par_opts;
    par_opts.threads = bench::options().threads;
    harness::SweepEngine parallel(par_opts);
    const unsigned nthreads = parallel.effectiveThreads(points.size());

    std::cerr << "  " << points.size() << " points, serial pass...\n";
    std::vector<harness::SweepResult> serial_results;
    double serial_s = timedRun(serial, points, serial_results);

    std::cerr << "  parallel pass (" << nthreads << " threads)...\n";
    std::vector<harness::SweepResult> par_results;
    double par_s = timedRun(parallel, points, par_results);

    // Replay passes: same grid, fed from recorded traces. The cold
    // pass pays the one-time captures (record on first use); the warm
    // pass is the steady state every later sweep over the same
    // workloads enjoys.
    const std::filesystem::path trace_dir =
        std::filesystem::temp_directory_path() /
        ("tproc_bench_traces." + std::to_string(::getpid()));
    auto replay_points = points;
    for (auto &p : replay_points)
        p.traceDir = trace_dir.string();

    std::cerr << "  replay pass, cold (captures traces)...\n";
    std::vector<harness::SweepResult> replay_cold_results;
    double replay_cold_s =
        timedRun(parallel, replay_points, replay_cold_results);

    std::cerr << "  replay pass, warm (traces on disk)...\n";
    std::vector<harness::SweepResult> replay_results;
    double replay_s = timedRun(parallel, replay_points, replay_results);

    // The compression probe below measures the slowest point's
    // workload.
    size_t slowest = 0;
    for (size_t i = 1; i < serial_results.size(); ++i) {
        if (serial_results[i].wallSeconds >
            serial_results[slowest].wallSeconds) {
            slowest = i;
        }
    }

    // Trace-size accounting: total on-disk bytes of the (compressed,
    // v2) traces the replay passes ran off, and the compression ratio
    // on the slowest point's workload — measured against a freshly
    // captured uncompressed (v1) twin of the same identity.
    uintmax_t trace_dir_bytes = 0;
    for (const auto &e : std::filesystem::directory_iterator(trace_dir)) {
        if (e.path().extension() == ".tpt")
            trace_dir_bytes += std::filesystem::file_size(e.path());
    }
    // A failure here (disk full, replay dir disturbed) must neither
    // abort the bench after all timing work is done nor report a
    // garbage ratio: trace_ratio simply stays 0 ("not measured").
    double trace_ratio = 0.0;
    try {
        const harness::SweepPoint &sp = replay_points[slowest];
        replay::TraceStore store(trace_dir.string());
        const std::string v2_path =
            store.tracePath(sp.workload, sp.seed, sp.scale, sp.maxInsts);
        const std::string v1_path =
            (trace_dir / "uncompressed_twin.v1.tpt").string();
        std::error_code szec;
        const auto v2_bytes = std::filesystem::file_size(v2_path, szec);
        if (!szec && v2_bytes > 0) {
            replay::captureWorkloadTrace(sp.workload, sp.seed, sp.scale,
                                         sp.maxInsts, v1_path,
                                         /*compress=*/false);
            const auto v1_bytes =
                std::filesystem::file_size(v1_path, szec);
            if (!szec && v1_bytes > 0) {
                trace_ratio = static_cast<double>(v1_bytes) /
                    static_cast<double>(v2_bytes);
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "  (compression-ratio probe failed: " << e.what()
                  << ")\n";
    }

    std::error_code ec;
    std::filesystem::remove_all(trace_dir, ec);

    // The engine's determinism contract: identical per-point stats no
    // matter how many workers ran the batch — or whether the points
    // were regenerated live or replayed from trace files.
    bool identical = sameStats(serial_results, par_results);
    bool replay_identical = sameStats(serial_results, replay_results) &&
        sameStats(serial_results, replay_cold_results);
    // Failures are counted from the serial pass only (the canonical
    // reference); a pass-specific failure elsewhere shows up as an ok
    // mismatch in the identity checks above.
    int failed = 0;
    uint64_t total_insts = 0;
    for (const auto &r : serial_results) {
        if (!r.ok)
            ++failed;
        total_insts += r.stats.retiredInsts;
    }

    double speedup = par_s > 0.0 ? serial_s / par_s : 0.0;
    double replay_speedup = replay_s > 0.0 ? par_s / replay_s : 0.0;
    TextTable t;
    t.header({"pass", "threads", "wall (s)", "Minsts/s"});
    t.row({"serial", "1", fmtDouble(serial_s, 2),
           fmtDouble(total_insts / serial_s / 1e6, 2)});
    t.row({"parallel", std::to_string(nthreads), fmtDouble(par_s, 2),
           fmtDouble(total_insts / par_s / 1e6, 2)});
    t.row({"replay (cold)", std::to_string(nthreads),
           fmtDouble(replay_cold_s, 2),
           fmtDouble(total_insts / replay_cold_s / 1e6, 2)});
    t.row({"replay (warm)", std::to_string(nthreads),
           fmtDouble(replay_s, 2),
           fmtDouble(total_insts / replay_s / 1e6, 2)});
    t.print(std::cout);
    std::cout << "\nspeedup " << fmtDouble(speedup, 2)
              << "x parallel-vs-serial, " << fmtDouble(replay_speedup, 2)
              << "x replay-vs-regenerate, results "
              << (identical && replay_identical ? "bit-identical"
                                                : "DIVERGED")
              << ", " << failed << " failed points\n";
    std::cout << "traces: " << trace_dir_bytes
              << " bytes on disk (v2 compressed), "
              << fmtDouble(trace_ratio, 2) << "x smaller than v1 on "
              << replay_points[slowest].workload << "\n";

    // A diverged or failed run must still leave a complete, parseable
    // artifact behind — CI reads the gate fields from the JSON, so a
    // torn or half-populated file would turn a red result into an
    // unreportable one. The explicit "diverged" field spares consumers
    // from reconstructing the verdict out of the identity bits.
    const bool diverged = !identical || !replay_identical;
    std::string path = bench::options().json.empty()
        ? "sweep_scaling.json" : bench::options().json;
    std::ofstream out(path);
    out << "{\n"
        << "  \"points\": " << points.size() << ",\n"
        << "  \"insts_per_point\": " << bench::options().insts << ",\n"
        << "  \"total_retired_insts\": " << total_insts << ",\n"
        << "  \"serial_seconds\": " << jsonNumber(serial_s) << ",\n"
        << "  \"parallel_seconds\": " << jsonNumber(par_s) << ",\n"
        << "  \"replay_cold_seconds\": " << jsonNumber(replay_cold_s)
        << ",\n"
        << "  \"replay_seconds\": " << jsonNumber(replay_s) << ",\n"
        << "  \"parallel_threads\": " << nthreads << ",\n"
        << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"speedup\": " << jsonNumber(speedup) << ",\n"
        << "  \"replay_speedup\": " << jsonNumber(replay_speedup)
        << ",\n"
        << "  \"trace_dir_bytes\": " << trace_dir_bytes << ",\n"
        << "  \"trace_compression_ratio\": " << jsonNumber(trace_ratio)
        << ",\n"
        << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"replay_identical\": "
        << (replay_identical ? "true" : "false") << ",\n"
        << "  \"diverged\": " << (diverged ? "true" : "false") << ",\n"
        << "  \"failed_points\": " << failed << ",\n"
        << "  \"results\": ";
    harness::writeResultsJson(out, par_results);
    out << "}\n";
    out.close();
    std::cerr << "  wrote " << path << '\n';

    // Divergence or failures make the artifact (and exit status) red.
    if (diverged)
        return 2;
    return failed ? 1 : 0;
}
