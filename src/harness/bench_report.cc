#include "harness/bench_report.hh"

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/hires_timer.hh"
#include "harness/metrics.hh"
#include "harness/sweep.hh"
#include "replay/capture.hh"
#include "replay/trace_store.hh"
#include "workloads/workloads.hh"

namespace tproc::harness
{

namespace
{

/** One measured pass: deterministic stats + the best wall time of the
 *  reps, plus whether the stats were bit-identical across reps. */
struct Timed
{
    ProcessorStats stats;
    double wall = 0.0;
    bool stable = true;

    /** Telemetry from the first rep (disabled unless the point sampled;
     *  reps are bit-identical, so one series represents them all). */
    IntervalSeries series;
};

Timed
bestOf(const SweepPoint &p, int reps)
{
    Timed t;
    StatDict ref;
    for (int rep = 0; rep < std::max(reps, 1); ++rep) {
        SweepResult r = SweepEngine::runPoint(p);
        if (!r.ok) {
            throw std::runtime_error("bench point " + p.label() +
                                     " failed: " + r.error);
        }
        StatDict d = statsToDict(r.stats);
        if (rep == 0) {
            t.stats = r.stats;
            t.wall = r.wallSeconds;
            t.series = std::move(r.series);
            ref = std::move(d);
        } else {
            if (d != ref)
                t.stable = false;
            t.wall = std::min(t.wall, r.wallSeconds);
        }
    }
    return t;
}

bool
sameStats(const ProcessorStats &a, const ProcessorStats &b)
{
    return statsToDict(a) == statsToDict(b);
}

bool
sameStats(const std::vector<SweepResult> &a,
          const std::vector<SweepResult> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const SweepResult &x, const SweepResult &y) {
                          return sameStats(x.stats, y.stats);
                      });
}

/** Run a point batch on engine and time it. Like bestOf, a failed
 *  point throws. */
std::vector<SweepResult>
timedGrid(SweepEngine &engine, const std::vector<SweepPoint> &points,
          double &seconds)
{
    HiresTimer timer;
    std::vector<SweepResult> results = engine.run(points);
    seconds = timer.seconds();
    for (const SweepResult &r : results) {
        if (!r.ok) {
            throw std::runtime_error("bench point " + r.point.label() +
                                     " failed: " + r.error);
        }
    }
    return results;
}

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

/** Throughput guarded against a zero wall clock (absurdly fast runs on
 *  coarse timers must not put inf/nan into the artifact). */
double
rate(double count, double seconds)
{
    return seconds > 0.0 ? count / seconds : 0.0;
}

/** Keys dropped from the non-timing view, wherever they appear.
 *  live_seconds and warm_seconds are no longer written; they stay
 *  listed so older BENCH files keep a comparable view. */
const std::vector<std::string> &
timingKeys()
{
    static const std::vector<std::string> keys = {
        "wall_seconds",       "cycles_per_sec",   "insts_per_sec",
        "live_seconds",       "cold_seconds",     "warm_seconds",
        "serial_seconds",     "parallel_seconds", "replay_seconds",
        "speedup",            "replay_speedup",   "points_per_sec",
        "total_wall_seconds", "baseline",         "host",
        "phases",
    };
    return keys;
}

bool
isTimingKey(const std::string &key)
{
    const auto &keys = timingKeys();
    return std::find(keys.begin(), keys.end(), key) != keys.end();
}

JsonValue
stripTiming(const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Object: {
        JsonValue out = JsonValue::makeObject();
        for (const auto &[key, member] : v.asObject()) {
            if (!isTimingKey(key))
                out.set(key, stripTiming(member));
        }
        return out;
      }
      case JsonValue::Kind::Array: {
        JsonValue out = JsonValue::makeArray();
        for (const auto &elem : v.asArray())
            out.push(stripTiming(elem));
        return out;
      }
      default:
        return v;
    }
}

void
diffValues(const JsonValue &a, const JsonValue &b, const std::string &path,
           std::vector<std::string> &out)
{
    auto kindName = [](JsonValue::Kind k) -> const char * {
        switch (k) {
          case JsonValue::Kind::Null: return "null";
          case JsonValue::Kind::Bool: return "bool";
          case JsonValue::Kind::Number: return "number";
          case JsonValue::Kind::String: return "string";
          case JsonValue::Kind::Array: return "array";
          case JsonValue::Kind::Object: return "object";
        }
        return "?";
    };
    if (a.kind() != b.kind()) {
        out.push_back(path + ": kind " + kindName(a.kind()) + " vs " +
                      kindName(b.kind()));
        return;
    }
    switch (a.kind()) {
      case JsonValue::Kind::Null:
        return;
      case JsonValue::Kind::Bool:
        if (a.asBool() != b.asBool()) {
            out.push_back(path + ": " + (a.asBool() ? "true" : "false") +
                          " vs " + (b.asBool() ? "true" : "false"));
        }
        return;
      case JsonValue::Kind::Number:
        if (a.asNumber() != b.asNumber()) {
            out.push_back(path + ": " + jsonNumber(a.asNumber()) + " vs " +
                          jsonNumber(b.asNumber()));
        }
        return;
      case JsonValue::Kind::String:
        if (a.asString() != b.asString()) {
            out.push_back(path + ": \"" + a.asString() + "\" vs \"" +
                          b.asString() + "\"");
        }
        return;
      case JsonValue::Kind::Array: {
        const auto &aa = a.asArray();
        const auto &ba = b.asArray();
        if (aa.size() != ba.size()) {
            out.push_back(path + ": array length " +
                          std::to_string(aa.size()) + " vs " +
                          std::to_string(ba.size()));
            return;
        }
        for (size_t i = 0; i < aa.size(); ++i) {
            diffValues(aa[i], ba[i],
                       path + "[" + std::to_string(i) + "]", out);
        }
        return;
      }
      case JsonValue::Kind::Object: {
        const auto &ao = a.asObject();
        const auto &bo = b.asObject();
        size_t n = std::min(ao.size(), bo.size());
        for (size_t i = 0; i < n; ++i) {
            if (ao[i].first != bo[i].first) {
                out.push_back(path + ": key #" + std::to_string(i) +
                              " \"" + ao[i].first + "\" vs \"" +
                              bo[i].first + "\"");
                return;
            }
            diffValues(ao[i].second, bo[i].second,
                       path + "." + ao[i].first, out);
        }
        if (ao.size() != bo.size()) {
            out.push_back(path + ": object size " +
                          std::to_string(ao.size()) + " vs " +
                          std::to_string(bo.size()));
        }
        return;
      }
    }
}

} // namespace

JsonValue
runBenchReport(const BenchReportOptions &opts, std::ostream *progress,
               JsonValue *metricsDoc)
{
    auto say = [&](const std::string &line) {
        if (progress)
            *progress << line << '\n';
    };
    const std::vector<std::string> names = workloadNames();
    if (names.empty())
        throw std::runtime_error("no workloads registered");

    // Phase attribution is scoped to this run: diff the global
    // registry around it so an earlier run in the same process (e.g. a
    // --check baseline pass) does not bleed in.
    const std::vector<PhaseStat> phases_before =
        PhaseTimers::global().snapshot();

    auto makePoint = [&](const std::string &workload) {
        SweepPoint p;
        p.workload = workload;
        p.model = opts.model;
        p.seed = opts.seed;
        p.maxInsts = opts.insts;
        p.verify = opts.verify;
        p.metricsInterval = opts.metricsInterval;
        return p;
    };

    // Aggregate counters flow through the typed handle API: resolved
    // once here, bumped per workload without re-hashing the name.
    StatDict agg;
    StatDict::Counter aggCycles = agg.counter("total_cycles");
    StatDict::Counter aggInsts = agg.counter("total_retired_insts");

    // Live pass: every golden workload from scratch, best of reps.
    JsonValue workloads = JsonValue::makeArray();
    std::vector<Timed> live(names.size());
    std::vector<SweepResult> live_results;
    double live_total_s = 0.0;
    bool stats_stable = true;
    for (size_t i = 0; i < names.size(); ++i) {
        say("  live " + names[i] + " (" + std::to_string(opts.reps) +
            " reps)...");
        live[i] = bestOf(makePoint(names[i]), opts.reps);
        stats_stable = stats_stable && live[i].stable;
        if (opts.metricsInterval > 0) {
            SweepResult lr;
            lr.point = makePoint(names[i]);
            lr.point.index = i;
            lr.ok = true;
            lr.stats = live[i].stats;
            lr.series = live[i].series;
            live_results.push_back(std::move(lr));
        }
        const auto &s = live[i].stats;
        aggCycles += static_cast<double>(s.cycles);
        aggInsts += static_cast<double>(s.retiredInsts);
        live_total_s += live[i].wall;
        JsonValue w = JsonValue::makeObject();
        w.set("name", JsonValue::makeString(names[i]));
        w.set("cycles", num(static_cast<double>(s.cycles)));
        w.set("retired_insts", num(static_cast<double>(s.retiredInsts)));
        w.set("ipc", num(s.cycles ? static_cast<double>(s.retiredInsts) /
                                        static_cast<double>(s.cycles)
                                  : 0.0));
        w.set("wall_seconds", num(live[i].wall));
        w.set("cycles_per_sec",
              num(rate(static_cast<double>(s.cycles), live[i].wall)));
        w.set("insts_per_sec",
              num(rate(static_cast<double>(s.retiredInsts), live[i].wall)));
        workloads.push(std::move(w));
    }

    // Replay passes run out of a trace directory; a caller-provided one
    // is kept (warm across tool invocations), a temp one is removed.
    const bool own_dir = opts.traceDir.empty();
    const std::filesystem::path trace_dir = own_dir
        ? std::filesystem::temp_directory_path() /
              ("tproc_bench." + std::to_string(::getpid()))
        : std::filesystem::path(opts.traceDir);

    auto replayPoint = [&](const std::string &workload) {
        SweepPoint p = makePoint(workload);
        p.traceDir = trace_dir.string();
        return p;
    };

    // Cold pass: capture each workload's trace into trace_dir and
    // replay it once. Timed once; the capture cost is one-shot.
    double cold_total_s = 0.0;
    bool replay_identical = true;
    for (size_t i = 0; i < names.size(); ++i) {
        say("  replay " + names[i] + " (cold capture)...");
        Timed cold = bestOf(replayPoint(names[i]), 1);
        cold_total_s += cold.wall;
        replay_identical =
            replay_identical && sameStats(cold.stats, live[i].stats);
    }

    // Sweep grid: the paper's headline comparison (Figure 10), every
    // workload on the base machine and on FG+MLB-RET. It runs live on
    // one thread, live on every hardware thread, and replayed from the
    // traces the cold pass captured (a trace's identity does not
    // depend on the model). That replay is the report's replay
    // measurement.
    const std::vector<std::string> grid_models = {"base", "FG+MLB-RET"};
    const std::vector<SweepPoint> grid = crossPoints(
        names, grid_models, opts.seed, opts.insts, opts.verify);
    std::vector<SweepPoint> replay_grid = grid;
    for (SweepPoint &p : replay_grid)
        p.traceDir = trace_dir.string();
    SweepEngine::Options serial_opts;
    serial_opts.threads = 1;
    SweepEngine serial(serial_opts);
    SweepEngine parallel;
    const unsigned grid_threads = parallel.effectiveThreads(grid.size());
    double serial_s = 0.0;
    double parallel_s = 0.0;
    double replay_s = 0.0;
    say("  sweep grid: " + std::to_string(grid.size()) +
        " points, serial...");
    const auto grid_serial = timedGrid(serial, grid, serial_s);
    say("  sweep grid: parallel (" + std::to_string(grid_threads) +
        " threads)...");
    const auto grid_parallel = timedGrid(parallel, grid, parallel_s);
    say("  sweep grid: replay (" + std::to_string(grid_threads) +
        " threads)...");
    const auto grid_replay = timedGrid(parallel, replay_grid, replay_s);
    const bool sweep_parallel_identical =
        sameStats(grid_serial, grid_parallel);
    replay_identical =
        replay_identical && sameStats(grid_serial, grid_replay);

    JsonValue replay = JsonValue::makeObject();
    replay.set("workloads", num(static_cast<double>(names.size())));
    replay.set("cold_seconds", num(cold_total_s));
    replay.set("identical", JsonValue::makeBool(replay_identical));

    JsonValue sweep = JsonValue::makeObject();
    sweep.set("points", num(static_cast<double>(grid.size())));
    JsonValue models = JsonValue::makeArray();
    for (const std::string &m : grid_models)
        models.push(JsonValue::makeString(m));
    sweep.set("models", std::move(models));
    sweep.set("serial_seconds", num(serial_s));
    sweep.set("parallel_seconds", num(parallel_s));
    sweep.set("replay_seconds", num(replay_s));
    sweep.set("speedup", num(rate(serial_s, parallel_s)));
    sweep.set("replay_speedup", num(rate(parallel_s, replay_s)));
    sweep.set("points_per_sec",
              num(rate(static_cast<double>(grid.size()), parallel_s)));

    // Trace-container accounting: the (compressed, v2) files the replay
    // passes ran off, against freshly captured uncompressed v1 twins.
    // Byte sizes are deterministic — capture is — so they live in the
    // non-timing view.
    say("  trace compression probe...");
    JsonValue compression = JsonValue::makeArray();
    replay::TraceStore store(trace_dir.string());
    for (const auto &name : names) {
        const std::string v2_path =
            store.tracePath(name, opts.seed, 1.0, opts.insts);
        const std::string v1_path = v2_path + ".v1twin";
        std::error_code ec;
        const auto v2_bytes = std::filesystem::file_size(v2_path, ec);
        if (ec)
            continue;
        replay::captureWorkloadTrace(name, opts.seed, 1.0, opts.insts,
                                     v1_path, /*compress=*/false);
        const auto v1_bytes = std::filesystem::file_size(v1_path, ec);
        std::filesystem::remove(v1_path);
        if (ec || v1_bytes == 0 || v2_bytes == 0)
            continue;
        JsonValue c = JsonValue::makeObject();
        c.set("workload", JsonValue::makeString(name));
        c.set("v1_bytes", num(static_cast<double>(v1_bytes)));
        c.set("v2_bytes", num(static_cast<double>(v2_bytes)));
        c.set("ratio", num(static_cast<double>(v1_bytes) /
                           static_cast<double>(v2_bytes)));
        compression.push(std::move(c));
    }

    if (own_dir) {
        std::error_code ec;
        std::filesystem::remove_all(trace_dir, ec);
        // The process-wide reader cache still holds entries keyed by the
        // just-deleted paths; a later report in this process (same pid,
        // same temp dir) would replay from memory and silently skip the
        // on-disk captures its compression probe depends on.
        replay::TraceStore::dropCache();
    }

    JsonValue report = JsonValue::makeObject();
    report.set("schema", JsonValue::makeString("tproc-bench-report-v1"));
    report.set("bench_index", num(opts.benchIndex));

    JsonValue config = JsonValue::makeObject();
    config.set("insts", num(static_cast<double>(opts.insts)));
    config.set("seed", num(static_cast<double>(opts.seed)));
    config.set("model", JsonValue::makeString(opts.model));
    config.set("reps", num(opts.reps));
    config.set("verify", JsonValue::makeBool(opts.verify));
    report.set("config", std::move(config));

    JsonValue host = JsonValue::makeObject();
    host.set("hardware_concurrency",
             num(std::thread::hardware_concurrency()));
    host.set("sweep_threads", num(grid_threads));
    report.set("host", std::move(host));

    report.set("workloads", std::move(workloads));
    report.set("replay", std::move(replay));
    report.set("sweep", std::move(sweep));
    report.set("trace_compression", std::move(compression));

    JsonValue summary = JsonValue::makeObject();
    summary.set("workloads", num(static_cast<double>(names.size())));
    summary.set("total_cycles", num(aggCycles.value()));
    summary.set("total_retired_insts", num(aggInsts.value()));
    summary.set("total_wall_seconds", num(live_total_s));
    summary.set("cycles_per_sec", num(rate(aggCycles.value(),
                                           live_total_s)));
    summary.set("insts_per_sec", num(rate(aggInsts.value(),
                                          live_total_s)));
    report.set("summary", std::move(summary));

    JsonValue identity = JsonValue::makeObject();
    identity.set("stats_stable_across_reps",
                 JsonValue::makeBool(stats_stable));
    identity.set("replay_identical",
                 JsonValue::makeBool(replay_identical));
    identity.set("sweep_parallel_identical",
                 JsonValue::makeBool(sweep_parallel_identical));
    report.set("identity", std::move(identity));

    // Where this run's wall clock went. "phases" is on the timing
    // denylist: host-dependent attribution, never part of the
    // non-timing identity CI gates on.
    const std::vector<PhaseStat> phase_diff = PhaseTimers::diff(
        PhaseTimers::global().snapshot(), phases_before);
    JsonValue phases = JsonValue::makeArray();
    for (const auto &ph : phase_diff) {
        JsonValue p = JsonValue::makeObject();
        p.set("name", JsonValue::makeString(ph.name));
        p.set("seconds", num(ph.seconds));
        p.set("count", num(static_cast<double>(ph.count)));
        phases.push(std::move(p));
    }
    report.set("phases", std::move(phases));

    if (metricsDoc && opts.metricsInterval > 0) {
        *metricsDoc = buildMetricsDoc(opts.metricsInterval, live_results,
                                      phase_diff);
    }

    return report;
}

JsonValue
benchNonTimingView(const JsonValue &report)
{
    return stripTiming(report);
}

std::vector<std::string>
diffBenchReports(const JsonValue &a, const JsonValue &b)
{
    std::vector<std::string> out;
    diffValues(stripTiming(a), stripTiming(b), "$", out);
    return out;
}

BenchReportOptions
optionsFromReport(const JsonValue &report)
{
    const JsonValue &config = report.at("config");
    BenchReportOptions opts;
    opts.insts = static_cast<uint64_t>(config.at("insts").asNumber());
    opts.seed = static_cast<uint64_t>(config.at("seed").asNumber());
    opts.model = config.at("model").asString();
    opts.reps = static_cast<int>(config.at("reps").asNumber());
    opts.verify = config.at("verify").asBool();
    opts.benchIndex =
        static_cast<unsigned>(report.at("bench_index").asNumber());
    return opts;
}

void
attachBaseline(JsonValue &report, const JsonValue &baselineReport,
               const std::string &label)
{
    const JsonValue &base = baselineReport.at("summary");
    const JsonValue &mine = report.at("summary");
    const double base_cps = base.at("cycles_per_sec").asNumber();
    const double base_ips = base.at("insts_per_sec").asNumber();
    JsonValue b = JsonValue::makeObject();
    b.set("label", JsonValue::makeString(label));
    b.set("cycles_per_sec", num(base_cps));
    b.set("insts_per_sec", num(base_ips));
    b.set("speedup_cycles_per_sec",
          num(rate(mine.at("cycles_per_sec").asNumber(), base_cps)));
    b.set("speedup_insts_per_sec",
          num(rate(mine.at("insts_per_sec").asNumber(), base_ips)));
    report.set("baseline", std::move(b));
}

} // namespace tproc::harness
