#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/hires_timer.hh"
#include "common/logging.hh"
#include "core/runner.hh"
#include "replay/replay_source.hh"
#include "replay/trace_store.hh"
#include "workloads/workloads.hh"

namespace tproc::harness
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

std::string
fmtSeconds(double s)
{
    char buf[32];
    if (s >= 90.0) {
        long total = static_cast<long>(s + 0.5);
        std::snprintf(buf, sizeof(buf), "%ldm%02lds", total / 60,
                      total % 60);
    } else {
        std::snprintf(buf, sizeof(buf), "%.1fs", s);
    }
    return buf;
}

} // namespace

std::string
SweepPoint::label() const
{
    if (!labelOverride.empty())
        return labelOverride;
    return workload + "/" + (useConfig ? "<config>" : model);
}

StatDict
statsToDict(const ProcessorStats &s)
{
    // ProcessorStats is 39 uint64_t counters, each mirrored below. The
    // assert trips when a counter is added so it cannot silently escape
    // the JSON export, the merge, or the serial-vs-parallel identity
    // checks that compare through this dict.
    static_assert(sizeof(ProcessorStats) == 39 * sizeof(uint64_t),
                  "ProcessorStats changed: update statsToDict");
    StatDict d;
    d.set("cycles", s.cycles);
    d.set("retiredInsts", s.retiredInsts);
    d.set("retiredTraces", s.retiredTraces);
    d.set("retiredTraceLenSum", s.retiredTraceLenSum);
    d.set("dispatchedTraces", s.dispatchedTraces);
    d.set("squashedTraces", s.squashedTraces);
    d.set("squashedInsts", s.squashedInsts);
    d.set("mispEvents", s.mispEvents);
    d.set("condMispEvents", s.condMispEvents);
    d.set("indirectMispEvents", s.indirectMispEvents);
    d.set("recoveriesFgci", s.recoveriesFgci);
    d.set("recoveriesCgci", s.recoveriesCgci);
    d.set("recoveriesFull", s.recoveriesFull);
    d.set("cgciReconverged", s.cgciReconverged);
    d.set("cgciAbandoned", s.cgciAbandoned);
    d.set("tracesPreserved", s.tracesPreserved);
    d.set("redispatchedTraces", s.redispatchedTraces);
    d.set("reissuedSlots", s.reissuedSlots);
    d.set("reissueLocal", s.reissueLocal);
    d.set("reissueGlobal", s.reissueGlobal);
    d.set("reissueViol", s.reissueViol);
    d.set("reissueRedisp", s.reissueRedisp);
    d.set("loadViolations", s.loadViolations);
    d.set("insertActiveCycles", s.insertActiveCycles);
    d.set("dispatchBlockedCycles", s.dispatchBlockedCycles);
    d.set("fetchStallCycles", s.fetchStallCycles);
    d.set("retiredCondBranches", s.retiredCondBranches);
    d.set("retiredBranchMisps", s.retiredBranchMisps);
    d.set("tcLookups", s.tcLookups);
    d.set("tcMisses", s.tcMisses);
    d.set("icAccesses", s.icAccesses);
    d.set("icMisses", s.icMisses);
    d.set("dcAccesses", s.dcAccesses);
    d.set("dcMisses", s.dcMisses);
    d.set("bitLookups", s.bitLookups);
    d.set("bitMisses", s.bitMisses);
    d.set("tracePredictions", s.tracePredictions);
    d.set("fallbackFetches", s.fallbackFetches);
    d.set("constructions", s.constructions);
    return d;
}

ProcessorStats
statsFromDict(const StatDict &d)
{
    static_assert(sizeof(ProcessorStats) == 39 * sizeof(uint64_t),
                  "ProcessorStats changed: update statsFromDict");
    auto u64 = [&d](const char *name) {
        // A truncated or cross-version artifact must surface as an
        // error, not merge in as silent zeros.
        if (!d.has(name)) {
            throw std::runtime_error(
                std::string("stats dict is missing counter '") + name +
                "'");
        }
        return static_cast<uint64_t>(d.get(name));
    };
    ProcessorStats s;
    s.cycles = u64("cycles");
    s.retiredInsts = u64("retiredInsts");
    s.retiredTraces = u64("retiredTraces");
    s.retiredTraceLenSum = u64("retiredTraceLenSum");
    s.dispatchedTraces = u64("dispatchedTraces");
    s.squashedTraces = u64("squashedTraces");
    s.squashedInsts = u64("squashedInsts");
    s.mispEvents = u64("mispEvents");
    s.condMispEvents = u64("condMispEvents");
    s.indirectMispEvents = u64("indirectMispEvents");
    s.recoveriesFgci = u64("recoveriesFgci");
    s.recoveriesCgci = u64("recoveriesCgci");
    s.recoveriesFull = u64("recoveriesFull");
    s.cgciReconverged = u64("cgciReconverged");
    s.cgciAbandoned = u64("cgciAbandoned");
    s.tracesPreserved = u64("tracesPreserved");
    s.redispatchedTraces = u64("redispatchedTraces");
    s.reissuedSlots = u64("reissuedSlots");
    s.reissueLocal = u64("reissueLocal");
    s.reissueGlobal = u64("reissueGlobal");
    s.reissueViol = u64("reissueViol");
    s.reissueRedisp = u64("reissueRedisp");
    s.loadViolations = u64("loadViolations");
    s.insertActiveCycles = u64("insertActiveCycles");
    s.dispatchBlockedCycles = u64("dispatchBlockedCycles");
    s.fetchStallCycles = u64("fetchStallCycles");
    s.retiredCondBranches = u64("retiredCondBranches");
    s.retiredBranchMisps = u64("retiredBranchMisps");
    s.tcLookups = u64("tcLookups");
    s.tcMisses = u64("tcMisses");
    s.icAccesses = u64("icAccesses");
    s.icMisses = u64("icMisses");
    s.dcAccesses = u64("dcAccesses");
    s.dcMisses = u64("dcMisses");
    s.bitLookups = u64("bitLookups");
    s.bitMisses = u64("bitMisses");
    s.tracePredictions = u64("tracePredictions");
    s.fallbackFetches = u64("fallbackFetches");
    s.constructions = u64("constructions");
    return s;
}

StatDict
mergeResults(const std::vector<SweepResult> &results)
{
    StatDict merged;
    for (const auto &r : results) {
        if (r.ok)
            merged.merge(statsToDict(r.stats));
    }
    return merged;
}

namespace
{

/**
 * One per-point JSON object. The deterministic fields come first and
 * are byte-stable across runs; wall_seconds and attempts are timing /
 * scheduling facts and are left out of canonical (merged) artifacts.
 */
void
writeResultObject(std::ostream &os, const SweepResult &r, int indent,
                  bool deterministicOnly)
{
    const std::string pad(indent, ' ');
    const std::string in(indent + 2, ' ');
    os << pad << "{\n"
       << in << "\"index\": " << r.point.index << ",\n"
       << in << "\"workload\": \"" << jsonEscape(r.point.workload)
       << "\",\n"
       << in << "\"model\": \""
       << jsonEscape(r.point.useConfig ? "<config>" : r.point.model)
       << "\",\n"
       << in << "\"label\": \"" << jsonEscape(r.point.label()) << "\",\n"
       << in << "\"seed\": " << r.point.seed << ",\n"
       << in << "\"max_insts\": " << r.point.maxInsts << ",\n"
       << in << "\"ok\": " << (r.ok ? "true" : "false") << ",\n"
       << in << "\"error\": \"" << jsonEscape(r.error) << "\",\n";
    if (!deterministicOnly) {
        os << in << "\"wall_seconds\": " << jsonNumber(r.wallSeconds)
           << ",\n"
           << in << "\"attempts\": " << r.attempts << ",\n";
    }
    os << in << "\"ipc\": " << jsonNumber(r.stats.ipc()) << ",\n"
       << in << "\"stats\": ";
    statsToDict(r.stats).writeJson(os, indent + 2);
    os << "\n" << pad << "}";
}

} // namespace

SweepResult
resultFromJson(const JsonValue &v)
{
    SweepResult r;
    r.point.index = static_cast<uint64_t>(v.at("index").asNumber());
    r.point.workload = v.at("workload").asString();
    r.point.model = v.at("model").asString();
    r.point.seed = static_cast<uint64_t>(v.at("seed").asNumber());
    r.point.maxInsts =
        static_cast<uint64_t>(v.numberOr("max_insts", 0));
    // label() of a reread point must reproduce the original label even
    // for <config> points, so carry it verbatim.
    r.point.labelOverride = v.stringOr("label", "");
    r.ok = v.at("ok").asBool();
    r.error = v.stringOr("error", "");
    r.wallSeconds = v.numberOr("wall_seconds", 0.0);
    r.attempts = static_cast<unsigned>(v.numberOr("attempts", 0));
    r.stats = statsFromDict(statDictFromJson(v.at("stats")));
    return r;
}

// The three per-point serializations live side by side on purpose:
// writeResultObject (pretty, artifacts), writeResultJsonLine (compact,
// journal), and resultFromJson (the shared inverse). A field added to
// one must be added to all three.
void
writeResultJsonLine(std::ostream &os, const SweepResult &r)
{
    os << "{\"index\": " << r.point.index << ", \"workload\": \""
       << jsonEscape(r.point.workload) << "\", \"model\": \""
       << jsonEscape(r.point.useConfig ? "<config>" : r.point.model)
       << "\", \"label\": \"" << jsonEscape(r.point.label())
       << "\", \"seed\": " << r.point.seed << ", \"max_insts\": "
       << r.point.maxInsts << ", \"ok\": " << (r.ok ? "true" : "false")
       << ", \"error\": \"" << jsonEscape(r.error)
       << "\", \"wall_seconds\": " << jsonNumber(r.wallSeconds)
       << ", \"attempts\": " << r.attempts << ", \"ipc\": "
       << jsonNumber(r.stats.ipc()) << ", \"stats\": {";
    const StatDict stats = statsToDict(r.stats);
    const auto &entries = stats.entries();
    for (size_t i = 0; i < entries.size(); ++i) {
        os << (i ? ", " : "") << '"' << jsonEscape(entries[i].name)
           << "\": " << jsonNumber(entries[i].value);
    }
    os << "}}";
}

void
writeResultsJson(std::ostream &os, const std::vector<SweepResult> &results)
{
    os << "[";
    for (size_t i = 0; i < results.size(); ++i) {
        os << (i ? "," : "") << "\n";
        writeResultObject(os, results[i], 2, /*deterministicOnly=*/false);
    }
    if (!results.empty())
        os << '\n';
    os << "]\n";
}

std::vector<SweepResult>
readResultsJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonValue doc = parseJson(buf.str());

    // Accept either a bare results array (shard artifact) or a merged
    // artifact object carrying its points under "points".
    const JsonValue *array = &doc;
    if (doc.isObject())
        array = &doc.at("points");

    std::vector<SweepResult> results;
    results.reserve(array->asArray().size());
    for (const auto &v : array->asArray())
        results.push_back(resultFromJson(v));
    return results;
}

void
writeMergedJson(std::ostream &os, std::vector<SweepResult> results)
{
    auto merge_phase = PhaseTimers::global().scope("merge");
    std::sort(results.begin(), results.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.point.index < b.point.index;
              });
    size_t failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    StatDict merged = mergeResults(results);

    os << "{\n"
       << "  \"total_points\": " << results.size() << ",\n"
       << "  \"ok_points\": " << results.size() - failed << ",\n"
       << "  \"failed_points\": " << failed << ",\n"
       << "  \"merged\": ";
    merged.writeJson(os, 2);
    os << ",\n  \"points\": [";
    for (size_t i = 0; i < results.size(); ++i) {
        os << (i ? "," : "") << "\n";
        writeResultObject(os, results[i], 4, /*deterministicOnly=*/true);
    }
    if (!results.empty())
        os << "\n  ";
    os << "]\n}\n";
}

std::vector<SweepPoint>
crossPoints(const std::vector<std::string> &workloads,
            const std::vector<std::string> &models, uint64_t seed,
            uint64_t max_insts, bool verify)
{
    std::vector<SweepPoint> points;
    points.reserve(workloads.size() * models.size());
    for (const auto &w : workloads) {
        for (const auto &m : models) {
            SweepPoint p;
            p.workload = w;
            p.model = m;
            p.seed = seed;
            p.maxInsts = max_insts;
            p.verify = verify;
            p.index = points.size();
            points.push_back(std::move(p));
        }
    }
    return points;
}

std::vector<SweepPoint>
shardPoints(const std::vector<SweepPoint> &points, unsigned shard,
            unsigned count)
{
    if (count == 0 || shard >= count) {
        throw std::invalid_argument("shardPoints: need shard < count, "
                                    "got " + std::to_string(shard) + "/" +
                                    std::to_string(count));
    }
    std::vector<SweepPoint> slice;
    slice.reserve(points.size() / count + 1);
    for (size_t i = 0; i < points.size(); ++i) {
        if (i % count == shard)
            slice.push_back(points[i]);
    }
    return slice;
}

SweepResult
SweepEngine::runPoint(const SweepPoint &p)
{
    SweepResult r;
    r.point = p;
    auto t0 = std::chrono::steady_clock::now();
    try {
        ScopedErrorCapture capture;
        ProcessorConfig cfg;
        if (p.useConfig) {
            cfg = p.config;
        } else {
            cfg = ProcessorConfig::forModel(p.model);
            cfg.verifyRetirement = p.verify;
            cfg.metricsInterval = p.metricsInterval;
        }
        // Watchdog errors carry the point identity so a stalled point
        // is attributable straight from the structured error.
        cfg.identity = "workload=" + p.workload +
            " seed=" + std::to_string(p.seed) +
            " model=" + (p.useConfig ? p.label() : p.model);
        RunMetrics run_metrics;
        if (!p.traceDir.empty()) {
            // Replay mode: the trace file supplies both the program
            // and the architectural stream; the timing simulation
            // itself is identical to a live run.
            replay::TraceStore store(p.traceDir);
            auto ensured =
                store.ensure(p.workload, p.seed, p.scale, p.maxInsts);
            std::unique_ptr<ArchSource> golden;
            if (cfg.verifyRetirement) {
                golden = std::make_unique<replay::ReplaySource>(
                    ensured.reader);
            }
            r.stats = runConfig(ensured.reader->program(), cfg,
                                p.maxInsts, std::move(golden),
                                &run_metrics);
        } else {
            Workload w = makeWorkload(p.workload, p.seed, p.scale);
            r.stats = runConfig(w.program, cfg, p.maxInsts, nullptr,
                                &run_metrics);
        }
        r.sched = run_metrics.sched;
        r.series = std::move(run_metrics.series);
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    } catch (...) {
        r.error = "unknown error";
    }
    r.wallSeconds = secondsSince(t0);
    r.attempts = 1;
    return r;
}

unsigned
SweepEngine::effectiveThreads(size_t n) const
{
    unsigned t = opts.threads ? opts.threads
                              : std::thread::hardware_concurrency();
    if (t == 0)
        t = 1;
    if (n < t)
        t = static_cast<unsigned>(n);
    return t ? t : 1;
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepPoint> &points)
{
    std::vector<SweepResult> results(points.size());
    if (points.empty())
        return results;

    const unsigned nthreads = effectiveThreads(points.size());
    std::ostream &prog =
        opts.progressStream ? *opts.progressStream : std::cerr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex reportMutex;
    auto t0 = std::chrono::steady_clock::now();

    auto worker = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= points.size())
                return;
            // Microreboot loop: a failed point gets up to opts.retries
            // clean re-runs before its failure stands.
            SweepResult r = runPoint(points[i]);
            while (!r.ok && r.attempts <= opts.retries) {
                unsigned attempts = r.attempts;
                r = runPoint(points[i]);
                r.attempts += attempts;
            }
            results[i] = std::move(r);
            size_t d = done.fetch_add(1) + 1;
            if (opts.progress || opts.onResult) {
                std::lock_guard<std::mutex> lock(reportMutex);
                if (opts.onResult)
                    opts.onResult(results[i]);
                if (opts.progress) {
                    double elapsed = secondsSince(t0);
                    double eta = elapsed / d *
                                 static_cast<double>(points.size() - d);
                    prog << "  [" << d << "/" << points.size() << "] "
                         << results[i].point.label() << ": "
                         << (results[i].ok
                                 ? "ipc=" +
                                       fmtDouble(results[i].stats.ipc(), 3)
                                 : "FAILED (" + results[i].error + ")")
                         << "  " << fmtSeconds(results[i].wallSeconds)
                         << "  elapsed " << fmtSeconds(elapsed) << "  eta "
                         << fmtSeconds(eta) << '\n';
                }
            }
        }
    };

    if (nthreads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    return results;
}

} // namespace tproc::harness
