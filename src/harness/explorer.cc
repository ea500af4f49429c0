#include "harness/explorer.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/random.hh"
#include "common/timeseries.hh"
#include "harness/oracle.hh"
#include "harness/sweep.hh"

namespace tproc::harness
{

namespace
{

// Seeding mirrors the workload generator: FNV-1a over the domain tag,
// splitmix64-finalized components, xor-combined. The tag keeps shape
// sampling decorrelated from workload-knob sampling at the same
// (seed, index).

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

int
sample(Rng &rng, const KnobRange &r)
{
    if (r.hi <= r.lo)
        return r.lo;
    return r.lo + static_cast<int>(
                      rng.below(static_cast<uint64_t>(r.hi - r.lo) + 1));
}

/** The eight model families (forModel names, fixed sampling order). */
const std::vector<std::string> &
modelFamilies()
{
    static const std::vector<std::string> families = {
        "base",    "base(ntb)", "base(fg)", "base(fg,ntb)",
        "RET",     "MLB-RET",   "FG",       "FG+MLB-RET",
    };
    return families;
}

JsonValue
dictToJson(const StatDict &d)
{
    JsonValue o = JsonValue::makeObject();
    for (const auto &s : d.entries())
        o.set(s.name, JsonValue::makeNumber(s.value));
    return o;
}

JsonValue
rangeToJson(const KnobRange &r)
{
    JsonValue a = JsonValue::makeArray();
    a.push(JsonValue::makeNumber(r.lo));
    a.push(JsonValue::makeNumber(r.hi));
    return a;
}

/**
 * Read the cliff signals off one surviving point (docs/explorer.md
 * defines each). Everything derives from deterministic counters, so
 * scores — and therefore the frontier — are reproducible run to run.
 */
CliffSignals
computeCliff(const ProcessorStats &stats, const IntervalSeries &series,
             const SampledShape &shape)
{
    CliffSignals c;
    c.ipc = stats.cycles ? static_cast<double>(stats.retiredInsts) /
                               static_cast<double>(stats.cycles)
                         : 0.0;
    c.utilization =
        c.ipc / (static_cast<double>(shape.config.numPEs) *
                 static_cast<double>(shape.config.issuePerPe));
    c.minIntervalIpc = c.ipc;
    double backlog_sum = 0.0;
    double occupancy_peak = 0.0;
    for (size_t i = 0; i < series.size(); ++i) {
        const auto &s = series.at(i);
        c.minIntervalIpc = std::min(c.minIntervalIpc, s.values[0]);
        if (s.values[0] == 0.0)
            c.zeroIpcIntervals += 1.0;
        occupancy_peak = std::max(occupancy_peak, s.values[3]);
        backlog_sum += s.values[4];
    }
    if (c.ipc > 0.0)
        c.ipcDip = std::max(0.0, 1.0 - c.minIntervalIpc / c.ipc);
    if (!series.empty()) {
        c.busSaturation = backlog_sum / static_cast<double>(series.size()) /
                          static_cast<double>(shape.config.globalBuses);
    }
    c.peakOccupancy =
        occupancy_peak / static_cast<double>(shape.config.numPEs);
    // Ranking key: sustained-vs-worst-interval IPC collapse dominates,
    // saturated buses and a full window flag deadlock-adjacent
    // pressure, and any zero-retirement interval (the watchdog's
    // territory) gets a strong bounded boost.
    c.score = 2.0 * c.ipcDip + c.busSaturation + c.peakOccupancy +
              0.5 * std::min(c.zeroIpcIntervals, 8.0);
    return c;
}

} // anonymous namespace

SampledShape
sampleShape(const ShapeSpace &space, uint64_t seed, uint64_t index)
{
    Rng rng(mix64(fnv1a("shape-space-v1")) ^ mix64(index) ^
            mix64(mix64(seed)));

    // Sampling order is fixed and every knob is drawn exactly once —
    // determinism is order-fragile, so never make a draw conditional
    // on an earlier draw.
    SampledShape s;
    s.model = modelFamilies()[rng.below(modelFamilies().size())];
    ProcessorConfig cfg = ProcessorConfig::forModel(s.model);

    cfg.numPEs = sample(rng, space.numPEs);
    cfg.issuePerPe = sample(rng, space.issuePerPe);
    cfg.selection.maxTraceLen = sample(rng, space.maxTraceLen);
    cfg.bit.maxTraceLen = cfg.selection.maxTraceLen;
    cfg.globalBuses = sample(rng, space.globalBuses);
    cfg.maxBusesPerPe = sample(rng, space.maxBusesPerPe);
    cfg.cacheBuses = sample(rng, space.cacheBuses);
    cfg.maxCacheBusesPerPe = sample(rng, space.maxCacheBusesPerPe);
    cfg.frontendLatency = sample(rng, space.frontendLatency);
    cfg.loadReissuePenalty = sample(rng, space.loadReissuePenalty);

    cfg.icache.sizeBytes = size_t{1} << sample(rng, space.icacheSizeLog2);
    cfg.icache.assoc = size_t{1} << sample(rng, space.icacheAssocLog2);
    cfg.dcache.sizeBytes = size_t{1} << sample(rng, space.dcacheSizeLog2);
    cfg.dcache.assoc = size_t{1} << sample(rng, space.dcacheAssocLog2);
    cfg.tcache.sizeBytes = size_t{1} << sample(rng, space.tcacheSizeLog2);
    cfg.tcache.assoc = size_t{1} << sample(rng, space.tcacheAssocLog2);

    cfg.tpred.pathEntries = size_t{1}
                            << sample(rng, space.tpredPathLog2);
    cfg.tpred.simpleEntries = size_t{1}
                              << sample(rng, space.tpredSimpleLog2);
    cfg.bit.entries = size_t{1} << sample(rng, space.bitEntriesLog2);
    cfg.bit.assoc = size_t{1} << sample(rng, space.bitAssocLog2);
    cfg.btbEntries = size_t{1} << sample(rng, space.btbEntriesLog2);
    cfg.physRegs = size_t{1} << sample(rng, space.physRegsLog2);

    // The sampler's contract: everything it emits is in validate()'s
    // envelope (test-enforced over many samples). Check here too so a
    // bad ShapeSpace fails at sampling time with the knob named, not
    // later inside a worker.
    cfg.validate();

    s.knobs.set("numPEs", cfg.numPEs);
    s.knobs.set("issuePerPe", cfg.issuePerPe);
    s.knobs.set("maxTraceLen", cfg.selection.maxTraceLen);
    s.knobs.set("globalBuses", cfg.globalBuses);
    s.knobs.set("maxBusesPerPe", cfg.maxBusesPerPe);
    s.knobs.set("cacheBuses", cfg.cacheBuses);
    s.knobs.set("maxCacheBusesPerPe", cfg.maxCacheBusesPerPe);
    s.knobs.set("frontendLatency", cfg.frontendLatency);
    s.knobs.set("loadReissuePenalty", cfg.loadReissuePenalty);
    s.knobs.set("icache.sizeBytes",
                static_cast<double>(cfg.icache.sizeBytes));
    s.knobs.set("icache.assoc", static_cast<double>(cfg.icache.assoc));
    s.knobs.set("dcache.sizeBytes",
                static_cast<double>(cfg.dcache.sizeBytes));
    s.knobs.set("dcache.assoc", static_cast<double>(cfg.dcache.assoc));
    s.knobs.set("tcache.sizeBytes",
                static_cast<double>(cfg.tcache.sizeBytes));
    s.knobs.set("tcache.assoc", static_cast<double>(cfg.tcache.assoc));
    s.knobs.set("tpred.pathEntries",
                static_cast<double>(cfg.tpred.pathEntries));
    s.knobs.set("tpred.simpleEntries",
                static_cast<double>(cfg.tpred.simpleEntries));
    s.knobs.set("bit.entries", static_cast<double>(cfg.bit.entries));
    s.knobs.set("bit.assoc", static_cast<double>(cfg.bit.assoc));
    s.knobs.set("btbEntries", static_cast<double>(cfg.btbEntries));
    s.knobs.set("physRegs", static_cast<double>(cfg.physRegs));

    s.config = cfg;
    return s;
}

ExploreReport
runExplore(const ExploreOptions &opts_)
{
    ExploreOptions opts = opts_;
    if (opts.scratchDir.empty())
        opts.scratchDir = opts.failureDir + ".store";

    // Fail on a bad mix up front, not at point 0 inside fault capture.
    parsePatternMix(opts.mix);

    // The shard's slice of the index grid (same striding rule as
    // shardPoints: index % count == shard), or the single repro index.
    std::vector<uint64_t> indices;
    for (uint64_t i = 0; i < opts.shapes; ++i) {
        if (opts.onlyPoint >= 0) {
            if (static_cast<uint64_t>(opts.onlyPoint) == i)
                indices.push_back(i);
            continue;
        }
        if (opts.shardCount && i % opts.shardCount != opts.shard)
            continue;
        indices.push_back(i);
    }

    // Two oracle runs per shape, one flat batch through the engine.
    // Results come back in input order whatever the worker count, so
    // the report is scheduler-independent by construction.
    std::vector<SampledShape> shapes;
    std::vector<SweepPoint> batch;
    shapes.reserve(indices.size());
    batch.reserve(indices.size() * 2);
    for (uint64_t idx : indices) {
        SampledShape shape = sampleShape(opts.space, opts.seed, idx);
        const std::string name = generatedName(opts.mix, idx);

        SweepPoint base;
        base.workload = name;
        base.useConfig = true;
        base.config = shape.config;
        base.seed = opts.seed;
        base.maxInsts = opts.insts;
        base.index = idx;

        SweepPoint live = base;
        live.config.metricsInterval = opts.metricsInterval;
        live.labelOverride = name + "/shape-" + std::to_string(idx);

        SweepPoint replayed = base;
        replayed.traceDir = opts.scratchDir;
        replayed.labelOverride =
            name + "/shape-" + std::to_string(idx) + "(replay)";

        shapes.push_back(std::move(shape));
        batch.push_back(std::move(live));
        batch.push_back(std::move(replayed));
    }

    SweepEngine::Options eopts;
    eopts.threads = opts.threads;
    eopts.progress = opts.log != nullptr;
    eopts.progressStream = opts.log;
    SweepEngine engine(eopts);
    const std::vector<SweepResult> results =
        batch.empty() ? std::vector<SweepResult>{} : engine.run(batch);

    ExploreReport report;
    report.shapes = opts.shapes;
    report.pointsRun = indices.size();

    for (size_t k = 0; k < indices.size(); ++k) {
        const uint64_t idx = indices[k];
        const SampledShape &shape = shapes[k];
        const SweepResult &live = results[k * 2];
        const SweepResult &replayed = results[k * 2 + 1];

        ExplorePoint p;
        p.index = idx;
        p.workload = generatedName(opts.mix, idx);
        p.model = shape.model;
        p.knobs = shape.knobs;

        const OracleVerdict verdict = judgeOracles(
            live, replayed,
            opts.injectDivergenceAt >= 0 &&
                static_cast<uint64_t>(opts.injectDivergenceAt) == idx);
        p.kind = verdict.kind;
        p.message = verdict.message;

        if (verdict.ok()) {
            p.ok = true;
            p.stats = statsToDict(live.stats);
            p.cliff = computeCliff(live.stats, live.series, shape);
            report.points.push_back(std::move(p));
            continue;
        }

        ++report.failures;
        if (verdict.divergence())
            ++report.divergences;

        // Capture-on-failure (the soak contract): land the offending
        // workload as a replay artifact named by the trace-store
        // convention, plus a one-line repro. --point=I re-runs exactly
        // this index because shape sampling is index-keyed.
        p.tracePath = captureFailure(opts.failureDir, p.workload,
                                     opts.seed, 1.0, opts.insts,
                                     p.message);
        {
            std::ostringstream os;
            os << "tproc-explore --shapes=" << opts.shapes
               << " --seed=" << opts.seed << " --mix='" << opts.mix
               << "' --insts=" << opts.insts
               << " --point=" << idx
               << " --failure-dir=" << opts.failureDir;
            p.repro = os.str();
        }
        if (opts.log) {
            *opts.log << "explore FAILURE [" << idx << "] "
                      << p.workload << "/shape-" << idx << " ("
                      << p.model << ", seed " << opts.seed
                      << "): " << p.kind << ": " << p.message << "\n";
            if (!p.tracePath.empty())
                *opts.log << "  captured: " << p.tracePath << "\n";
            *opts.log << "  repro: " << p.repro << "\n";
        }
        report.points.push_back(std::move(p));
    }

    // Frontier: failures first (they ARE the interesting corner), then
    // the steepest cliffs; index breaks ties so the ranking is total
    // and deterministic.
    std::vector<const ExplorePoint *> ranked;
    ranked.reserve(report.points.size());
    for (const ExplorePoint &p : report.points)
        ranked.push_back(&p);
    std::sort(ranked.begin(), ranked.end(),
              [](const ExplorePoint *a, const ExplorePoint *b) {
                  if (a->ok != b->ok)
                      return !a->ok;
                  if (a->cliff.score != b->cliff.score)
                      return a->cliff.score > b->cliff.score;
                  return a->index < b->index;
              });
    const size_t n = std::min(opts.frontierSize, ranked.size());
    for (size_t i = 0; i < n; ++i)
        report.frontier.push_back(ranked[i]->index);

    return report;
}

void
writeExploreReport(std::ostream &os, const ExploreReport &report,
                   const ExploreOptions &opts)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("schema", JsonValue::makeString("explore-report-v1"));
    doc.set("mix", JsonValue::makeString(opts.mix));
    doc.set("seed", JsonValue::makeNumber(
                        static_cast<double>(opts.seed)));
    doc.set("shapes", JsonValue::makeNumber(
                          static_cast<double>(report.shapes)));
    doc.set("points_run", JsonValue::makeNumber(
                              static_cast<double>(report.pointsRun)));
    doc.set("insts", JsonValue::makeNumber(
                         static_cast<double>(opts.insts)));
    doc.set("metrics_interval",
            JsonValue::makeNumber(
                static_cast<double>(opts.metricsInterval)));
    if (opts.shardCount) {
        doc.set("shard", JsonValue::makeString(
                             std::to_string(opts.shard) + "/" +
                             std::to_string(opts.shardCount)));
    }

    JsonValue space = JsonValue::makeObject();
    space.set("numPEs", rangeToJson(opts.space.numPEs));
    space.set("issuePerPe", rangeToJson(opts.space.issuePerPe));
    space.set("maxTraceLen", rangeToJson(opts.space.maxTraceLen));
    space.set("globalBuses", rangeToJson(opts.space.globalBuses));
    space.set("maxBusesPerPe", rangeToJson(opts.space.maxBusesPerPe));
    space.set("cacheBuses", rangeToJson(opts.space.cacheBuses));
    space.set("maxCacheBusesPerPe",
              rangeToJson(opts.space.maxCacheBusesPerPe));
    space.set("frontendLatency",
              rangeToJson(opts.space.frontendLatency));
    space.set("loadReissuePenalty",
              rangeToJson(opts.space.loadReissuePenalty));
    space.set("icacheSizeLog2", rangeToJson(opts.space.icacheSizeLog2));
    space.set("icacheAssocLog2",
              rangeToJson(opts.space.icacheAssocLog2));
    space.set("dcacheSizeLog2", rangeToJson(opts.space.dcacheSizeLog2));
    space.set("dcacheAssocLog2",
              rangeToJson(opts.space.dcacheAssocLog2));
    space.set("tcacheSizeLog2", rangeToJson(opts.space.tcacheSizeLog2));
    space.set("tcacheAssocLog2",
              rangeToJson(opts.space.tcacheAssocLog2));
    space.set("tpredPathLog2", rangeToJson(opts.space.tpredPathLog2));
    space.set("tpredSimpleLog2",
              rangeToJson(opts.space.tpredSimpleLog2));
    space.set("bitEntriesLog2", rangeToJson(opts.space.bitEntriesLog2));
    space.set("bitAssocLog2", rangeToJson(opts.space.bitAssocLog2));
    space.set("btbEntriesLog2", rangeToJson(opts.space.btbEntriesLog2));
    space.set("physRegsLog2", rangeToJson(opts.space.physRegsLog2));
    doc.set("space", std::move(space));

    doc.set("failures", JsonValue::makeNumber(
                            static_cast<double>(report.failures)));
    doc.set("divergences",
            JsonValue::makeNumber(
                static_cast<double>(report.divergences)));

    JsonValue frontier = JsonValue::makeArray();
    for (uint64_t idx : report.frontier)
        frontier.push(JsonValue::makeNumber(static_cast<double>(idx)));
    doc.set("frontier", std::move(frontier));

    JsonValue points = JsonValue::makeArray();
    for (const ExplorePoint &p : report.points) {
        JsonValue o = JsonValue::makeObject();
        o.set("index",
              JsonValue::makeNumber(static_cast<double>(p.index)));
        o.set("workload", JsonValue::makeString(p.workload));
        o.set("model", JsonValue::makeString(p.model));
        o.set("ok", JsonValue::makeBool(p.ok));
        o.set("knobs", dictToJson(p.knobs));
        if (p.ok) {
            JsonValue c = JsonValue::makeObject();
            c.set("ipc", JsonValue::makeNumber(p.cliff.ipc));
            c.set("min_interval_ipc",
                  JsonValue::makeNumber(p.cliff.minIntervalIpc));
            c.set("ipc_dip", JsonValue::makeNumber(p.cliff.ipcDip));
            c.set("bus_saturation",
                  JsonValue::makeNumber(p.cliff.busSaturation));
            c.set("peak_occupancy",
                  JsonValue::makeNumber(p.cliff.peakOccupancy));
            c.set("utilization",
                  JsonValue::makeNumber(p.cliff.utilization));
            c.set("zero_ipc_intervals",
                  JsonValue::makeNumber(p.cliff.zeroIpcIntervals));
            c.set("score", JsonValue::makeNumber(p.cliff.score));
            o.set("cliff", std::move(c));
            o.set("stats", dictToJson(p.stats));
        } else {
            o.set("kind", JsonValue::makeString(p.kind));
            o.set("message", JsonValue::makeString(p.message));
            o.set("trace", JsonValue::makeString(p.tracePath));
            o.set("repro", JsonValue::makeString(p.repro));
        }
        points.push(std::move(o));
    }
    doc.set("points", std::move(points));

    writeJson(os, doc);
    os << "\n";
}

} // namespace tproc::harness
