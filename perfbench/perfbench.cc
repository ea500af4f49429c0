/**
 * @file
 * tproc-perfbench: the repository benchmark.
 *
 * One invocation runs one workload (ilp_steady, ci_recovery or
 * sweep_replay) for a host-time budget, repeating the workload's unit
 * of work, and checks every simulation point: retirement verification
 * is on for every point, and the digest of the simulated statistics
 * must repeat exactly across repetitions, between traced and untraced
 * repetitions, and (sweep_replay) between replay and live emulation.
 *
 * With --trace 0 the last stdout line reports the end-to-end metrics;
 * with --trace 1 it reports the per-layer metrics, taken from spans
 * the benchmark records around its own calls into each layer while
 * untraced repetitions alternate with traced ones. README.md beside
 * this file is the metric reference.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/hires_timer.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "core/runner.hh"
#include "emulator/emulator.hh"
#include "harness/sweep.hh"
#include "replay/replay_source.hh"
#include "replay/trace_store.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace tproc;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

/** Retired-instruction budget of one ilp_steady / ci_recovery point. */
constexpr uint64_t liveInsts = 400000;
/** Retired-instruction budget of one sweep_replay point. */
constexpr uint64_t sweepInsts = 10000;
/**
 * sweep_replay programs per builtin generator pattern. The grid takes
 * gen:<pattern>:0 .. gen:<pattern>:<n-1> for every pattern: the same
 * expected blend as gen:all:<i>, but stratified, so that every seed
 * simulates each pattern equally often and the seed moves only the
 * knobs sampled within each pattern.
 */
constexpr int sweepProgramsPerPattern = 8;
/** Upper bound on sweep_replay worker threads (one per host core). */
constexpr unsigned maxSweepThreads = 4;
/** Telemetry sampling interval (cycles) of traced repetitions. */
constexpr uint64_t tracedMetricsInterval = 1024;
/** A traced golden port times one step in this many. */
constexpr uint64_t goldenSampleEvery = 16;

const char *const baseModel = "base";
const char *const ciModel = "FG+MLB-RET";

/** A workload whose points run serially with live emulation. */
struct LiveSpec
{
    std::vector<std::string> programs;
    std::vector<std::string> models;
};

const LiveSpec ilpSteady{{"jpeg", "perl", "gcc"}, {baseModel}};
const LiveSpec ciRecovery{{"compress", "go", "li"}, {baseModel, ciModel}};
/** A live set-up takes milliseconds, so it is repeated this often. */
constexpr int liveSetupReps = 40;

const std::vector<std::string> sweepModels = {"base", "FG", "MLB-RET",
                                              "FG+MLB-RET"};
constexpr int sweepSetupReps = 3;

const std::vector<std::string> workloadMenu = {"ilp_steady", "ci_recovery",
                                               "sweep_replay"};

// -------------------------------------------------------------- helpers

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** FNV-1a, 64-bit: the digest of simulated statistics. */
class Digest
{
  public:
    void
    add(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void add(const std::string &s) { add(s.data(), s.size() + 1); }

    /** One point: its label and every StatDict counter, in order. */
    void
    add(const std::string &label, const StatDict &d)
    {
        add(label);
        for (const Stat &s : d.entries()) {
            add(s.name);
            add(&s.value, sizeof(s.value));
        }
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Mean cost of the two clock reads that bracket a timed interval. */
double
clockOverheadNs()
{
    constexpr int n = 20000;
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        auto a = Clock::now();
        auto b = Clock::now();
        total += std::chrono::duration<double, std::nano>(b - a).count();
    }
    return total / n;
}

/**
 * Peak resident memory, in MB, since the process started or the last
 * call, which resets the peak (Linux 4.0+). Where the reset is not
 * available the peak is the process's lifetime peak.
 */
double
takePeakRssMb()
{
    double kib = 0.0;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            kib = std::strtod(line.c_str() + 6, nullptr);
    }
    std::ofstream("/proc/self/clear_refs") << "5";
    if (kib == 0.0) {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        kib = ru.ru_maxrss;   // ru_maxrss is in KiB on Linux
    }
    return kib / 1024.0;
}

// ----------------------------------------------------------- host speed

/**
 * CPU seconds of one speed probe on the reference host: about its time
 * on the 2.0 GHz Xeon the benchmark was tuned on. Timed host seconds
 * are reported as seconds on a host that runs the probe in this time
 * (see "Host speed" in README.md).
 */
constexpr double referenceProbeSeconds = 0.025;

double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/** One xorshift64 step: the probe's pseudo-random stream. */
inline uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * The speed probe, fixed code that no change to the simulator touches.
 * Host noise slows latency-bound and throughput-bound code by different
 * amounts, and the simulator is a mix of both, so the probe has one
 * loop of each. The first read-modify-writes random words of a 256 KiB
 * table, through a branch the data makes unpredictable. The second runs
 * independent chains of arithmetic and loads from a 32 KiB table, which
 * lose most when another hardware thread shares the core. Filling the
 * tables warms them, so what the caches held before does not matter.
 * Returns the calling thread's CPU seconds for the two timed loops.
 */
double
probeSeconds()
{
    std::vector<uint32_t> big(size_t(1) << 16), small(size_t(1) << 13);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<uint32_t>(i * 2654435761u) | 1u;
    for (size_t i = 0; i < small.size(); ++i)
        small[i] = static_cast<uint32_t>(i * 2654435761u);
    const uint64_t bigMask = big.size() - 1, smallMask = small.size() - 1;
    uint64_t x = 88172645463325252ull, acc = 0;
    const double t0 = threadCpuSeconds();
    for (int i = 0; i < 1500000; ++i) {
        uint32_t &v = big[xorshift(x) & bigMask];
        if (v & 1)
            v = v * 3 + 1;
        else
            v = (v >> 1) ^ static_cast<uint32_t>(x >> 40);
        acc += v;
    }
    uint64_t a = 1, c = 7, d = 3, e = 5;
    for (int i = 0; i < 3000000; ++i) {
        a = a * 6364136223846793005ull + 1442695040888963407ull;
        xorshift(x);
        c += small[(a >> 40) & smallMask];
        d ^= small[(x >> 20) & smallMask] + (c >> 3);
        e += (a ^ d) >> 5;
        small[(c ^ e) & smallMask] += static_cast<uint32_t>(x);
    }
    const double secs = threadCpuSeconds() - t0;
    // Keep the loops: their result feeds a value the caller cannot see.
    static std::atomic<uint64_t> sink;
    sink.store(acc + a + c + d + e, std::memory_order_relaxed);
    return secs;
}

/**
 * Host speed relative to the reference host, from the probe run at once
 * on `threads` threads, so that it sees the same load as timed work
 * that uses that many. 1 is the reference speed; 1.5 is a host that
 * runs the probe 1.5 times as fast.
 */
double
hostSpeed(unsigned threads)
{
    std::vector<double> secs(threads);
    if (threads <= 1) {
        secs.assign(1, probeSeconds());
    } else {
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < threads; ++i)
            pool.emplace_back([&secs, i] { secs[i] = probeSeconds(); });
        for (std::thread &t : pool)
            t.join();
    }
    double total = 0.0;
    for (double s : secs)
        total += s;
    return referenceProbeSeconds / (total / secs.size());
}

/**
 * Host speed over consecutive timed intervals. start() probes before
 * the first; each finish() probes again and returns the mean of the
 * probes either side of the interval that just ended, which then
 * serves as the start of the next one.
 */
class SpeedTrack
{
  public:
    explicit SpeedTrack(unsigned threads_) : threads(threads_) {}

    void start() { last = hostSpeed(threads); }

    double
    finish()
    {
        const double now = hostSpeed(threads);
        const double mean = 0.5 * (last + now);
        last = now;
        return mean;
    }

  private:
    unsigned threads;
    double last = 1.0;
};

/** CPU model, MHz, core count, compiler and build type. */
std::string
hostFingerprint()
{
    std::string model = "unknown", mhz = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        auto field = [&](const char *key, std::string &out) {
            if (line.rfind(key, 0) == 0 && out == "unknown") {
                auto colon = line.find(':');
                if (colon != std::string::npos)
                    out = line.substr(line.find_first_not_of(" ",
                                                             colon + 1));
            }
        };
        field("model name", model);
        field("cpu MHz", mhz);
    }
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "cpu=\"" + model + "\" mhz=" + mhz + " nproc=" +
        std::to_string(std::thread::hardware_concurrency()) +
        " compiler=\"" + compiler + "\" build=" PERFBENCH_BUILD_TYPE;
}

// -------------------------------------------------------------- tracing

/**
 * In-memory span log. A span names the layer a call went into, its
 * interval and the span that caused it; attributes carry the counts
 * recorded at the same boundary. Only the main thread records, and
 * nothing is written until the benchmark ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent;
        Clock::time_point start, end;
        std::map<std::string, double> attrs;

        double seconds() const { return secondsBetween(start, end); }

        double
        attr(const std::string &key) const
        {
            auto it = attrs.find(key);
            return it == attrs.end() ? 0.0 : it->second;
        }
    };

    int
    begin(std::string name, int parent = -1)
    {
        spans.push_back({std::move(name), parent, Clock::now(), {}, {}});
        return static_cast<int>(spans.size()) - 1;
    }

    void end(int id) { spans[id].end = Clock::now(); }

    void attr(int id, const std::string &key, double v)
    {
        spans[id].attrs[key] = v;
    }

    /** Add v to an attribute (absent attributes start at 0). */
    void add(int id, const std::string &key, double v)
    {
        spans[id].attrs[key] += v;
    }

    /** Sum of f over spans called name. */
    template <typename F>
    double
    sum(const std::string &name, F f) const
    {
        double total = 0.0;
        for (const Span &s : spans) {
            if (s.name == name)
                total += f(s);
        }
        return total;
    }

    /**
     * Sum of value over the spans called name that keep accepts,
     * divided by the number of distinct parents of those spans: the
     * per-set-up, per-repetition or per-probe share.
     */
    template <typename Keep, typename Value>
    double
    perParent(const std::string &name, Keep keep, Value value) const
    {
        double total = 0.0;
        std::vector<int> ids;
        for (const Span &s : spans) {
            if (s.name == name && keep(s)) {
                total += value(s);
                ids.push_back(s.parent);
            }
        }
        std::sort(ids.begin(), ids.end());
        const auto groups = std::unique(ids.begin(), ids.end()) - ids.begin();
        return groups ? total / groups : 0.0;
    }

    void
    writeJson(std::ostream &os) const
    {
        const Clock::time_point t0 =
            spans.empty() ? Clock::now() : spans.front().start;
        auto ns = [&](Clock::time_point t) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t - t0).count();
        };
        os << "[\n";
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << "  {\"id\": " << i << ", \"parent\": " << s.parent
               << ", \"name\": \"" << s.name << "\", \"start_ns\": "
               << ns(s.start) << ", \"end_ns\": " << ns(s.end);
            for (const auto &[k, v] : s.attrs)
                os << ", \"" << k << "\": " << v;
            os << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        os << "]\n";
    }

  private:
    std::vector<Span> spans;
};

/** Golden-port timing gathered by a TimedEmulator. */
struct GoldenTiming
{
    uint64_t steps = 0;
    uint64_t sampled = 0;
    double sampledNs = 0.0;
};

/**
 * The live Emulator behind a timing decorator: passed as the golden
 * argument of runConfig, it times one ArchSource::step in
 * goldenSampleEvery so the traced run can split emulator time out of
 * the simulation without reading the clock on every step.
 */
class TimedEmulator : public ArchSource
{
  public:
    TimedEmulator(const Program &prog, GoldenTiming &timing_)
        : emu(prog), timing(timing_)
    {}

    StepResult
    step() override
    {
        if (++timing.steps % goldenSampleEvery != 0)
            return emu.step();
        auto t0 = Clock::now();
        StepResult r = emu.step();
        timing.sampledNs +=
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        ++timing.sampled;
        return r;
    }

    bool halted() const override { return emu.halted(); }
    uint64_t instCount() const override { return emu.instCount(); }

  private:
    Emulator emu;
    GoldenTiming &timing;
};

// ---------------------------------------------------------- repetitions

/** What one repetition of a workload's unit of work produced. */
struct Rep
{
    double seconds = 0.0;                 //!< timed, at reference speed
    double wallSeconds = 0.0;             //!< as the clock read it
    std::vector<double> speeds;           //!< host speed, per interval
    std::vector<double> pointSeconds;     //!< at reference speed
    double peakRssMb = 0.0;               //!< during this repetition
    StatDict total;                       //!< summed over the points
    std::map<std::string, double> cyclesByModel;
    uint64_t digest = 0;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> errors;
};

void
noteFailure(Rep &rep, const std::string &label, const std::string &why)
{
    ++rep.failed;
    rep.errors.push_back(label + ": " + why);
}

/** Fold the retained interval samples of one run into span attributes. */
void
addSeriesAttrs(SpanLog &log, int span, const IntervalSeries &series)
{
    const auto &ch = series.channels();
    const auto idx = [&](const char *name) {
        return std::find(ch.begin(), ch.end(), name) - ch.begin();
    };
    const size_t occ = idx("window_occupancy"), bus = idx("bus_backlog");
    for (size_t i = 0; i < series.size(); ++i) {
        log.add(span, "occupancy_sum", series.at(i).values.at(occ));
        log.add(span, "backlog_sum", series.at(i).values.at(bus));
    }
    log.add(span, "samples", series.size());
}

/** ilp_steady and ci_recovery: serial points, live emulation. */
class LiveWorkload
{
  public:
    LiveWorkload(const LiveSpec &spec_, uint64_t seed_)
        : spec(spec_), seed(seed_)
    {}

    /** Build every program; returns the host seconds it took. */
    double
    setup(SpanLog *log)
    {
        const int root = log ? log->begin("setup") : -1;
        auto t0 = Clock::now();
        std::vector<Workload> built;
        for (const std::string &name : spec.programs) {
            const int s = log ? log->begin("workloads.build", root) : -1;
            built.push_back(makeWorkload(name, seed));
            if (log)
                log->end(s);
        }
        const double secs = secondsBetween(t0, Clock::now());
        if (log)
            log->end(root);
        programs = std::move(built);
        return secs;
    }

    int setupReps() const { return liveSetupReps; }
    size_t pointsPerRep() const
    {
        return spec.programs.size() * spec.models.size();
    }

    /**
     * One unit of work: every (model, program) point, serially, with a
     * host-speed probe after each. A point's time is its thread CPU
     * seconds at reference speed.
     */
    Rep
    run(SpanLog *log)
    {
        const int root = log ? log->begin("rep") : -1;
        Rep rep;
        Digest digest;
        speed.start();
        for (const std::string &model : spec.models)
            runModel(model, rep, digest, log, root, true);
        if (log)
            log->end(root);
        rep.digest = digest.value();
        return rep;
    }

    /**
     * Simulated cycles of the models ci_speedup compares, taking the
     * timed repetition's numbers and simulating, untimed, any model the
     * workload does not time itself.
     */
    Rep
    companion()
    {
        Rep rep;
        Digest digest;
        for (const char *model : {baseModel, ciModel}) {
            if (std::find(spec.models.begin(), spec.models.end(), model) ==
                spec.models.end()) {
                runModel(model, rep, digest, nullptr, -1, false);
            }
        }
        rep.digest = digest.value();
        return rep;
    }

  private:
    void
    runModel(const std::string &model, Rep &rep, Digest &digest,
             SpanLog *log, int root, bool timed)
    {
        ProcessorConfig cfg = ProcessorConfig::forModel(model);
        cfg.verifyRetirement = true;
        if (log)
            cfg.metricsInterval = tracedMetricsInterval;
        for (const Workload &w : programs) {
            const std::string label = w.name + "/" + model;
            const int span = log ? log->begin("core.run", root) : -1;
            GoldenTiming golden;
            RunMetrics metrics;
            ++rep.attempted;
            auto t0 = Clock::now();
            const double cpu0 = threadCpuSeconds();
            ProcessorStats stats;
            bool ok = false;
            try {
                ScopedErrorCapture capture;
                if (log) {
                    stats = runConfig(
                        w.program, cfg, liveInsts,
                        std::make_unique<TimedEmulator>(w.program, golden),
                        &metrics);
                } else {
                    stats = runConfig(w.program, cfg, liveInsts);
                }
                ok = true;
            } catch (const std::exception &e) {
                noteFailure(rep, label, e.what());
            }
            const double cpu = threadCpuSeconds() - cpu0;
            const double wall = secondsBetween(t0, Clock::now());
            if (log) {
                log->end(span);
                log->attr(span, "golden_steps", golden.steps);
                log->attr(span, "golden_sampled", golden.sampled);
                log->attr(span, "golden_sampled_ns", golden.sampledNs);
                log->attr(span, "compute_s", metrics.computeSeconds);
                log->attr(span, "cycle_s", metrics.cycleSeconds);
                log->attr(span, "cycles", stats.cycles);
                log->attr(span, "insts", stats.retiredInsts);
                addSeriesAttrs(*log, span, metrics.series);
            }
            if (timed) {
                const double sp = speed.finish();
                rep.speeds.push_back(sp);
                rep.pointSeconds.push_back(cpu * sp);
                rep.seconds += cpu * sp;
                rep.wallSeconds += wall;
            }
            if (!ok)
                continue;
            if (stats.retiredInsts == 0 || stats.cycles == 0) {
                noteFailure(rep, label, "retired nothing");
                continue;
            }
            const StatDict d = harness::statsToDict(stats);
            digest.add(label, d);
            rep.total.merge(d);
            rep.cyclesByModel[model] += stats.cycles;
        }
    }

    LiveSpec spec;
    uint64_t seed;
    std::vector<Workload> programs;
    SpeedTrack speed{1};
};

/** sweep_replay: many short points through SweepEngine, from traces. */
class SweepWorkload
{
  public:
    SweepWorkload(uint64_t seed_, std::string traceDir_)
        : seed(seed_), traceDir(std::move(traceDir_)),
          threads(std::min(maxSweepThreads,
                           std::max(1u,
                                    std::thread::hardware_concurrency()))),
          speed(threads)
    {
        for (const std::string &pattern : generatorPatternNames()) {
            for (int i = 0; i < sweepProgramsPerPattern; ++i)
                programs.push_back(generatedName(pattern, i));
        }
    }

    /**
     * Fill an empty TraceStore: every program is captured (and parsed)
     * once. Returns the host seconds it took; a store that did not
     * capture is a correctness failure.
     */
    double
    setup(SpanLog *log)
    {
        std::filesystem::remove_all(traceDir);
        replay::TraceStore::dropCache();
        const int root = log ? log->begin("setup") : -1;
        auto t0 = Clock::now();
        replay::TraceStore store(traceDir);
        for (const std::string &name : programs) {
            const int s = log ? log->begin("replay.ensure", root) : -1;
            auto r = store.ensure(name, seed, 1.0, sweepInsts);
            if (log) {
                log->end(s);
                log->attr(s, "captured", r.captured);
                log->attr(s, "bytes", r.reader->info().fileBytes);
            }
            if (!r.captured)
                setupErrors.push_back(name + ": set-up did not capture");
        }
        const double secs = secondsBetween(t0, Clock::now());
        if (log)
            log->end(root);
        return secs;
    }

    int setupReps() const { return sweepSetupReps; }
    size_t pointsPerRep() const
    {
        return programs.size() * sweepModels.size();
    }
    const std::vector<std::string> &setupFailures() const
    {
        return setupErrors;
    }

    /**
     * One unit of work: the whole grid through SweepEngine::run plus
     * writeMergedJson. The parsed-trace cache is dropped first, so each
     * repetition pays trace parsing as a fresh sweep process would.
     * Its wall time is taken to reference speed with probes on as many
     * threads as the engine runs, before and after.
     */
    Rep
    run(SpanLog *log)
    {
        std::vector<harness::SweepPoint> points = harness::crossPoints(
            programs, sweepModels, seed, sweepInsts, true);
        for (auto &p : points) {
            p.traceDir = traceDir;
            if (log)
                p.metricsInterval = tracedMetricsInterval;
        }
        harness::SweepEngine::Options opts;
        opts.threads = threads;
        opts.retries = 1;
        harness::SweepEngine engine(opts);

        Rep rep;
        const int root = log ? log->begin("rep") : -1;
        const auto phases0 = PhaseTimers::global().snapshot();
        speed.start();
        auto t0 = Clock::now();
        replay::TraceStore::dropCache();
        const int es = log ? log->begin("harness.engine", root) : -1;
        std::vector<harness::SweepResult> results = engine.run(points);
        if (log)
            log->end(es);
        const int ms = log ? log->begin("harness.merge", root) : -1;
        std::ostringstream merged;
        harness::writeMergedJson(merged, results);
        if (log)
            log->end(ms);
        rep.wallSeconds = secondsBetween(t0, Clock::now());
        if (log)
            log->end(root);
        const double sp = speed.finish();
        rep.speeds.push_back(sp);
        rep.seconds = rep.wallSeconds * sp;

        Digest digest;
        digest.add(merged.str());
        rep.digest = digest.value();
        double wallSum = 0.0, retries = 0.0;
        for (const auto &r : results) {
            ++rep.attempted;
            rep.pointSeconds.push_back(r.wallSeconds * sp);
            wallSum += r.wallSeconds;
            // The simulator is deterministic, so a point that needed a
            // retry to pass is as wrong as one that failed.
            retries += r.attempts - 1;
            if (!r.ok)
                noteFailure(rep, r.point.label(), r.error);
            else if (r.attempts > 1)
                noteFailure(rep, r.point.label(), "passed on a retry");
            if (!r.ok)
                continue;
            rep.total.merge(harness::statsToDict(r.stats));
            rep.cyclesByModel[r.point.model] += r.stats.cycles;
        }
        if (log) {
            double simulate = 0.0, compute = 0.0, commit = 0.0;
            for (const PhaseStat &p : PhaseTimers::diff(
                     PhaseTimers::global().snapshot(), phases0)) {
                if (p.name == "simulate")
                    simulate = p.seconds;
                else if (p.name == "cycle_compute")
                    compute = p.seconds;
                else if (p.name == "cycle_commit")
                    commit = p.seconds;
            }
            log->attr(es, "simulate_s", simulate);
            log->attr(es, "compute_s", compute);
            log->attr(es, "cycle_s", compute + commit);
            log->attr(es, "point_wall_s", wallSum);
            log->attr(es, "threads", threads);
            log->attr(es, "retries", retries);
            log->attr(es, "insts", rep.total.get("retiredInsts"));
            for (const auto &r : results)
                addSeriesAttrs(*log, es, r.series);
        }
        lastResults = std::move(results);
        return rep;
    }

    /**
     * Live emulation must reproduce replay: re-run the first program's
     * points live and compare their statistics with the last
     * repetition's replayed ones.
     */
    Rep
    liveCheck()
    {
        Rep rep;
        Digest digest;
        for (size_t i = 0; i < sweepModels.size() && i < lastResults.size();
             ++i) {
            harness::SweepPoint p = lastResults[i].point;
            p.traceDir.clear();
            p.metricsInterval = 0;
            ++rep.attempted;
            harness::SweepResult live = harness::SweepEngine::runPoint(p);
            if (!live.ok) {
                noteFailure(rep, p.label() + " (live)", live.error);
                continue;
            }
            const StatDict d = harness::statsToDict(live.stats);
            if (d != harness::statsToDict(lastResults[i].stats))
                noteFailure(rep, p.label(), "live and replay differ");
            digest.add(p.label(), d);
        }
        rep.digest = digest.value();
        return rep;
    }

    /**
     * Per-layer probes of the traced run, outside the timed
     * repetitions: build each program (the build share of a capture),
     * reopen each trace from disk, and drain a ReplaySource per trace.
     */
    void
    probe(SpanLog &log)
    {
        const int root = log.begin("probe");
        for (const std::string &name : programs) {
            const int s = log.begin("workloads.build", root);
            Workload w = makeWorkload(name, seed);
            log.end(s);
        }
        replay::TraceStore::dropCache();
        replay::TraceStore store(traceDir);
        std::vector<std::shared_ptr<const replay::TraceReader>> readers;
        for (const std::string &name : programs) {
            const int s = log.begin("replay.ensure", root);
            auto r = store.ensure(name, seed, 1.0, sweepInsts);
            log.end(s);
            log.attr(s, "captured", r.captured);
            readers.push_back(r.reader);
        }
        for (const auto &reader : readers) {
            const int s = log.begin("replay.drain", root);
            replay::ReplaySource src(reader);
            const uint64_t steps = reader->info().totalSteps;
            while (src.instCount() < steps && !src.halted())
                src.step();
            log.end(s);
            log.attr(s, "steps", src.instCount());
        }
        log.end(root);
    }

  private:
    uint64_t seed;
    std::string traceDir;
    unsigned threads;
    SpeedTrack speed;
    std::vector<std::string> programs;
    std::vector<std::string> setupErrors;
    std::vector<harness::SweepResult> lastResults;
};

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

void
printMetric(const Metric &m)
{
    std::printf("metric %-30s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Simulated layer metrics of one repetition's summed statistics. */
void
simulatedLayerMetrics(const StatDict &t, std::vector<Metric> &out)
{
    const double insts = t.get("retiredInsts");
    const double cycles = t.get("cycles");
    auto pki = [&](const char *k) { return 1000.0 * t.get(k) / insts; };
    out.push_back({"core.useful_trace_ratio",
                   ratio(t.get("retiredTraces"), t.get("dispatchedTraces")),
                   "ratio", "retired / dispatched traces"});
    out.push_back({"core.squashed_insts_pki", pki("squashedInsts"),
                   "1/kinst", ""});
    out.push_back({"core.reissued_slots_pki", pki("reissuedSlots"),
                   "1/kinst", ""});
    out.push_back({"arb.load_violations_pki", pki("loadViolations"),
                   "1/kinst", ""});
    out.push_back({"core.misp_pki", pki("mispEvents"), "1/kinst", ""});
    out.push_back({"core.recoveries_fgci", t.get("recoveriesFgci"), "count",
                   "per repetition"});
    out.push_back({"core.recoveries_cgci", t.get("recoveriesCgci"), "count",
                   "per repetition"});
    out.push_back({"core.recoveries_full", t.get("recoveriesFull"), "count",
                   "per repetition"});
    out.push_back({"core.cgci_reconverge_ratio",
                   ratio(t.get("cgciReconverged"), t.get("recoveriesCgci")),
                   "ratio", "reconverged / CGCI recoveries"});
    out.push_back({"core.traces_preserved", t.get("tracesPreserved"),
                   "count", "per repetition"});
    out.push_back({"frontend.tc_miss_pki", pki("tcMisses"), "1/kinst", ""});
    out.push_back({"frontend.fallback_ratio",
                   ratio(t.get("fallbackFetches"),
                         t.get("tracePredictions") +
                             t.get("fallbackFetches")),
                   "ratio", "fallback / all trace fetches"});
    out.push_back({"frontend.fetch_stall_frac",
                   ratio(t.get("fetchStallCycles"), cycles), "ratio", ""});
    out.push_back({"core.dispatch_blocked_frac",
                   ratio(t.get("dispatchBlockedCycles"), cycles), "ratio",
                   ""});
    out.push_back({"dcache.miss_ratio",
                   ratio(t.get("dcMisses"), t.get("dcAccesses")), "ratio",
                   ""});
    out.push_back({"icache.miss_ratio",
                   ratio(t.get("icMisses"), t.get("icAccesses")), "ratio",
                   ""});
}

/** Median over repetitions of retired kilo-instructions per second. */
double
simKips(const std::vector<Rep> &reps)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(r.total.get("retiredInsts") / r.seconds / 1000.0);
    return median(v);
}

/**
 * The host speeds the probes measured, and what the clock read before
 * times were taken to reference speed: raw wall-clock sim_kips and
 * set-up seconds, for comparison with the reported ones.
 */
void
printSpeed(const std::vector<Rep> &plain, const std::vector<double> &setupWall,
           const std::vector<double> &setupRef)
{
    std::vector<double> speeds, rawKips;
    for (const Rep &r : plain) {
        speeds.insert(speeds.end(), r.speeds.begin(), r.speeds.end());
        rawKips.push_back(r.total.get("retiredInsts") / r.wallSeconds /
                          1000.0);
    }
    std::sort(speeds.begin(), speeds.end());
    std::printf("host_speed median=%.4f min=%.4f max=%.4f probes=%zu "
                "(1 = a probe in %.3g CPU seconds)\n",
                median(speeds), speeds.front(), speeds.back(), speeds.size(),
                referenceProbeSeconds);
    std::printf("raw sim_kips=%.3f setup_s=%.6f (wall clock, median; "
                "reported: %.3f, %.6f at reference speed)\n",
                median(rawKips), median(setupWall), simKips(plain),
                median(setupRef));
}

/** The end-to-end metrics, from the untraced repetitions. */
std::vector<Metric>
endToEnd(const std::vector<Rep> &plain, const Rep &extra,
         const std::vector<double> &setupSeconds, double setupPeakMb)
{
    std::vector<double> pps, pointSecs, peaks;
    for (const Rep &r : plain) {
        peaks.push_back(r.peakRssMb);
        pps.push_back(r.pointSeconds.size() / r.seconds);
        pointSecs.insert(pointSecs.end(), r.pointSeconds.begin(),
                         r.pointSeconds.end());
    }
    const std::string samples =
        "n=" + std::to_string(pointSecs.size()) + " points";
    const Rep &first = plain.front();
    std::map<std::string, double> cycles = first.cyclesByModel;
    for (const auto &[m, c] : extra.cyclesByModel)
        cycles[m] += c;
    return {
        {"sim_kips", simKips(plain), "kinst/s",
         "median of " + std::to_string(plain.size()) +
             " reps, at reference speed"},
        {"points_per_s", median(pps), "1/s", ""},
        {"point_p50_s", percentile(pointSecs, 0.5), "s", samples},
        {"point_p90_s", percentile(pointSecs, 0.9), "s", samples},
        {"setup_s", median(setupSeconds), "s",
         "median of " + std::to_string(setupSeconds.size())},
        {"peak_rss_mb", std::max(setupPeakMb, median(peaks)), "MB",
         "larger of set-up's peak and the median repetition's"},
        {"ipc", ratio(first.total.get("retiredInsts"),
                      first.total.get("cycles")),
         "inst/cycle", "simulated"},
        {"ci_speedup", ratio(cycles[baseModel], cycles[ciModel]), "x",
         "simulated, base / FG+MLB-RET cycles; model unvalidated against "
         "the paper"},
    };
}

/**
 * The per-layer metrics, from the traced repetitions' spans. Layers a
 * workload does not call report 0.
 */
std::vector<Metric>
perLayer(const SpanLog &log, const std::vector<Rep> &plain,
         const std::vector<Rep> &traced, double clockNs, double failedFrac)
{
    using Span = SpanLog::Span;
    auto dur = [](const Span &s) { return s.seconds(); };
    auto attr = [](const char *k) {
        return [k](const Span &s) { return s.attr(k); };
    };
    auto any = [](const Span &) { return true; };
    auto captured = [](bool want) {
        return [want](const Span &s) {
            return (s.attr("captured") != 0.0) == want;
        };
    };
    auto sum = [&](const char *name, const char *key) {
        return log.sum(name, attr(key));
    };
    const double nTraced = traced.size();

    // Golden port: sampled step time less the clock reads around it.
    const double goldenNsPerStep = std::max(
        0.0, ratio(sum("core.run", "golden_sampled_ns"),
                   sum("core.run", "golden_sampled")) - clockNs);
    const double goldenSeconds =
        goldenNsPerStep * sum("core.run", "golden_steps") * 1e-9;
    const double replayNsPerStep =
        ratio(log.sum("replay.drain", dur) * 1e9,
              sum("replay.drain", "steps"));

    // Core self time: the runConfig spans less their golden-port child
    // (live), or the workers' simulate phase less the replay port
    // (sweep_replay).
    const double coreSelf = log.sum("core.run", dur) - goldenSeconds +
        sum("harness.engine", "simulate_s") -
        replayNsPerStep * 1e-9 * sum("harness.engine", "insts");
    double coreCycles = 0.0, coreInsts = 0.0;
    for (const Rep &r : traced) {
        coreCycles += r.total.get("cycles");
        coreInsts += r.total.get("retiredInsts");
    }
    auto both = [&](const char *key) {
        return sum("core.run", key) + sum("harness.engine", key);
    };
    const double samples = both("samples");

    std::vector<Metric> m = {
        {"workloads.build_s", log.perParent("workloads.build", any, dur),
         "s", "per set-up (sweep_replay: per probe)"},
        {"emulator.verify_s", goldenSeconds / nTraced, "s",
         "per repetition, sampled 1/" + std::to_string(goldenSampleEvery) +
             " steps"},
        {"emulator.ns_per_step", goldenNsPerStep, "ns", ""},
        {"replay.capture_s",
         log.perParent("replay.ensure", captured(true), dur), "s",
         "per set-up"},
        {"replay.open_s", log.perParent("replay.ensure", captured(false), dur),
         "s", "per probe"},
        {"replay.captures",
         log.perParent("replay.ensure", captured(true), attr("captured")),
         "count", "per set-up"},
        {"replay.trace_bytes",
         log.perParent("replay.ensure", captured(true), attr("bytes")),
         "bytes", "per set-up"},
        {"replay.ns_per_step", replayNsPerStep, "ns", ""},
        {"core.self_s", coreSelf / nTraced, "s",
         "per repetition, summed over threads"},
        {"core.host_ns_per_cycle", ratio(coreSelf * 1e9, coreCycles), "ns",
         ""},
        {"core.host_ns_per_inst", ratio(coreSelf * 1e9, coreInsts), "ns", ""},
        {"core.compute_share", ratio(both("compute_s"), both("cycle_s")),
         "ratio", ""},
    };
    simulatedLayerMetrics(traced.front().total, m);
    m.push_back({"core.window_occupancy",
                 ratio(both("occupancy_sum"), samples), "traces",
                 "mean of interval samples"});
    m.push_back({"core.bus_backlog", ratio(both("backlog_sum"), samples),
                 "requests", "mean of interval samples"});
    m.push_back({"harness.engine_s", log.perParent("harness.engine", any, dur),
                 "s", "per repetition"});
    m.push_back({"harness.merge_s", log.perParent("harness.merge", any, dur),
                 "s", "per repetition"});
    m.push_back({"harness.parallel_efficiency",
                 log.perParent("harness.engine", any,
                               [](const Span &s) {
                                   return ratio(s.attr("point_wall_s"),
                                                s.attr("threads") *
                                                    s.seconds());
                               }),
                 "ratio", "point seconds / (threads x engine_s)"});
    m.push_back({"harness.retries",
                 log.perParent("harness.engine", any, attr("retries")),
                 "count", "per repetition"});
    m.push_back({"trace_overhead_frac", 1.0 - simKips(traced) / simKips(plain),
                 "ratio", "1 - traced / untraced sim_kips"});
    m.push_back({"failed_frac", failedFrac, "ratio", ""});
    return m;
}

// ----------------------------------------------------------------- main

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    uint64_t seconds = 10;
    bool trace = false;
    std::string workDir = ".";
    std::string spansPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "tproc-perfbench: %s\n"
                 "usage: tproc-perfbench --workload "
                 "{ilp_steady|ci_recovery|sweep_replay} --seed N "
                 "--seconds S --trace {0|1} [--work-dir DIR] "
                 "[--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!parseU64(value, a.seed))
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            if (!parseU64(value, a.seconds) || a.seconds == 0)
                usage("--seconds takes a positive integer");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--work-dir") {
            a.workDir = value;
        } else if (flag == "--spans") {
            a.spansPath = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload ||
        std::find(workloadMenu.begin(), workloadMenu.end(), a.workload) ==
            workloadMenu.end()) {
        usage("unknown or missing --workload");
    }
    return a;
}

/**
 * The repetition loop shared by every workload: untraced repetitions
 * (and, with --trace 1, traced ones alternating with them) until the
 * budget is spent, never fewer than two of each kind run.
 */
template <typename W>
int
measure(W &w, const Args &args)
{
    SpanLog log;
    SpanLog *traceLog = args.trace ? &log : nullptr;
    const double clockNs = args.trace ? clockOverheadNs() : 0.0;

    // Set-up is single-threaded, so one probe thread tracks its speed.
    std::vector<double> setupSeconds, setupWall;
    SpeedTrack setupSpeed(1);
    setupSpeed.start();
    for (int i = 0; i < w.setupReps(); ++i) {
        setupWall.push_back(w.setup(traceLog));
        setupSeconds.push_back(setupWall.back() * setupSpeed.finish());
    }
    const double setupPeakMb = takePeakRssMb();

    std::vector<Rep> plain, traced;
    auto start = Clock::now();
    double longest = 0.0;
    for (;;) {
        const double elapsed = secondsBetween(start, Clock::now());
        const bool enough = plain.size() >= 2 &&
            (!args.trace || traced.size() >= 2);
        if (enough && elapsed + longest > args.seconds)
            break;
        const bool tracedTurn = args.trace && traced.size() < plain.size();
        // Each repetition starts from the memory a fresh process would
        // hold: the allocator returns what earlier ones freed.
        malloc_trim(0);
        takePeakRssMb();
        auto t0 = Clock::now();
        Rep rep = w.run(tracedTurn ? traceLog : nullptr);
        longest = std::max(longest, secondsBetween(t0, Clock::now()));
        rep.peakRssMb = takePeakRssMb();
        (tracedTurn ? traced : plain).push_back(std::move(rep));
    }

    // ------------------------------------------------ correctness
    size_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    auto account = [&](const Rep &r) {
        attempted += r.attempted;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    };
    for (const Rep &r : plain)
        account(r);
    for (const Rep &r : traced)
        account(r);
    const uint64_t digest = plain.front().digest;
    bool digestsAgree = true;
    for (const auto *reps : {&plain, &traced}) {
        for (const Rep &r : *reps)
            digestsAgree = digestsAgree && r.digest == digest;
    }
    if (!digestsAgree)
        errors.push_back("statistics digest differs between repetitions");

    // Runs outside the timed repetitions that the checks and ci_speedup
    // need: the companion model (live workloads) or the live-vs-replay
    // differential (sweep_replay).
    Rep extra;
    if constexpr (std::is_same_v<W, SweepWorkload>) {
        extra = w.liveCheck();
        for (const std::string &e : w.setupFailures())
            errors.push_back(e);
    } else {
        extra = w.companion();
    }
    account(extra);
    if (traceLog) {
        if constexpr (std::is_same_v<W, SweepWorkload>)
            w.probe(log);
    }
    const bool correct = failed == 0 && errors.empty();

    // ------------------------------------------------ report
    std::printf("host %s\n", hostFingerprint().c_str());
    std::printf("workload %s seed=%llu reps=%zu traced_reps=%zu "
                "points_per_rep=%zu setups=%zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size(), w.pointsPerRep(), setupSeconds.size());
    std::printf("digest %s %s\n", args.workload.c_str(),
                hex(digest).c_str());
    if (!traced.empty()) {
        std::printf("digest_traced %s %s\n", args.workload.c_str(),
                    hex(traced.front().digest).c_str());
    }
    if (extra.attempted) {
        std::printf("digest_extra %s %s\n", args.workload.c_str(),
                    hex(extra.digest).c_str());
    }
    for (const std::string &e : errors)
        std::printf("error %s\n", e.c_str());
    printSpeed(plain, setupWall, setupSeconds);

    const std::vector<Metric> e2e =
        endToEnd(plain, extra, setupSeconds, setupPeakMb);
    for (const Metric &m : e2e)
        printMetric(m);
    if (!args.trace) {
        // failed_frac is 0 whenever the run passes, so it travels in the
        // result's attempted/failed counts and the traced run's metrics.
        std::printf("metric %-30s %16.6f %-10s %zu/%zu points\n",
                    "failed_frac", ratio(failed, attempted), "ratio", failed,
                    attempted);
        printResult(correct, attempted, failed, e2e);
        return correct ? 0 : 1;
    }

    const std::vector<Metric> layer = perLayer(
        log, plain, traced, clockNs, ratio(failed, attempted));
    for (const Metric &m : layer)
        printMetric(m);
    if (!args.spansPath.empty()) {
        std::ofstream os(args.spansPath);
        log.writeJson(os);
        if (!os) {
            std::fprintf(stderr, "tproc-perfbench: cannot write %s\n",
                         args.spansPath.c_str());
            return 1;
        }
    }
    printResult(correct, attempted, failed, layer);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        if (args.workload == "sweep_replay") {
            SweepWorkload w(args.seed, args.workDir + "/traces");
            return measure(w, args);
        }
        LiveWorkload w(args.workload == "ilp_steady" ? ilpSteady
                                                     : ciRecovery,
                       args.seed);
        return measure(w, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tproc-perfbench: %s\n", e.what());
        return 1;
    }
}
