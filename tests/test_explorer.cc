/**
 * @file
 * Config-space explorer tests: the sampler provably stays inside
 * ProcessorConfig::validate()'s envelope, shape sampling and the
 * explore-report-v1 document are byte-identical across processes and
 * scheduler widths, validate() rejects every degenerate shape with a
 * structured error naming the offending knob *before* simulation
 * starts, and an injected divergence lands a verify-clean replayable
 * .tpt plus a working one-line repro (the soak capture contract).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "core/processor.hh"
#include "harness/explorer.hh"
#include "harness/sweep.hh"
#include "replay/trace_file.hh"
#include "workloads/workloads.hh"

namespace tproc
{

namespace
{

namespace fs = std::filesystem;

/** Unique scratch directory, removed (recursively) on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &stem)
        : p(testing::TempDir() + stem + "." +
            std::to_string(::getpid()) + "." +
            std::to_string(reinterpret_cast<uintptr_t>(this)))
    {
        fs::remove_all(p);
        fs::create_directories(p);
    }

    ~TempDir() { fs::remove_all(p); }

    const std::string &path() const { return p; }

  private:
    std::string p;
};

/** FNV-1a over a string: the cross-process digest primitive. */
uint64_t
strDigest(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Canonical text form of a sampled shape: model plus every knob in
 *  dict order. Equal strings mean equal shapes field-for-field. */
std::string
shapeText(const harness::SampledShape &s)
{
    std::ostringstream os;
    os << s.model;
    for (const Stat &st : s.knobs.entries())
        os << '|' << st.name << '=' << st.value;
    return os.str();
}

/** Small deterministic campaign used by the identity tests. */
harness::ExploreOptions
smallCampaign()
{
    harness::ExploreOptions opts;
    opts.shapes = 4;
    opts.seed = 11;
    opts.insts = 6000;
    return opts;
}

std::string
reportText(const harness::ExploreOptions &opts)
{
    const harness::ExploreReport rep = harness::runExplore(opts);
    std::ostringstream os;
    harness::writeExploreReport(os, rep, opts);
    return os.str();
}

/** Run `fn` in a forked child and ship its uint64 digest back through
 *  a pipe (the generator test's cross-process identity idiom). */
template <typename Fn>
uint64_t
digestInChild(Fn fn)
{
    int fds[2];
    EXPECT_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        const uint64_t h = fn();
        const ssize_t n = write(fds[1], &h, sizeof(h));
        _exit(n == sizeof(h) ? 0 : 1);
    }
    close(fds[1]);
    uint64_t there = 0;
    EXPECT_EQ(read(fds[0], &there, sizeof(there)),
              static_cast<ssize_t>(sizeof(there)));
    close(fds[0]);
    return there;
}

} // namespace

// ------------------------------------------------------------ sampler

TEST(Explorer, SamplerStaysInValidEnvelope)
{
    // The acceptance bar: every sampled shape passes validate() by
    // construction, across many indices and several seeds. validate()
    // throwing here means the declared ShapeSpace bounds drifted out
    // of the constructor formulas' envelope.
    const harness::ShapeSpace space;
    for (uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
        for (uint64_t i = 0; i < 200; ++i) {
            const harness::SampledShape s =
                harness::sampleShape(space, seed, i);
            EXPECT_NO_THROW(s.config.validate())
                << "seed " << seed << " index " << i;
            EXPECT_FALSE(s.model.empty());
            // The BIT cannot cache traces longer than selection builds.
            EXPECT_EQ(s.config.bit.maxTraceLen,
                      s.config.selection.maxTraceLen);
            EXPECT_FALSE(s.knobs.entries().empty());
        }
    }
}

TEST(Explorer, SamplerIsDeterministicAndIndexKeyed)
{
    const harness::ShapeSpace space;
    const harness::SampledShape a = harness::sampleShape(space, 7, 3);
    const harness::SampledShape b = harness::sampleShape(space, 7, 3);
    EXPECT_EQ(shapeText(a), shapeText(b));

    // Different index or seed must actually move the shape, or the
    // identity test above proves nothing.
    EXPECT_NE(shapeText(a),
              shapeText(harness::sampleShape(space, 7, 4)));
    EXPECT_NE(shapeText(a),
              shapeText(harness::sampleShape(space, 8, 3)));
}

TEST(Explorer, ShapesByteIdenticalAcrossProcesses)
{
    // A forked child resamples the same shapes in a fresh process:
    // digest equality rules out dependence on address-space layout or
    // allocation history (the generator determinism discipline).
    auto digest = [] {
        const harness::ShapeSpace space;
        std::string all;
        for (uint64_t i = 0; i < 32; ++i)
            all += shapeText(harness::sampleShape(space, 7, i)) + "\n";
        return strDigest(all);
    };
    EXPECT_EQ(digest(), digestInChild(digest));
}

// ------------------------------------------------------------- report

TEST(Explorer, ReportByteIdenticalAcrossSchedulers)
{
    harness::ExploreOptions one = smallCampaign();
    one.threads = 1;
    harness::ExploreOptions four = smallCampaign();
    four.threads = 4;
    const std::string a = reportText(one);
    const std::string b = reportText(four);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\": \"explore-report-v1\""),
              std::string::npos);
}

TEST(Explorer, ReportByteIdenticalAcrossProcesses)
{
    auto digest = [] { return strDigest(reportText(smallCampaign())); };
    EXPECT_EQ(digest(), digestInChild(digest));
}

TEST(Explorer, CleanRunTouchesNoFailureDir)
{
    TempDir root("explore-clean");
    const std::string failDir = root.path() + "/failures";
    harness::ExploreOptions opts = smallCampaign();
    opts.shapes = 2;
    opts.failureDir = failDir;
    opts.scratchDir = root.path() + "/store";
    const harness::ExploreReport rep = harness::runExplore(opts);
    EXPECT_EQ(rep.pointsRun, 2u);
    EXPECT_EQ(rep.failures, 0u);
    EXPECT_EQ(rep.divergences, 0u);
    // The failure dir must not even exist after a clean campaign.
    EXPECT_FALSE(fs::exists(failDir));
    // Frontier still ranks the surviving points deterministically.
    EXPECT_EQ(rep.frontier.size(), 2u);
}

// -------------------------------------------------- capture-on-failure

TEST(Explorer, InjectedDivergenceCapturesReplayableTrace)
{
    TempDir fail("explore-fail");
    TempDir scratch("explore-scratch");

    harness::ExploreOptions opts = smallCampaign();
    opts.shapes = 2;
    opts.failureDir = fail.path();
    opts.scratchDir = scratch.path();
    opts.injectDivergenceAt = 1;

    const harness::ExploreReport rep = harness::runExplore(opts);
    EXPECT_EQ(rep.pointsRun, 2u);
    EXPECT_EQ(rep.failures, 1u);
    EXPECT_EQ(rep.divergences, 1u);

    const harness::ExplorePoint *p = nullptr;
    for (const auto &q : rep.points) {
        if (!q.ok)
            p = &q;
    }
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->index, 1u);
    EXPECT_EQ(p->kind, "injected");

    // A failure ranks ahead of every surviving point.
    ASSERT_FALSE(rep.frontier.empty());
    EXPECT_EQ(rep.frontier[0], 1u);

    // The capture must be a verify-clean v2 container on disk.
    ASSERT_FALSE(p->tracePath.empty());
    ASSERT_TRUE(fs::exists(p->tracePath)) << p->tracePath;
    std::string err;
    replay::TraceInfo info;
    ASSERT_TRUE(replay::TraceReader::verify(p->tracePath, &err, &info))
        << err;
    EXPECT_EQ(info.meta.workload, p->workload);

    // The repro line pins the exact index, seed, and failure dir.
    EXPECT_NE(p->repro.find("tproc-explore"), std::string::npos);
    EXPECT_NE(p->repro.find("--point=1"), std::string::npos);
    EXPECT_NE(p->repro.find("--seed=11"), std::string::npos);
    EXPECT_NE(p->repro.find("--failure-dir=" + fail.path()),
              std::string::npos);

    // And the repro actually works: resample shape 1 (index-keyed, so
    // --point re-derives the identical config) and replay the captured
    // trace against a live run on that shape, bit for bit.
    const harness::SampledShape shape =
        harness::sampleShape(opts.space, opts.seed, 1);
    harness::SweepPoint base;
    base.workload = p->workload;
    base.model = shape.model;
    base.seed = opts.seed;
    base.maxInsts = opts.insts;
    base.useConfig = true;
    base.config = shape.config;
    base.verify = true;

    harness::SweepPoint fromCapture = base;
    fromCapture.traceDir = fail.path();
    const auto replayed = harness::SweepEngine::runPoint(fromCapture);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    harness::SweepPoint liveAgain = base;
    const auto live = harness::SweepEngine::runPoint(liveAgain);
    ASSERT_TRUE(live.ok) << live.error;
    EXPECT_EQ(harness::statsToDict(live.stats),
              harness::statsToDict(replayed.stats));
}

// ----------------------------------------------------------- validate

namespace
{

/** Assert that cfg.validate() throws ConfigError naming `knob`. */
void
expectBadKnob(const ProcessorConfig &cfg, const std::string &knob)
{
    try {
        cfg.validate();
        FAIL() << "validate() accepted a degenerate " << knob;
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.knob, knob);
        EXPECT_NE(std::string(e.what()).find(knob), std::string::npos);
    }
}

} // namespace

TEST(ConfigValidate, RejectsDegenerateShapesNamingTheKnob)
{
    {
        ProcessorConfig c;
        c.numPEs = 0;
        expectBadKnob(c, "numPEs");
    }
    {
        ProcessorConfig c;
        c.globalBuses = 0;
        expectBadKnob(c, "globalBuses");
    }
    {
        ProcessorConfig c;
        c.maxCacheBusesPerPe = 0;
        expectBadKnob(c, "maxCacheBusesPerPe");
    }
    {
        // Zero-set geometry: more ways than lines fit in the cache.
        ProcessorConfig c;
        c.icache.sizeBytes = 1024;
        c.icache.assoc = 64;
        expectBadKnob(c, "icache.sizeBytes");
    }
    {
        // The zero-entry trace predictor used to sail through the
        // constructor's pow2 panic_if (0 & -1 == 0) and silently
        // mispredict everything; validate() names the knob instead.
        ProcessorConfig c;
        c.tpred.pathEntries = 0;
        expectBadKnob(c, "tpred.pathEntries");
    }
    {
        ProcessorConfig c;
        c.btbEntries = 3;
        expectBadKnob(c, "btbEntries");
    }
    {
        // Window can hold more in-flight results than there are
        // physical registers to receive them.
        ProcessorConfig c;
        c.physRegs = 8;
        expectBadKnob(c, "physRegs");
    }
    {
        // BIT/selection trace-length disagreement.
        ProcessorConfig c;
        c.bit.maxTraceLen = c.selection.maxTraceLen + 1;
        expectBadKnob(c, "bit.maxTraceLen");
    }
    {
        // Traces longer than the PE's 64-bit slot masks.
        ProcessorConfig c;
        c.selection.maxTraceLen = c.bit.maxTraceLen = 65;
        expectBadKnob(c, "selection.maxTraceLen");
        c.selection.maxTraceLen = c.bit.maxTraceLen = 64;
        EXPECT_NO_THROW(c.validate());
    }
}

TEST(ConfigValidate, RunsBeforeSimulationStarts)
{
    // A degenerate config must surface as ConfigError from the
    // Processor constructor itself — before any component is built or
    // a single cycle runs — not as a deep panic from (say) the cache
    // constructor's own assert, and not as silent misbehavior.
    const Workload w = makeWorkload("compress");
    ProcessorConfig cfg;
    cfg.tpred.pathEntries = 0;
    try {
        Processor p(w.program, cfg);
        FAIL() << "Processor accepted an invalid config";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.knob, "tpred.pathEntries");
    }
}

TEST(ConfigValidate, AcceptsTheDefaultConfig)
{
    EXPECT_NO_THROW(ProcessorConfig{}.validate());
}

} // namespace tproc
