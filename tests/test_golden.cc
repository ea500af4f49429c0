/**
 * @file
 * The golden corpus: frozen StatDict snapshots that pin the cycle loop
 * bit for bit. Any behavioural change to the simulator — timing,
 * recovery, caches, buses — shows up here as a named-counter diff.
 *
 * All cases compare against checked-in snapshots:
 *  - the golden grid (8 workloads x {base, FG+MLB-RET}, 20000 insts,
 *    seed 1) against tests/golden/stats, once on live emulation and
 *    once replaying the checked-in tests/golden/traces — the same gate
 *    `tproc-sweep --golden` applies;
 *  - odd machine shapes (1, 2, 3, 5 and 16 PEs) against
 *    tests/golden/corpus;
 *  - 20 seeded random machine shapes on random workload/seed pairs
 *    (starved buses, short traces, narrow issue), and two generated
 *    workloads, against tests/golden/corpus.
 *
 * On drift a case prints the divergent counters and the fresh StatDict
 * JSON, so an intended behaviour change can be reviewed counter by
 * counter and the snapshot replaced with the printed document. A
 * replay case that drifts while its live twin holds is additionally
 * bisected: live and replay runs step in lockstep and the report names
 * the first cycle whose counters differ.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/processor.hh"
#include "core/runner.hh"
#include "harness/golden.hh"
#include "harness/sweep.hh"
#include "replay/replay_source.hh"
#include "replay/trace_store.hh"
#include "workloads/workloads.hh"

namespace tproc
{

namespace
{

const std::string goldenDir = TPROC_SOURCE_DIR "/tests/golden";

/** Render the divergent counters of two StatDicts. */
std::string
describeDrift(const StatDict &expected, const StatDict &actual)
{
    std::ostringstream os;
    for (const auto &d : harness::diffStatDicts(expected, actual))
        os << " " << d.key << "=" << d.expected << " vs " << d.actual;
    return os.str();
}

/** Compare a fresh run against the snapshot at @p path: the named
 *  counter diff plus the fresh StatDict JSON on drift. */
::testing::AssertionResult
matchesSnapshot(const std::string &path, const StatDict &fresh)
{
    StatDict want;
    try {
        want = harness::readGoldenFile(path);
    } catch (const std::exception &e) {
        return ::testing::AssertionFailure() << e.what();
    }
    if (want == fresh)
        return ::testing::AssertionSuccess();
    std::ostringstream json;
    fresh.writeJson(json, 0);
    return ::testing::AssertionFailure()
           << path << " drifted (snapshot vs fresh):"
           << describeDrift(want, fresh) << "\n  fresh StatDict:\n"
           << json.str();
}

/**
 * Divergence bisection: step two processors over the same program in
 * lockstep and report the first cycle at which any statistics counter
 * differs (plus the counters). Returns "" when the runs stay
 * bit-identical to completion. A non-null reader makes that run verify
 * against the recorded architectural stream instead of live emulation.
 */
std::string
lockstepDivergence(const Program &prog, const ProcessorConfig &cfg_a,
                   std::shared_ptr<const replay::TraceReader> reader_a,
                   const ProcessorConfig &cfg_b,
                   std::shared_ptr<const replay::TraceReader> reader_b,
                   uint64_t max_insts)
{
    auto golden = [](const ProcessorConfig &cfg,
                     std::shared_ptr<const replay::TraceReader> reader)
        -> std::unique_ptr<ArchSource> {
        if (reader && cfg.verifyRetirement)
            return std::make_unique<replay::ReplaySource>(reader);
        return nullptr;     // Processor defaults to a live Emulator
    };
    Processor a(prog, cfg_a, golden(cfg_a, reader_a));
    Processor b(prog, cfg_b, golden(cfg_b, reader_b));

    auto running = [max_insts](const Processor &p) {
        return !p.done() && p.statsSoFar().retiredInsts < max_insts;
    };
    while (running(a) || running(b)) {
        if (running(a) != running(b)) {
            std::ostringstream os;
            os << "runs ended at different cycles (a done="
               << (running(a) ? 0 : 1) << ", b done="
               << (running(b) ? 0 : 1) << " at cycle " << a.now() << ")";
            return os.str();
        }
        a.step();
        b.step();
        const StatDict da = harness::statsToDict(a.statsSoFar());
        const StatDict db = harness::statsToDict(b.statsSoFar());
        if (da != db) {
            std::ostringstream os;
            os << "first divergence at cycle " << a.now() << ":"
               << describeDrift(da, db);
            return os.str();
        }
    }
    return "";
}

/** Bisect a replay point against its live twin in lockstep. */
std::string
bisectLiveVsReplay(const harness::SweepPoint &p)
{
    ProcessorConfig cfg = ProcessorConfig::forModel(p.model);
    cfg.verifyRetirement = p.verify;
    replay::TraceStore store(p.traceDir);
    auto reader =
        store.ensure(p.workload, p.seed, p.scale, p.maxInsts).reader;
    const std::string msg = lockstepDivergence(
        reader->program(), cfg, nullptr, cfg, reader, p.maxInsts);
    if (msg.empty()) {
        // The lockstep comparison sees statsSoFar(), which excludes
        // the component counters (caches, frontend) Processor::run()
        // folds in at the very end.
        return "no per-cycle counter divergence; the drift is confined "
               "to the end-of-run component folds (cache/frontend "
               "counters copied by Processor::run)";
    }
    return msg;
}

/** Run one explicit configuration; a panic or watchdog bark becomes a
 *  test failure carrying the diagnostic instead of aborting the
 *  binary. */
::testing::AssertionResult
runCaptured(const Program &prog, const ProcessorConfig &cfg,
            uint64_t max_insts, StatDict &out)
{
    try {
        ScopedErrorCapture capture;
        out = harness::statsToDict(runConfig(prog, cfg, max_insts));
    } catch (const std::exception &e) {
        return ::testing::AssertionFailure() << e.what();
    }
    return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------
// The golden grid: 8 workloads x 2 models x {live, replay}.
// ---------------------------------------------------------------------

using GridParam = std::tuple<const char *, const char *, const char *>;

class GoldenGrid : public ::testing::TestWithParam<GridParam>
{};

TEST_P(GoldenGrid, MatchesStatsSnapshot)
{
    auto [wl, model, mode] = GetParam();
    const bool replay = std::string(mode) == "replay";

    harness::SweepPoint p;
    p.workload = wl;
    p.model = model;
    p.seed = 1;
    p.maxInsts = 20000;
    p.verify = true;
    if (replay)
        p.traceDir = goldenDir + "/traces";

    const auto r = harness::SweepEngine::runPoint(p);
    ASSERT_TRUE(r.ok) << r.error;
    const auto verdict =
        matchesSnapshot(goldenDir + "/stats/" + harness::goldenFileName(p),
                        harness::statsToDict(r.stats));
    if (verdict)
        return;
    if (replay)
        ADD_FAILURE() << verdict.message()
                      << "\n  live vs replay: " << bisectLiveVsReplay(p);
    else
        ADD_FAILURE() << verdict.message();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GoldenGrid,
    ::testing::Combine(::testing::Values("compress", "gcc", "go", "jpeg",
                                         "li", "m88ksim", "perl",
                                         "vortex"),
                       ::testing::Values("base", "FG+MLB-RET"),
                       ::testing::Values("live", "replay")),
    [](const ::testing::TestParamInfo<GridParam> &param_info) {
        const GridParam &g = param_info.param;
        std::string s = std::string(std::get<0>(g)) + "_" +
            std::get<1>(g) + "_" + std::get<2>(g);
        for (char &c : s) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return s;
    });

// ---------------------------------------------------------------------
// The corpus: machine shapes outside the two reference configurations.
// ---------------------------------------------------------------------

TEST(GoldenCorpus, OddMachineShapes)
{
    // One-PE machines and non-power-of-two PE counts. (Buses stay at
    // Table-1 defaults; starved buses are the random shapes' job.)
    Workload w = makeWorkload("go", 3, 0.005);
    for (int pes : {1, 2, 3, 5, 16}) {
        ProcessorConfig cfg = ProcessorConfig::forModel("FG+MLB-RET");
        cfg.numPEs = pes;
        StatDict fresh;
        ASSERT_TRUE(runCaptured(w.program, cfg, 6000, fresh))
            << pes << " PEs";
        EXPECT_TRUE(matchesSnapshot(goldenDir + "/corpus/shape_" +
                                        std::to_string(pes) + "pe.json",
                                    fresh));
    }
}

TEST(GoldenCorpus, RandomMachineShapes)
{
    // Random machine shapes on random workload/seed pairs must complete
    // (starved buses + short traces used to deadlock into the watchdog;
    // retirement now drains the head trace's queued broadcasts first)
    // and reproduce their frozen StatDicts. Seeded, so a failure
    // reproduces exactly.
    const char *wls[] = {"compress", "gcc", "go", "jpeg", "li",
                         "m88ksim", "perl", "vortex"};
    const char *models[] = {"base", "base(ntb)", "base(fg)",
                            "base(fg,ntb)", "RET", "MLB-RET", "FG",
                            "FG+MLB-RET"};
    Rng rng(0x5eedf00d);
    for (int round = 0; round < 20; ++round) {
        const char *wl = wls[rng.below(8)];
        const char *model = models[rng.below(8)];
        const uint64_t seed =
            static_cast<uint64_t>(rng.range(1, 1 << 20));
        ProcessorConfig cfg = ProcessorConfig::forModel(model);
        cfg.numPEs = static_cast<int>(1u << rng.below(5));  // 1..16
        cfg.issuePerPe = static_cast<int>(rng.range(1, 4));
        cfg.globalBuses = static_cast<int>(rng.range(1, 8));
        cfg.maxBusesPerPe =
            static_cast<int>(rng.range(1, cfg.globalBuses));
        cfg.cacheBuses = static_cast<int>(rng.range(1, 8));
        cfg.maxCacheBusesPerPe =
            static_cast<int>(rng.range(1, cfg.cacheBuses));
        const int len = static_cast<int>(rng.range(8, 32));
        cfg.selection.maxTraceLen = len;
        cfg.bit.maxTraceLen = len;
        // Keep the watchdog short: no sampled shape may need it, and a
        // reintroduced stall should fail this test fast.
        cfg.watchdogCycles = 20000;

        std::ostringstream id;
        id << "round " << round << " (" << wl << "/" << model
           << " seed " << seed << ", " << cfg.numPEs << " PEs, issue "
           << cfg.issuePerPe << ", buses " << cfg.globalBuses << "/"
           << cfg.cacheBuses << ", len " << len << ")";

        Workload w = makeWorkload(wl, seed, 0.01);
        StatDict fresh;
        ASSERT_TRUE(runCaptured(w.program, cfg, 8000, fresh)) << id.str();
        char file[32];
        std::snprintf(file, sizeof(file), "random_%02d.json", round);
        EXPECT_TRUE(matchesSnapshot(goldenDir + "/corpus/" + file, fresh))
            << id.str();
    }
}

TEST(GoldenCorpus, GeneratedWorkloads)
{
    // Two generated programs through the sweep engine, the path soak
    // and tproc-explore points take.
    for (const std::string name : {"gen:all:0", "gen:noisy+memory:4"}) {
        harness::SweepPoint p;
        p.workload = name;
        p.model = "FG+MLB-RET";
        p.seed = 7;
        p.maxInsts = 20000;
        const auto r = harness::SweepEngine::runPoint(p);
        ASSERT_TRUE(r.ok) << name << ": " << r.error;
        EXPECT_TRUE(matchesSnapshot(goldenDir + "/corpus/" +
                                        harness::goldenFileName(p),
                                    harness::statsToDict(r.stats)));
    }
}

// ---------------------------------------------------------------------
// The bisector itself.
// ---------------------------------------------------------------------

TEST(GoldenBisect, LiveAndReplayStayInLockstep)
{
    harness::SweepPoint p;
    p.workload = "compress";
    p.model = "base";
    p.maxInsts = 20000;
    p.traceDir = goldenDir + "/traces";
    EXPECT_NE(bisectLiveVsReplay(p).find("no per-cycle counter"),
              std::string::npos);
}

TEST(GoldenBisect, FindsAnInjectedDivergence)
{
    // Two configurations that legitimately differ (issue width) must
    // bisect to a concrete first cycle, proving the helper would name
    // the cycle if live and replay ever drifted apart.
    Workload w = makeWorkload("compress", 1, 0.01);
    ProcessorConfig a = ProcessorConfig::forModel("base");
    ProcessorConfig b = a;
    b.issuePerPe = 1;
    const std::string msg =
        lockstepDivergence(w.program, a, nullptr, b, nullptr, 8000);
    EXPECT_NE(msg.find("first divergence at cycle"), std::string::npos)
        << msg;
}

} // namespace

} // namespace tproc
