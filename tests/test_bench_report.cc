/**
 * @file
 * Bench-report contract tests: BENCH_*.json schema presence, the sweep
 * grid block and its identity gates, JSON round-trip through the
 * common parser/printer, non-timing determinism across runs, options
 * recovery from a report, baseline attachment, and the BenchOptions
 * flag parser + StatDict counter handles that front the redesigned
 * bench API.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "common/stats.hh"
#include "harness/bench_report.hh"

namespace tproc
{

namespace
{

harness::BenchReportOptions
tinyOptions()
{
    harness::BenchReportOptions opts;
    opts.insts = 1500;          // enough to retire traces everywhere
    opts.seed = 1;
    opts.model = "base";
    opts.reps = 1;
    opts.benchIndex = 99;
    opts.verify = true;
    return opts;
}

/** The report is expensive enough to share across schema tests. */
const JsonValue &
tinyReport()
{
    static const JsonValue report = harness::runBenchReport(tinyOptions(),
                                                            nullptr);
    return report;
}

} // anonymous namespace

TEST(BenchReport, SchemaFieldsPresent)
{
    const JsonValue &r = tinyReport();
    ASSERT_TRUE(r.find("schema"));
    EXPECT_EQ(r.at("schema").asString(), "tproc-bench-report-v1");
    for (const char *key :
         {"bench_index", "config", "host", "workloads", "replay", "sweep",
          "trace_compression", "summary", "identity"}) {
        EXPECT_TRUE(r.find(key)) << "missing top-level key: " << key;
    }

    const JsonValue &cfg = r.at("config");
    EXPECT_EQ(cfg.at("insts").asNumber(), 1500.0);
    EXPECT_EQ(cfg.at("model").asString(), "base");

    const auto &workloads = r.at("workloads").asArray();
    ASSERT_FALSE(workloads.empty());
    double cycle_sum = 0.0;
    for (const JsonValue &w : workloads) {
        for (const char *key : {"name", "cycles", "retired_insts", "ipc",
                                "wall_seconds", "cycles_per_sec"}) {
            EXPECT_TRUE(w.find(key)) << "missing workload key: " << key;
        }
        cycle_sum += w.at("cycles").asNumber();
    }
    EXPECT_EQ(r.at("summary").at("total_cycles").asNumber(), cycle_sum);

    const JsonValue &identity = r.at("identity");
    for (const char *key : {"stats_stable_across_reps", "replay_identical",
                            "sweep_parallel_identical"}) {
        ASSERT_TRUE(identity.find(key));
        EXPECT_TRUE(identity.at(key).asBool())
            << "identity gate not green: " << key;
    }
}

TEST(BenchReport, SweepGridCoversBothModels)
{
    const JsonValue &r = tinyReport();
    const JsonValue &sweep = r.at("sweep");
    const double workloads =
        static_cast<double>(r.at("workloads").asArray().size());
    EXPECT_EQ(sweep.at("points").asNumber(), 2 * workloads);
    const auto &models = sweep.at("models").asArray();
    ASSERT_EQ(models.size(), 2u);
    EXPECT_EQ(models[0].asString(), "base");
    EXPECT_EQ(models[1].asString(), "FG+MLB-RET");
    EXPECT_GE(r.at("host").at("sweep_threads").asNumber(), 1.0);

    // Only the grid's shape survives into the non-timing view: its
    // wall clocks, rates and thread count differ between hosts.
    JsonValue view = harness::benchNonTimingView(r);
    const auto &members = view.at("sweep").asObject();
    ASSERT_EQ(members.size(), 2u);
    EXPECT_EQ(members[0].first, "points");
    EXPECT_EQ(members[1].first, "models");
    EXPECT_FALSE(view.find("host"));
    EXPECT_FALSE(view.at("replay").find("cold_seconds"));
}

TEST(BenchReport, FlippedSweepGateIsADiff)
{
    // JsonValue is append-only, so flip the gate in the serialized text.
    std::ostringstream os;
    writeJson(os, tinyReport());
    std::string text = os.str();
    const std::string gate = "\"sweep_parallel_identical\": true";
    const size_t at = text.find(gate);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, gate.size(), "\"sweep_parallel_identical\": false");
    std::vector<std::string> diffs =
        harness::diffBenchReports(tinyReport(), parseJson(text));
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].find("sweep_parallel_identical"), std::string::npos)
        << diffs[0];
}

TEST(BenchReport, JsonRoundTripPreservesEverything)
{
    const JsonValue &r = tinyReport();
    std::ostringstream os;
    writeJson(os, r);
    JsonValue back = parseJson(os.str());
    EXPECT_TRUE(harness::diffBenchReports(r, back).empty());

    // And the round trip of the round trip is textually identical.
    std::ostringstream os2;
    writeJson(os2, back);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(BenchReport, NonTimingFieldsDeterministicAcrossRuns)
{
    JsonValue again = harness::runBenchReport(tinyOptions(), nullptr);
    std::vector<std::string> diffs =
        harness::diffBenchReports(tinyReport(), again);
    for (const std::string &d : diffs)
        ADD_FAILURE() << "non-timing divergence: " << d;

    // Timing fields must be excluded from the comparison view: wall
    // clocks differ between runs, yet the diff above is empty.
    JsonValue view = harness::benchNonTimingView(again);
    EXPECT_FALSE(view.at("summary").find("total_wall_seconds"));
    EXPECT_FALSE(view.at("summary").find("cycles_per_sec"));
    EXPECT_TRUE(view.at("summary").find("total_cycles"));
}

TEST(BenchReport, OptionsRecoverableFromReport)
{
    harness::BenchReportOptions opts =
        harness::optionsFromReport(tinyReport());
    EXPECT_EQ(opts.insts, 1500u);
    EXPECT_EQ(opts.seed, 1u);
    EXPECT_EQ(opts.model, "base");
    EXPECT_EQ(opts.reps, 1);
    EXPECT_EQ(opts.benchIndex, 99u);
}

TEST(BenchReport, AttachBaselineComputesSpeedup)
{
    JsonValue report = tinyReport();    // copy
    harness::attachBaseline(report, tinyReport(), "self");
    ASSERT_TRUE(report.find("baseline"));
    const JsonValue &b = report.at("baseline");
    EXPECT_EQ(b.at("label").asString(), "self");
    EXPECT_DOUBLE_EQ(b.at("speedup_cycles_per_sec").asNumber(), 1.0);

    // The baseline block is timing-derived; it must not leak into the
    // non-timing comparison view.
    EXPECT_FALSE(harness::benchNonTimingView(report).find("baseline"));
}

TEST(BenchOptions, FlagsOverrideDefaults)
{
    bench::BenchOptions opts;
    std::vector<std::string> raw = {"prog",        "--insts=1234",
                                    "--seed=7",    "--threads=3",
                                    "--no-verify", "--json=out.json"};
    std::vector<char *> argv;
    for (std::string &s : raw)
        argv.push_back(s.data());
    auto err = bench::parseBenchArgsInto(
        opts, static_cast<int>(argv.size()), argv.data(), nullptr);
    ASSERT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(opts.insts, 1234u);
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_EQ(opts.threads, 3u);
    EXPECT_FALSE(opts.verify);
    EXPECT_EQ(opts.json, "out.json");
}

TEST(BenchOptions, UnknownFlagRejectedPassthroughCollected)
{
    bench::BenchOptions opts;
    std::vector<std::string> raw = {"prog", "--bogus=1"};
    std::vector<char *> argv;
    for (std::string &s : raw)
        argv.push_back(s.data());
    auto err = bench::parseBenchArgsInto(
        opts, static_cast<int>(argv.size()), argv.data(), nullptr);
    EXPECT_TRUE(err.has_value());

    // --no-verify is the only verify flag and the drivers never retry
    // a point, so neither spelling below is accepted.
    for (std::string flag : {"--verify=0", "--retries=1"}) {
        bench::BenchOptions fresh;
        char *one[] = {raw[0].data(), flag.data()};
        EXPECT_TRUE(
            bench::parseBenchArgsInto(fresh, 2, one, nullptr).has_value())
            << flag;
    }

    // With a passthrough list the unknown flag is forwarded instead
    // (micro_components hands Google-Benchmark flags through this way).
    bench::BenchOptions opts2;
    std::vector<std::string> fwd;
    std::vector<std::string> raw2 = {"prog", "--insts=5", "--bogus=1"};
    std::vector<char *> argv2;
    for (std::string &s : raw2)
        argv2.push_back(s.data());
    auto err2 = bench::parseBenchArgsInto(
        opts2, static_cast<int>(argv2.size()), argv2.data(), &fwd);
    ASSERT_FALSE(err2.has_value()) << *err2;
    EXPECT_EQ(opts2.insts, 5u);
    ASSERT_EQ(fwd.size(), 1u);
    EXPECT_EQ(fwd[0], "--bogus=1");
}

TEST(StatDictCounter, HandleBumpsMatchNamedOps)
{
    StatDict byName, byHandle;
    byName.inc("cycles", 3);
    byName.inc("cycles");
    byName.set("insts", 10);

    StatDict::Counter cycles = byHandle.counter("cycles");
    StatDict::Counter insts = byHandle.counter("insts");
    cycles += 3;
    ++cycles;
    insts = 10;
    EXPECT_EQ(byName, byHandle);
    EXPECT_EQ(cycles.value(), 4.0);
    EXPECT_EQ(cycles.name(), "cycles");
    EXPECT_TRUE(cycles.valid());
    EXPECT_FALSE(StatDict::Counter().valid());
}

TEST(StatDictCounter, HandlesSurviveLaterInsertions)
{
    StatDict d;
    StatDict::Counter a = d.counter("a");
    // Grow the dict enough to force rehashes/reallocations.
    for (int i = 0; i < 200; ++i)
        d.inc("k" + std::to_string(i));
    a += 5;
    EXPECT_EQ(d.get("a"), 5.0);
}

} // namespace tproc
