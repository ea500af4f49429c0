/**
 * @file
 * Synthetic-workload generator and soak-harness tests: name grammar and
 * error reporting, byte-identical program determinism (including across
 * processes), the live == replay oracle on generated programs, and the
 * capture-on-failure contract — an injected soak divergence must land
 * a verifiable .tpt plus a repro line, and the captured artifact must
 * actually replay.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/soak.hh"
#include "harness/sweep.hh"
#include "replay/trace_file.hh"
#include "workloads/generator.hh"
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

/** Order-independent digest of a Program: every Instruction field,
 *  the sorted data image, and the entry point (field-wise, never raw
 *  struct bytes — padding is indeterminate). Equal digests across
 *  processes prove the generator depends on nothing but its
 *  (name, seed, scale) inputs. */
uint64_t
programDigest(const Program &prog)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](const void *data, size_t n) {
        const auto *b = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const Instruction &in : prog.code) {
        mix(&in.op, sizeof(in.op));
        mix(&in.rd, sizeof(in.rd));
        mix(&in.rs1, sizeof(in.rs1));
        mix(&in.rs2, sizeof(in.rs2));
        mix(&in.imm, sizeof(in.imm));
    }
    const std::map<Addr, int64_t> sorted(prog.dataInit.begin(),
                                         prog.dataInit.end());
    for (const auto &kv : sorted) {
        mix(&kv.first, sizeof(kv.first));
        mix(&kv.second, sizeof(kv.second));
    }
    mix(&prog.entry, sizeof(prog.entry));
    return h;
}

} // anonymous namespace

TEST(Generator, NameGrammarRoundTrip)
{
    EXPECT_EQ(generatedName("all", 7), "gen:all:7");
    EXPECT_EQ(generatedName("fgci*3+loops", 0), "gen:fgci*3+loops:0");
    EXPECT_TRUE(isGeneratedName("gen:all:0"));
    EXPECT_FALSE(isGeneratedName("compress"));
    EXPECT_FALSE(isGeneratedName("genx:all:0"));

    EXPECT_NO_THROW(validateGeneratedName("gen:all:12"));
    EXPECT_NO_THROW(validateGeneratedName("gen:memory*2+steady:3"));
    EXPECT_THROW(validateGeneratedName("gen:all"),
                 UnknownWorkloadError);
    EXPECT_THROW(validateGeneratedName("gen:all:x"),
                 UnknownWorkloadError);
    EXPECT_THROW(validateGeneratedName("gen:nope:0"),
                 UnknownWorkloadError);
}

TEST(Generator, MixParserAcceptsWeightsRejectsTypos)
{
    const auto all = parsePatternMix("all");
    EXPECT_EQ(all.size(), builtinPatterns().size());

    const auto mix = parsePatternMix("fgci*3+loops");
    ASSERT_EQ(mix.size(), 2u);
    EXPECT_EQ(mix[0].pattern->name, "fgci");
    EXPECT_EQ(mix[0].weight, 3u);
    EXPECT_EQ(mix[1].pattern->name, "loops");
    EXPECT_EQ(mix[1].weight, 1u);

    EXPECT_THROW(parsePatternMix(""), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("nope"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci*0"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci*"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci*two"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci+"), UnknownWorkloadError);
}

TEST(Generator, OverflowingWeightAndIndexAreRejected)
{
    // Regression: all-digits inputs used to pre-pass the digit check
    // and then silently saturate through strtoull (weight ->
    // ULLONG_MAX corrupts the weighted draw; index -> wrong program).
    // The strict parsers reject the overflow outright.
    const std::string big = "99999999999999999999";     // > 2^64
    EXPECT_THROW(parsePatternMix("fgci*" + big), UnknownWorkloadError);
    EXPECT_THROW(validateGeneratedName("gen:fgci:" + big),
                 UnknownWorkloadError);
    validateGeneratedName("gen:fgci:18446744073709551615");    // 2^64-1
}

TEST(Generator, UnknownWorkloadErrorListsTheMenu)
{
    try {
        (void)makeWorkload("bogus", 1, 1.0);
        FAIL() << "expected UnknownWorkloadError";
    } catch (const UnknownWorkloadError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("compress"), std::string::npos) << msg;
        EXPECT_NE(msg.find("gen:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("fgci"), std::string::npos) << msg;
    }
}

TEST(Generator, SameNameSeedScaleIsByteIdentical)
{
    for (const std::string name :
         {"gen:all:0", "gen:all:13", "gen:fgci*3+loops:2",
          "gen:memory:5"}) {
        const Workload a = makeWorkload(name, 7, 1.0);
        const Workload b = makeWorkload(name, 7, 1.0);
        ASSERT_EQ(a.program.code.size(), b.program.code.size()) << name;
        // Element-wise: Instruction::operator== compares every field
        // (raw memcmp would read indeterminate struct padding).
        EXPECT_TRUE(a.program.code == b.program.code) << name;
        EXPECT_EQ(a.program.dataInit, b.program.dataInit) << name;
        EXPECT_EQ(a.program.entry, b.program.entry) << name;
        EXPECT_EQ(a.maxInsts, b.maxInsts) << name;

        // Different seed or index must actually change the program —
        // otherwise the determinism test above proves nothing.
        const Workload c = makeWorkload(name, 8, 1.0);
        EXPECT_NE(programDigest(a.program), programDigest(c.program))
            << name;
    }
    EXPECT_NE(programDigest(makeWorkload("gen:all:0", 7, 1.0).program),
              programDigest(makeWorkload("gen:all:1", 7, 1.0).program));
}

TEST(Generator, ByteIdenticalAcrossProcesses)
{
    const std::string name = "gen:all:3";
    const uint64_t here =
        programDigest(makeWorkload(name, 7, 1.0).program);

    // A forked child rebuilds the program in a fresh process and ships
    // its digest back: equality rules out any dependence on this
    // process's address-space layout or allocation history.
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        const uint64_t h =
            programDigest(makeWorkload(name, 7, 1.0).program);
        const ssize_t n = write(fds[1], &h, sizeof(h));
        _exit(n == sizeof(h) ? 0 : 1);
    }
    close(fds[1]);
    uint64_t there = 0;
    ASSERT_EQ(read(fds[0], &there, sizeof(there)),
              static_cast<ssize_t>(sizeof(there)));
    close(fds[0]);
    EXPECT_EQ(here, there);
}

TEST(Generator, GeneratedPointsPassStandingOracles)
{
    TempDir store("gen-oracle-store");
    for (const std::string name : {"gen:all:0", "gen:noisy+memory:4"}) {
        harness::SweepPoint base;
        base.workload = name;
        base.model = "FG+MLB-RET";
        base.seed = 7;
        base.maxInsts = 20000;
        base.verify = true;

        // (test_golden pins these live runs to corpus snapshots.)
        const auto live = harness::SweepEngine::runPoint(base);
        ASSERT_TRUE(live.ok) << name << ": " << live.error;

        // Oracle: live == replay-from-capture, bit for bit (the first
        // run records into the store, the second replays the file).
        harness::SweepPoint rec = base;
        rec.traceDir = store.path();
        const auto recorded = harness::SweepEngine::runPoint(rec);
        ASSERT_TRUE(recorded.ok) << name << ": " << recorded.error;
        harness::SweepPoint rep = base;
        rep.traceDir = store.path();
        const auto replayed = harness::SweepEngine::runPoint(rep);
        ASSERT_TRUE(replayed.ok) << name << ": " << replayed.error;
        EXPECT_EQ(harness::statsToDict(live.stats),
                  harness::statsToDict(replayed.stats))
            << name;
    }
}

TEST(Generator, SoakCapturesInjectedFailureWithWorkingRepro)
{
    TempDir fail("soak-fail");
    TempDir scratch("soak-scratch");

    harness::SoakOptions opts;
    opts.mix = "fgci+steady";
    opts.seed = 11;
    opts.maxPoints = 2;
    opts.insts = 15000;
    opts.failureDir = fail.path();
    opts.scratchDir = scratch.path();
    opts.injectFailureAt = 1;

    const harness::SoakReport rep = harness::runSoak(opts);
    EXPECT_EQ(rep.points, 2u);
    ASSERT_EQ(rep.failures.size(), 1u);
    const harness::SoakFailure &f = rep.failures[0];
    EXPECT_EQ(f.index, 1u);
    EXPECT_EQ(f.kind, "injected");
    EXPECT_EQ(f.workload, "gen:fgci+steady:1");

    // The capture must be a verify-clean v2 container on disk.
    ASSERT_FALSE(f.tracePath.empty());
    ASSERT_TRUE(fs::exists(f.tracePath)) << f.tracePath;
    std::string err;
    replay::TraceInfo info;
    ASSERT_TRUE(replay::TraceReader::verify(f.tracePath, &err, &info))
        << err;
    EXPECT_EQ(info.meta.workload, f.workload);

    // The repro line names the exact point and the failure dir.
    EXPECT_NE(f.repro.find("tproc-sweep"), std::string::npos);
    EXPECT_NE(f.repro.find(f.workload), std::string::npos);
    EXPECT_NE(f.repro.find("--seed=11"), std::string::npos);
    EXPECT_NE(f.repro.find("--trace-dir=" + fail.path()),
              std::string::npos);

    // And the repro actually works: replaying the captured point from
    // the failure dir matches a live run bit for bit.
    harness::SweepPoint p;
    p.workload = f.workload;
    p.model = f.model;
    p.seed = f.seed;
    p.maxInsts = opts.insts;
    p.verify = true;
    harness::SweepPoint fromCapture = p;
    fromCapture.traceDir = fail.path();
    const auto replayed = harness::SweepEngine::runPoint(fromCapture);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    harness::SweepPoint liveAgain = p;
    const auto live = harness::SweepEngine::runPoint(liveAgain);
    ASSERT_TRUE(live.ok) << live.error;
    EXPECT_EQ(harness::statsToDict(live.stats),
              harness::statsToDict(replayed.stats));
}

TEST(Generator, SoakCleanRunTouchesNoFailureDir)
{
    TempDir root("soak-clean");
    const std::string failDir = root.path() + "/failures";

    harness::SoakOptions opts;
    opts.mix = "steady";
    opts.seed = 3;
    opts.maxPoints = 1;
    opts.insts = 8000;
    opts.failureDir = failDir;
    opts.scratchDir = root.path() + "/store";

    const harness::SoakReport rep = harness::runSoak(opts);
    EXPECT_EQ(rep.points, 1u);
    EXPECT_TRUE(rep.failures.empty());
    EXPECT_FALSE(fs::exists(failDir));
}

} // namespace tproc
