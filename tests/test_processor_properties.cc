/**
 * @file
 * Whole-processor property tests: every workload x every model runs a
 * verified slice (golden-model retirement checking panics on any control
 * or data mis-repair); invariants hold at checkpoints; all models retire
 * the same instruction counts for the same program (architectural
 * equivalence); statistics are internally consistent. Random machine
 * shapes are pinned by the golden corpus (test_golden.cc).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/processor.hh"
#include "core/runner.hh"
#include "workloads/workloads.hh"

namespace tproc
{

namespace
{
constexpr uint64_t sliceInsts = 60000;
}

class WorkloadModel
    : public ::testing::TestWithParam<
          std::tuple<const char *, const char *>>
{};

TEST_P(WorkloadModel, VerifiedSlice)
{
    auto [wl, model] = GetParam();
    Workload w = makeWorkload(wl, 1);
    ProcessorConfig cfg = ProcessorConfig::forModel(model);

    Processor p(w.program, cfg);
    // Step manually so invariants can be checked along the way.
    uint64_t next_check = 5000;
    while (!p.done() && p.statsSoFar().retiredInsts < sliceInsts) {
        p.step();
        if (p.statsSoFar().retiredInsts >= next_check) {
            p.checkInvariants();
            next_check += 5000;
        }
    }
    const ProcessorStats &s = p.statsSoFar();
    EXPECT_GE(s.retiredInsts, sliceInsts);
    EXPECT_GT(s.ipc(), 0.5);

    // Consistency: retired instructions live in retired traces.
    EXPECT_EQ(s.retiredTraceLenSum, s.retiredInsts);
    EXPECT_GE(s.dispatchedTraces,
              s.retiredTraces - 0 /* in-flight remainder is extra */);
    EXPECT_GE(s.avgRetiredTraceLen(), 1.0);
    EXPECT_LE(s.avgRetiredTraceLen(), 32.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WorkloadModel,
    ::testing::Combine(
        ::testing::Values("compress", "gcc", "go", "jpeg", "li",
                          "m88ksim", "perl", "vortex"),
        ::testing::Values("base", "base(ntb)", "base(fg)", "base(fg,ntb)",
                          "RET", "MLB-RET", "FG", "FG+MLB-RET")));

TEST(ProcessorProperties, AllModelsRetireIdenticalStreams)
{
    // Architectural equivalence: for a program run to completion, every
    // model retires exactly the same number of instructions (the stream
    // itself is checked against the golden emulator inside the run).
    Workload w = makeWorkload("compress", 2, 0.01);
    uint64_t expected = 0;
    for (const char *m : {"base", "base(fg,ntb)", "RET", "MLB-RET", "FG",
                          "FG+MLB-RET"}) {
        ProcessorStats s = runModel(w.program, m);
        if (!expected)
            expected = s.retiredInsts;
        EXPECT_EQ(s.retiredInsts, expected) << m;
    }
}

TEST(ProcessorProperties, SeedsChangeDataNotCorrectness)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        Workload w = makeWorkload("go", seed, 0.01);
        ProcessorStats s = runModel(w.program, "FG+MLB-RET");
        EXPECT_GT(s.retiredInsts, 10000u);
    }
}

TEST(ProcessorProperties, DeterministicRuns)
{
    Workload w = makeWorkload("li", 4, 0.01);
    ProcessorStats a = runModel(w.program, "MLB-RET");
    ProcessorStats b = runModel(w.program, "MLB-RET");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredInsts, b.retiredInsts);
    EXPECT_EQ(a.mispEvents, b.mispEvents);
    EXPECT_EQ(a.cgciReconverged, b.cgciReconverged);
}

TEST(ProcessorProperties, SmallMachineStillCorrect)
{
    // Shrink everything: 2 PEs, short traces, tiny caches and buses.
    Workload w = makeWorkload("compress", 5, 0.005);
    ProcessorConfig cfg = ProcessorConfig::forModel("FG+MLB-RET");
    cfg.numPEs = 2;
    cfg.selection.maxTraceLen = 8;
    cfg.bit.maxTraceLen = 8;
    cfg.issuePerPe = 1;
    cfg.globalBuses = 2;
    cfg.maxBusesPerPe = 1;
    cfg.cacheBuses = 2;
    cfg.maxCacheBusesPerPe = 1;
    cfg.tcache.sizeBytes = 8 * 1024;
    cfg.icache.sizeBytes = 4 * 1024;
    cfg.dcache.sizeBytes = 4 * 1024;
    ProcessorStats s = runConfig(w.program, cfg);
    EXPECT_GT(s.retiredInsts, 5000u);
}

TEST(ProcessorProperties, WatchdogRaisesStructuredError)
{
    // Starve the machine of forward progress on purpose (a watchdog
    // threshold of 1 cycle fires before the first trace can retire) and
    // check the structured error: typed, field-carrying, and stamped
    // with the identity a harness set. This is the contract sweep fault
    // isolation and soak capture-on-failure rely on.
    Workload w = makeWorkload("compress", 1, 0.01);
    ProcessorConfig cfg = ProcessorConfig::forModel("base");
    cfg.watchdogCycles = 1;
    Processor p(w.program, cfg);
    p.setIdentity("workload=compress seed=1 model=base");
    try {
        ScopedErrorCapture capture;
        p.run(1000);
        FAIL() << "watchdog never fired";
    } catch (const WatchdogError &e) {
        EXPECT_GT(e.cycle, 1u);
        EXPECT_GT(e.stalledCycles, 1u);
        EXPECT_EQ(e.identity, "workload=compress seed=1 model=base");
        EXPECT_NE(std::string(e.what()).find("watchdog"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("workload=compress"),
                  std::string::npos);
    }
}

TEST(ProcessorProperties, SingleIssueWidePeSweep)
{
    // PE-count sweep preserves correctness and total work.
    Workload w = makeWorkload("jpeg", 6, 0.005);
    uint64_t expected = 0;
    for (int pes : {1, 2, 4, 8, 16}) {
        ProcessorConfig cfg = ProcessorConfig::forModel("base");
        cfg.numPEs = pes;
        ProcessorStats s = runConfig(w.program, cfg);
        if (!expected)
            expected = s.retiredInsts;
        EXPECT_EQ(s.retiredInsts, expected) << pes << " PEs";
    }
}

} // namespace tproc
