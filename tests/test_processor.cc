/**
 * @file
 * End-to-end processor tests: small programs run to completion on every
 * model with golden-model retirement verification enabled. Any control
 * or data mis-repair panics inside the simulator, so "it finishes" is a
 * strong statement.
 */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "program/builder.hh"
#include "workloads/patterns.hh"
#include "workloads/workloads.hh"

namespace tproc
{
namespace
{

Program
straightLine(int n)
{
    ProgramBuilder b("straight");
    b.li(3, 1);
    for (int i = 0; i < n; ++i)
        b.addi(3, 3, 1);
    b.halt();
    return b.finish();
}

Program
countedLoop(int iters, int body)
{
    ProgramBuilder b("loop");
    b.li(3, iters);
    b.li(4, 0);
    auto top = b.newLabel();
    b.bind(top);
    for (int i = 0; i < body; ++i)
        b.addi(4, 4, 1);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    return b.finish();
}

/** Hammock whose branch alternates every iteration: worst case for the
 *  2-bit counters, lots of mispredictions. */
Program
alternatingHammock(int iters)
{
    ProgramBuilder b("althammock");
    b.li(3, iters);
    b.li(4, 0);     // parity
    b.li(5, 0);     // accumulator
    auto top = b.newLabel();
    b.bind(top);
    b.andi(6, 3, 1);
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.bne(6, 0, then_lab);
    b.addi(5, 5, 1);
    b.addi(5, 5, 1);
    b.jmp(join);
    b.bind(then_lab);
    b.xori(5, 5, 7);
    b.bind(join);
    b.addi(4, 4, 3);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    return b.finish();
}

/** Loop with data-dependent exit + memory traffic + calls. */
Program
mixed(uint64_t seed, int iters)
{
    ProgramBuilder b("mixed");
    Rng rng(seed);
    PatternContext cx(b, rng, 1 << 20);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 3, 0.8);
    b.bind(start);

    b.li(PatternContext::idx, 0);
    b.li(PatternContext::acc, 0);
    b.li(PatternContext::cnt, iters);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(PatternContext::idx, PatternContext::idx, 1);
    HammockOpts o;
    o.takenBias = 0.7;
    kHammock(cx, PatternContext::out(0), PatternContext::out(1), o);
    kInnerLoop(cx, PatternContext::out(2), 4, 2);
    kCall(cx, leaf);
    kMemOps(cx, PatternContext::out(3), 256, 1);
    b.addi(PatternContext::cnt, PatternContext::cnt, -1);
    b.bne(PatternContext::cnt, 0, top);
    b.halt();
    return b.finish();
}

const char *const allModels[] = {
    "base", "base(ntb)", "base(fg)", "base(fg,ntb)",
    "RET", "MLB-RET", "FG", "FG+MLB-RET",
};

} // anonymous namespace

TEST(Processor, StraightLineRetiresEverything)
{
    Program p = straightLine(300);
    ProcessorStats s = runModel(p, "base");
    EXPECT_EQ(s.retiredInsts, 302u);    // li + 300 addi + halt
    // Cold code constructs every trace from the instruction cache, so
    // IPC is fetch-bound here; the loop tests exercise the warm path.
    EXPECT_GT(s.ipc(), 0.5);
    EXPECT_EQ(s.mispEvents, 0u);
}

TEST(Processor, CountedLoopCompletes)
{
    Program p = countedLoop(200, 6);
    ProcessorStats s = runModel(p, "base");
    EXPECT_EQ(s.retiredInsts, 2u + 200u * 8u + 1u);
    EXPECT_GT(s.ipc(), 1.0);
}

TEST(Processor, AlternatingHammockSurvivesMispredictions)
{
    Program p = alternatingHammock(300);
    ProcessorStats s = runModel(p, "base");
    // The path-based trace predictor learns part of the alternation, but
    // mispredictions remain.
    EXPECT_GT(s.mispEvents, 10u);
    EXPECT_GT(s.retiredInsts, 2000u);
}

class AllModels : public ::testing::TestWithParam<const char *>
{};

TEST_P(AllModels, AlternatingHammock)
{
    Program p = alternatingHammock(300);
    ProcessorStats s = runModel(p, GetParam());
    EXPECT_GT(s.retiredInsts, 2000u);
}

TEST_P(AllModels, MixedProgramVerifies)
{
    Program p = mixed(42, 120);
    ProcessorStats s = runModel(p, GetParam());
    EXPECT_GT(s.retiredInsts, 1000u);
    EXPECT_GT(s.ipc(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Models, AllModels, ::testing::ValuesIn(allModels));

TEST(Processor, FgModelExploitsFgci)
{
    Program p = alternatingHammock(400);
    ProcessorStats base = runModel(p, "base");
    ProcessorStats fg = runModel(p, "FG");
    EXPECT_GT(fg.recoveriesFgci, 0u);
    // FGCI should preserve traces across these hammock mispredictions.
    EXPECT_GT(fg.tracesPreserved, 0u);
    // And it should not be slower than base by much (usually faster).
    EXPECT_GT(fg.ipc(), base.ipc() * 0.9);
}

TEST(Processor, IssueProbesOnlyLocallyReadySlots)
{
    // Operand wakeup: the issue walk visits only un-issued slots whose
    // in-trace producers have completed, so the register-file probe is
    // paid a few times per issue, not once per waiting slot per cycle
    // (a full slot scan made ~20 probes per issued slot here).
    Workload w = makeWorkload("jpeg", 1);
    ProcessorConfig cfg = ProcessorConfig::forModel("base");
    Processor p(w.program, cfg);
    p.run(100000);
    const SchedWork &sw = p.schedWork();
    ASSERT_GT(sw.issuedSlots, 100000u);
    EXPECT_LE(sw.operandProbes, 3 * sw.issuedSlots)
        << "probes per issued slot: " << sw.probesPerIssue();
    EXPECT_LE(sw.issuedSlots, sw.operandProbes);
    EXPECT_LE(sw.operandProbes, sw.issueCandidates);
    // Every retired slot completed at least once, and only the
    // completion walk completes slots.
    EXPECT_GE(sw.completionVisits, p.statsSoFar().retiredInsts);
}

TEST(Processor, DependencesAreDerivedOncePerCachedTrace)
{
    // Selection pre-renames a trace once, when it is built and the
    // trace cache does not already hold its identity; dispatch and
    // repairs that re-select a cached trace derive nothing.
    Workload w = makeWorkload("compress", 1);
    Processor p(w.program, ProcessorConfig::forModel("FG+MLB-RET"));
    const ProcessorStats &s = p.run(50000);
    ASSERT_GT(s.condMispEvents, 0u);
    const uint64_t derived = p.schedWork().depAnalyses;
    EXPECT_GT(derived, 0u);
    EXPECT_LE(derived, s.constructions + s.condMispEvents);
    EXPECT_LT(8 * derived, s.dispatchedTraces + s.condMispEvents);
}

TEST(Processor, SetupWorkGrowsWithTouchedStateNotCapacity)
{
    // The Table 1 machine: the trace predictor, the BTB and the BIT
    // initialise only their 128-word valid bitmaps and the register file
    // only its zero register, so the three 1K-line caches dominate.
    // Initialising every predictor entry and pre-filling the free stack
    // made this 289,791; an eager BTB (16K) and BIT (8K) made it 27,905.
    // The committed memory pages its image in on first touch: nothing
    // at construction, and after 100k instructions 4,096 of jpeg's
    // 36,864 image words (8 of 72 pages) where a dense window used to
    // copy all of them up front.
    Workload w = makeWorkload("jpeg", 1);
    Processor p(w.program, ProcessorConfig::forModel("base"));
    SetupWork sw = p.setupWork();
    EXPECT_EQ(sw.windowWords, w.program.dataInit.size());
    EXPECT_EQ(sw.overflowWords, 0u);
    EXPECT_EQ(sw.pagedWords, 0u);
    EXPECT_EQ(sw.tableEntries, 2 * 128 + 1 + 128 + 3 * 1024 + 128);
    p.run(100000);
    sw = p.setupWork();
    EXPECT_EQ(sw.windowWords, 36864u);
    EXPECT_EQ(sw.pagedWords, 4096u);
}

} // namespace tproc
