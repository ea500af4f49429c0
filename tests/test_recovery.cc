/**
 * @file
 * Targeted recovery-machinery tests: FGCI repair preserves trace
 * boundaries and later traces; CGCI re-converges on loop exits; the
 * models exploit exactly the mechanisms they claim; and a seed-sweep
 * property test runs every model on randomized programs with golden
 * verification (any control or data mis-repair panics).
 */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "workloads/patterns.hh"
#include "workloads/workloads.hh"

namespace tproc
{
namespace
{

/** Noisy hammock followed by control independent work, in a loop. */
Program
fgciProgram(uint64_t seed, int iters)
{
    ProgramBuilder b("fgci");
    Rng rng(seed);
    PatternContext cx(b, rng, 1 << 20);
    b.li(PatternContext::idx, 0);
    b.li(PatternContext::cnt, iters);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(PatternContext::idx, PatternContext::idx, 1);
    HammockOpts o;
    o.takenBias = 0.6;      // very noisy
    kHammock(cx, PatternContext::out(0), PatternContext::out(1), o);
    kCompute(cx, PatternContext::out(2), 24);
    b.addi(PatternContext::cnt, PatternContext::cnt, -1);
    b.bne(PatternContext::cnt, regZero, top);
    b.halt();
    return b.finish();
}

/** Unpredictable loop exits followed by independent work. */
Program
cgciProgram(uint64_t seed, int iters)
{
    ProgramBuilder b("cgci");
    Rng rng(seed);
    PatternContext cx(b, rng, 1 << 20);
    b.li(PatternContext::idx, 0);
    b.li(PatternContext::cnt, iters);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(PatternContext::idx, PatternContext::idx, 1);
    kInnerLoop(cx, PatternContext::out(0), 6, 2);
    kCompute(cx, PatternContext::out(1), 24);
    b.addi(PatternContext::cnt, PatternContext::cnt, -1);
    b.bne(PatternContext::cnt, regZero, top);
    b.halt();
    return b.finish();
}

} // namespace

TEST(Recovery, FgModelUsesFgciOnHammocks)
{
    Program p = fgciProgram(11, 1500);
    ProcessorStats fg = runModel(p, "FG");
    ProcessorStats base = runModel(p, "base");

    EXPECT_GT(fg.recoveriesFgci, 100u);
    EXPECT_EQ(fg.recoveriesCgci, 0u);
    EXPECT_GT(fg.tracesPreserved, fg.recoveriesFgci);
    // FGCI recovery squashes far less than full squash.
    EXPECT_LT(fg.squashedInsts, base.squashedInsts / 2);
    // And it pays off on this shape.
    EXPECT_GT(fg.ipc(), base.ipc());
}

TEST(Recovery, BaseNeverPreservesTraces)
{
    Program p = fgciProgram(11, 800);
    ProcessorStats s = runModel(p, "base");
    EXPECT_EQ(s.recoveriesFgci, 0u);
    EXPECT_EQ(s.recoveriesCgci, 0u);
    EXPECT_GT(s.recoveriesFull, 0u);
    EXPECT_EQ(s.tracesPreserved, 0u);
    EXPECT_EQ(s.redispatchedTraces, 0u);
}

TEST(Recovery, MlbReconvergesOnLoopExits)
{
    Program p = cgciProgram(13, 1200);
    ProcessorStats mlb = runModel(p, "MLB-RET");
    ProcessorStats base = runModel(p, "base");

    EXPECT_GT(mlb.recoveriesCgci, 50u);
    EXPECT_GT(mlb.cgciReconverged, mlb.recoveriesCgci / 4);
    EXPECT_GT(mlb.tracesPreserved, 0u);
    EXPECT_GT(mlb.ipc(), base.ipc());
}

TEST(Recovery, RetHeuristicFindsReturns)
{
    // Calls with a noisy branch inside the callee: RET assumes the trace
    // after the return is control independent.
    ProgramBuilder b("ret");
    Rng rng(17);
    PatternContext cx(b, rng, 1 << 20);
    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 3, 0.6);  // noisy hammock in the leaf
    b.bind(start);
    b.li(PatternContext::idx, 0);
    b.li(PatternContext::cnt, 1200);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(PatternContext::idx, PatternContext::idx, 1);
    kCall(cx, leaf);
    kCompute(cx, PatternContext::out(0), 20);
    b.addi(PatternContext::cnt, PatternContext::cnt, -1);
    b.bne(PatternContext::cnt, regZero, top);
    b.halt();
    Program p = b.finish();

    ProcessorStats ret = runModel(p, "RET");
    EXPECT_GT(ret.recoveriesCgci, 20u);
    EXPECT_GT(ret.cgciReconverged, 0u);
}

TEST(Recovery, SelectiveReissueHappens)
{
    // Data-dependent consumer after the hammock: register repair must
    // reissue it rather than squash.
    Program p = fgciProgram(19, 1000);
    ProcessorStats fg = runModel(p, "FG");
    EXPECT_GT(fg.reissuedSlots, 0u);
}

TEST(Recovery, SlotMasksHoldEveryCycle)
{
    // Recovery-heavy workloads on the full CI model: dispatch, FGCI
    // repair, CGCI insertion, redispatch and squash all rewrite slot
    // state, and the scheduling masks must stay a partition of the
    // slots and track the renamed dependences through every one of
    // them. jpeg and go at 64 fill the masks to their last bit, go
    // with misprediction-heavy repair.
    const std::pair<const char *, int> cases[] = {
        {"go", 32}, {"compress", 32}, {"jpeg", 64}, {"go", 64}};
    for (const auto &[wl, len] : cases) {
        SCOPED_TRACE(std::string(wl) + " maxTraceLen=" +
                     std::to_string(len));
        Workload w = makeWorkload(wl, 1);
        ProcessorConfig cfg = ProcessorConfig::forModel("FG+MLB-RET");
        cfg.selection.maxTraceLen = cfg.bit.maxTraceLen = len;
        Processor p(w.program, cfg);
        while (!p.done() && p.statsSoFar().retiredInsts < 40000) {
            p.step();
            p.checkInvariants();
        }
        const ProcessorStats &s = p.statsSoFar();
        EXPECT_GT(s.recoveriesFgci, 0u);
        EXPECT_GT(s.redispatchedTraces, 0u);
        EXPECT_GT(s.reissuedSlots, 0u);
    }
}

/** Seed sweep: every model, randomized mixed programs, full golden
 *  verification. */
class RecoverySweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, const char *>>
{};

TEST_P(RecoverySweep, VerifiedExecution)
{
    auto [seed, model] = GetParam();
    ProgramBuilder b("sweep");
    Rng rng(seed);
    PatternContext cx(b, rng, 1 << 20);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 3, 0.7);
    b.bind(start);
    b.li(PatternContext::idx, 0);
    b.li(PatternContext::cnt, 400);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(PatternContext::idx, PatternContext::idx, 1);

    // Randomized kernel mix.
    for (int k = 0; k < 4; ++k) {
        switch (rng.below(6)) {
          case 0: {
            HammockOpts o;
            o.takenBias = 0.5 + 0.08 * static_cast<double>(rng.below(6));
            kHammock(cx, PatternContext::out(k), PatternContext::out(k + 1),
                     o);
            break;
          }
          case 1:
            kInnerLoop(cx, PatternContext::out(k),
                       2 + static_cast<int>(rng.below(8)), 2);
            break;
          case 2:
            kMemOps(cx, PatternContext::out(k), 512, 2);
            break;
          case 3:
            kCall(cx, leaf);
            break;
          case 4:
            kSwitch(cx, PatternContext::out(k), 8, 5, 0.4);
            break;
          default:
            kNestedHammock(cx, PatternContext::out(k), 0.7, 0.6, 3);
            break;
        }
    }
    b.addi(PatternContext::cnt, PatternContext::cnt, -1);
    b.bne(PatternContext::cnt, regZero, top);
    b.halt();
    Program p = b.finish();

    // Golden verification is on: a wrong retirement panics.
    ProcessorStats s = runModel(p, model, 120000);
    EXPECT_GT(s.retiredInsts, 5000u);
    EXPECT_GT(s.ipc(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByModel, RecoverySweep,
    ::testing::Combine(::testing::Values(101u, 202u, 303u, 404u, 505u),
                       ::testing::Values("base", "base(fg,ntb)", "RET",
                                         "MLB-RET", "FG", "FG+MLB-RET")));

} // namespace tproc
