/**
 * @file
 * Trace selection tests: end conditions (length, indirect, ntb, halt,
 * fg-defer), FGCI padding semantics, determinism, and the trace identity
 * round trip (re-selecting with a trace's own outcome bits reproduces
 * the trace exactly — the property repair and the trace cache rely on).
 */

#include <gtest/gtest.h>

#include <array>

#include "common/random.hh"
#include "core/config.hh"
#include "frontend/frontend.hh"
#include "program/builder.hh"
#include "trace/selection.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace tproc
{
namespace
{

BranchOracle
constOracle(bool taken)
{
    return [taken](int, Addr, const Instruction &, bool) { return taken; };
}

/**
 * Reference dependence analysis: a from-scratch derivation over a
 * trace's instructions, as dispatch once ran it for every trace it
 * renamed. Selection's pre-renamed facts must equal it.
 */
void
expectPredecoded(const Trace &tr, const std::string &what)
{
    std::array<int, numArchRegs> last_writer;
    last_writer.fill(-1);
    std::vector<int> dep1(tr.size(), -1), dep2(tr.size(), -1);
    std::vector<uint64_t> producers(tr.size(), 0), consumers(tr.size(), 0);
    for (size_t i = 0; i < tr.size(); ++i) {
        const Instruction &inst = tr.slots[i].inst;
        auto link = [&](bool reads, ArchReg r, int &dep) {
            if (!reads || last_writer[r] < 0)
                return;
            dep = last_writer[r];
            producers[i] |= uint64_t(1) << dep;
            consumers[dep] |= uint64_t(1) << i;
        };
        link(readsRs1(inst), inst.rs1, dep1[i]);
        link(readsRs2(inst), inst.rs2, dep2[i]);
        if (writesReg(inst))
            last_writer[inst.rd] = static_cast<int>(i);
    }
    for (size_t i = 0; i < tr.size(); ++i) {
        const TraceSlot &s = tr.slots[i];
        ASSERT_EQ(s.readsRs1, readsRs1(s.inst)) << what << " slot " << i;
        ASSERT_EQ(s.readsRs2, readsRs2(s.inst)) << what << " slot " << i;
        ASSERT_EQ(s.dep1, dep1[i]) << what << " slot " << i;
        ASSERT_EQ(s.dep2, dep2[i]) << what << " slot " << i;
        ASSERT_EQ(s.producers, producers[i]) << what << " slot " << i;
        ASSERT_EQ(s.consumers, consumers[i]) << what << " slot " << i;
    }
    size_t k = 0;
    for (int a = 0; a < numArchRegs; ++a) {
        if (last_writer[a] < 0)
            continue;
        ASSERT_LT(k, tr.liveOuts.size()) << what;
        EXPECT_EQ(tr.liveOuts[k].arch, a) << what;
        EXPECT_EQ(tr.liveOuts[k].slot, last_writer[a]) << what;
        ++k;
    }
    EXPECT_EQ(k, tr.liveOuts.size()) << what;
}

Program
straight(int n)
{
    ProgramBuilder b("s");
    for (int i = 0; i < n; ++i)
        b.addi(3, 3, 1);
    b.halt();
    return b.finish();
}

} // namespace

TEST(Selection, EndsAtMaxLength)
{
    Program p = straight(100);
    SelectionParams params;
    TraceSelector sel(p, params);
    auto r = sel.select(0, constOracle(false));
    EXPECT_EQ(r.trace.size(), 32u);
    EXPECT_EQ(r.trace.end, TraceEnd::LENGTH);
    EXPECT_EQ(r.trace.fallthroughPc, 32u);
    EXPECT_EQ(r.trace.accruedLen, 32);
}

TEST(Selection, EndsAtHalt)
{
    Program p = straight(5);
    TraceSelector sel(p, SelectionParams{});
    auto r = sel.select(0, constOracle(false));
    EXPECT_EQ(r.trace.size(), 6u);
    EXPECT_EQ(r.trace.end, TraceEnd::HALT);
    EXPECT_EQ(r.trace.fallthroughPc, invalidAddr);
}

TEST(Selection, EndsAtIndirect)
{
    ProgramBuilder b("t");
    b.addi(3, 3, 1);
    b.jr(3);
    b.addi(4, 4, 1);
    b.halt();
    Program p = b.finish();
    TraceSelector sel(p, SelectionParams{});
    auto r = sel.select(0, constOracle(false));
    EXPECT_EQ(r.trace.size(), 2u);
    EXPECT_EQ(r.trace.end, TraceEnd::INDIRECT);
    EXPECT_TRUE(r.trace.endsInIndirect());
}

TEST(Selection, NtbEndsAtNotTakenBackwardBranch)
{
    ProgramBuilder b("t");
    auto top = b.newLabel();
    b.bind(top);
    b.addi(3, 3, 1);
    b.bne(3, 4, top);       // backward
    b.addi(5, 5, 1);
    b.halt();
    Program p = b.finish();

    SelectionParams with_ntb;
    with_ntb.ntb = true;
    TraceSelector sel(p, with_ntb);
    auto r = sel.select(0, constOracle(false));   // predicted not taken
    EXPECT_EQ(r.trace.end, TraceEnd::NTB);
    EXPECT_EQ(r.trace.size(), 2u);
    EXPECT_EQ(r.trace.fallthroughPc, 2u);

    // Taken prediction: the ntb rule does not apply.
    auto r2 = sel.select(0, constOracle(true));
    EXPECT_NE(r2.trace.end, TraceEnd::NTB);

    // Without ntb, the trace continues through the not-taken branch.
    TraceSelector plain(p, SelectionParams{});
    auto r3 = plain.select(0, constOracle(false));
    EXPECT_EQ(r3.trace.end, TraceEnd::HALT);
}

TEST(Selection, FgciPaddingEqualizesEnds)
{
    // Hammock with unequal arms: under fg selection, both outcomes must
    // produce traces ending at the same point with the same accrued
    // length.
    ProgramBuilder b("t");
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.addi(3, 3, 1);
    b.bne(1, 2, then_lab);
    b.addi(4, 4, 1);
    b.addi(4, 4, 1);
    b.addi(4, 4, 1);
    b.jmp(join);
    b.bind(then_lab);
    b.addi(5, 5, 1);
    b.bind(join);
    for (int i = 0; i < 40; ++i)
        b.addi(6, 6, 1);
    b.halt();
    Program p = b.finish();

    SelectionParams fg;
    fg.fg = true;
    Bit bit;
    TraceSelector sel(p, fg, &bit);
    auto taken = sel.select(0, constOracle(true));
    auto not_taken = sel.select(0, constOracle(false));

    EXPECT_EQ(taken.trace.accruedLen, not_taken.trace.accruedLen);
    EXPECT_EQ(taken.trace.fallthroughPc, not_taken.trace.fallthroughPc);
    EXPECT_EQ(taken.trace.end, not_taken.trace.end);
    // The shorter (taken) path has fewer actual slots.
    EXPECT_LT(taken.trace.size(), not_taken.trace.size());
    // Region metadata is recorded on the branch slot.
    EXPECT_TRUE(taken.trace.slots[1].regionStart);
    EXPECT_TRUE(taken.trace.slots[1].inRegion);
}

TEST(Selection, FgDeferWhenRegionDoesNotFit)
{
    // 20 straight instructions, then a hammock with a 20-instruction
    // region: 20 + 20 > 32, so the trace must end before the branch.
    ProgramBuilder b("t");
    for (int i = 0; i < 20; ++i)
        b.addi(3, 3, 1);
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.bne(1, 2, then_lab);      // pc 20
    for (int i = 0; i < 17; ++i)
        b.addi(4, 4, 1);
    b.jmp(join);
    b.bind(then_lab);
    b.addi(5, 5, 1);
    b.bind(join);
    b.halt();
    Program p = b.finish();

    SelectionParams fg;
    fg.fg = true;
    Bit bit;
    TraceSelector sel(p, fg, &bit);
    auto r = sel.select(0, constOracle(true));
    EXPECT_EQ(r.trace.end, TraceEnd::FG_DEFER);
    EXPECT_EQ(r.trace.size(), 20u);
    EXPECT_EQ(r.trace.fallthroughPc, 20u);

    // The deferred branch then starts its own trace with the region
    // embedded from accrued length zero.
    auto r2 = sel.select(20, constOracle(true));
    EXPECT_TRUE(r2.trace.slots[0].regionStart);
}

TEST(Selection, IdRoundTripOnWorkloads)
{
    // For every workload: select traces along the actual execution path,
    // then re-select each from its own id bits; the result must be
    // identical (trace identity is complete).
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, 3);
        for (int variant = 0; variant < 2; ++variant) {
            SelectionParams params;
            params.fg = variant == 1;
            params.ntb = variant == 1;
            Bit bit;
            TraceSelector sel(w.program, params, &bit);

            Rng rng(99);
            BranchOracle random_oracle =
                [&rng](int, Addr, const Instruction &, bool) {
                    return rng.chance(0.5);
                };

            Addr pc = w.program.entry;
            for (int i = 0; i < 40 && pc != invalidAddr; ++i) {
                auto r = sel.select(pc, random_oracle);
                auto replay = sel.select(pc, makeIdOracle(r.trace.id));
                ASSERT_EQ(replay.trace.id, r.trace.id)
                    << name << " trace " << i;
                ASSERT_EQ(replay.trace.size(), r.trace.size());
                ASSERT_EQ(replay.trace.accruedLen, r.trace.accruedLen);
                for (size_t s = 0; s < r.trace.slots.size(); ++s) {
                    ASSERT_EQ(replay.trace.slots[s].pc,
                              r.trace.slots[s].pc);
                }
                pc = r.trace.fallthroughPc;
            }
        }
    }
}

TEST(Selection, SlotsNeverExceedAccrued)
{
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, 5);
        SelectionParams params;
        params.fg = true;
        Bit bit;
        TraceSelector sel(w.program, params, &bit);
        Rng rng(7);
        BranchOracle oracle = [&rng](int, Addr, const Instruction &,
                                     bool) { return rng.chance(0.7); };
        Addr pc = w.program.entry;
        for (int i = 0; i < 60 && pc != invalidAddr; ++i) {
            auto r = sel.select(pc, oracle);
            ASSERT_LE(static_cast<int>(r.trace.size()),
                      r.trace.accruedLen);
            ASSERT_LE(r.trace.accruedLen, params.maxTraceLen);
            ASSERT_GE(r.trace.size(), 1u);
            pc = r.trace.fallthroughPc;
        }
    }
}

TEST(Selection, PredecodedDependencesMatchAFreshDerivation)
{
    // Traces from every analog and one program per generator pattern,
    // selected with FGCI padding and ntb at spread start pcs, plus the
    // frontend's repair of every conditional branch in them
    // (FGCI-covered inside an embedded region, else a plain
    // re-prediction of the suffix), fresh or reused from its trace
    // cache.
    std::vector<std::string> programs = workloadNames();
    for (const std::string &pattern : generatorPatternNames())
        programs.push_back(generatedName(pattern, 0));
    const ProcessorConfig cfg = ProcessorConfig::forModel("FG+MLB-RET");
    size_t traces = 0, covered = 0;
    for (const std::string &name : programs) {
        Workload w = makeWorkload(name, 1);
        Bit bit(cfg.bit);
        TraceSelector sel(w.program, cfg.selection, &bit);
        Frontend fe(w.program, cfg);
        Rng rng(11);
        BranchOracle oracle = [&rng](int, Addr, const Instruction &,
                                     bool) { return rng.chance(0.5); };
        const size_t stride = w.program.size() / 200 + 1;
        for (Addr pc = 0; pc < w.program.size(); pc += stride) {
            Trace tr = sel.select(pc, oracle).trace;
            predecode(tr);
            expectPredecoded(tr, name + " @" + std::to_string(pc));
            ++traces;
            for (size_t b = 0; b < tr.size(); ++b) {
                const TraceSlot &s = tr.slots[b];
                if (!s.isCondBr)
                    continue;
                const bool fgci = cfg.fgci && s.inRegion;
                auto rep = fe.buildRepair(0, tr, static_cast<int>(b),
                                          !s.taken, fgci);
                expectPredecoded(*rep.trace, name + " @" +
                                     std::to_string(pc) + " repair " +
                                     std::to_string(b));
                ++traces;
                covered += fgci;
            }
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(traces, 4000u);
    EXPECT_GT(covered, 1000u);    // FGCI repairs are exercised
}

} // namespace tproc
