/**
 * @file
 * Renaming tests: physical register file, trace renaming (intra-trace
 * dependences vs live-ins/live-outs), repair renaming (prefix register
 * reuse, prefix slot status kept at full mask width), and the
 * re-dispatch pass (live-ins re-pointed, live-outs stable).
 */

#include <gtest/gtest.h>

#include "pe/processing_element.hh"
#include "program/builder.hh"
#include "trace/selection.hh"

namespace tproc
{
namespace
{

std::shared_ptr<const Trace>
selectFrom(const Program &p, Addr pc, bool taken, int max_len = 32)
{
    SelectionParams params;
    params.maxTraceLen = max_len;
    TraceSelector sel(p, params, nullptr);
    auto r = sel.select(pc, [taken](int, Addr, const Instruction &, bool) {
        return taken;
    });
    return std::make_shared<Trace>(std::move(r.trace));
}

} // namespace

TEST(PhysRegFile, AllocFreeWrite)
{
    PhysRegFile prf(256);
    size_t before = prf.freeCount();
    PhysReg r = prf.alloc();
    EXPECT_EQ(prf.freeCount(), before - 1);
    EXPECT_FALSE(prf.hasValue(r));
    prf.write(r, 42, 10);
    EXPECT_TRUE(prf.hasValue(r));
    EXPECT_FALSE(prf.ready(r, 9));
    EXPECT_TRUE(prf.ready(r, 10));
    EXPECT_EQ(prf.value(r), 42);
    prf.free(r);
    EXPECT_EQ(prf.freeCount(), before);

    // The zero register always reads zero and is never freed.
    EXPECT_TRUE(prf.ready(PhysRegFile::zeroReg, 0));
    EXPECT_EQ(prf.value(PhysRegFile::zeroReg), 0);
    prf.free(PhysRegFile::zeroReg);     // no-op
    EXPECT_TRUE(prf.ready(PhysRegFile::zeroReg, 0));
}

TEST(Rename, IntraTraceDepsAndLiveInOut)
{
    // r3 = r4 + r5 ; r6 = r3 + r4 ; r3 = r6 + r6
    ProgramBuilder b("t");
    b.add(3, 4, 5);
    b.add(6, 3, 4);
    b.add(3, 6, 6);
    b.halt();
    Program p = b.finish();
    auto tr = selectFrom(p, 0, false);

    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    InFlightTrace t;
    initInFlightTrace(t, 1, tr, map, prf);

    // Slot 0: both sources are live-ins (initial map -> zero reg).
    EXPECT_EQ(t.slots[0].dep1, -1);
    EXPECT_EQ(t.slots[0].src1, PhysRegFile::zeroReg);
    // Slot 1: rs1 = r3 from slot 0, rs2 = r4 live-in.
    EXPECT_EQ(t.slots[1].dep1, 0);
    EXPECT_EQ(t.slots[1].dep2, -1);
    // Slot 2: reads r6 from slot 1 twice.
    EXPECT_EQ(t.slots[2].dep1, 1);
    EXPECT_EQ(t.slots[2].dep2, 1);

    // Live-outs: r3 (last writer slot 2) and r6 (slot 1). Slot 0's write
    // of r3 is intra-trace only (no global register).
    EXPECT_EQ(t.slots[0].dest, invalidPhysReg);
    EXPECT_NE(t.slots[1].dest, invalidPhysReg);
    EXPECT_NE(t.slots[2].dest, invalidPhysReg);
    EXPECT_EQ(t.liveOuts.size(), 2u);
    EXPECT_EQ(map[3], t.slots[2].dest);
    EXPECT_EQ(map[6], t.slots[1].dest);
}

TEST(Rename, RepairKeepsPrefixRegistersAndFreesSuffix)
{
    // Trace with a hammock: prefix (before branch) writes r3; the two
    // arms write different registers.
    ProgramBuilder b("t");
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.addi(3, 0, 1);        // slot 0 (prefix)
    b.bne(1, 2, then_lab);  // slot 1 (the branch)
    b.addi(4, 0, 2);        // not-taken arm writes r4
    b.jmp(join);
    b.bind(then_lab);
    b.addi(5, 0, 3);        // taken arm writes r5
    b.bind(join);
    b.addi(6, 0, 4);
    b.halt();
    Program p = b.finish();

    auto orig = selectFrom(p, 0, false);    // not-taken path
    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    InFlightTrace t;
    initInFlightTrace(t, 1, orig, map, prf);

    PhysReg r3_phys = t.slots[0].dest;
    ASSERT_NE(r3_phys, invalidPhysReg);
    PhysReg r4_phys = t.slots[2].dest;
    ASSERT_NE(r4_phys, invalidPhysReg);

    // Pretend the prefix executed.
    t.notIssuedMask &= ~slotBit(0);
    t.completedMask |= slotBit(0);
    t.slots[0].value = 1;

    // Repair to the taken path.
    auto repaired = selectFrom(p, 0, true);
    RenameMap map2 = t.mapBefore;
    std::vector<PhysReg> deferred;
    repairInFlightTrace(t, repaired, 2, map2, prf, 0, deferred);

    // Prefix keeps its physical register and its dynamic state.
    EXPECT_EQ(t.slots[0].dest, r3_phys);
    EXPECT_TRUE(t.completed(0));
    // The old suffix live-outs (r4, and r6 whose producing slot index
    // shifted) are deferred-freed.
    EXPECT_EQ(deferred.size(), 2u);
    EXPECT_TRUE(deferred[0] == r4_phys || deferred[1] == r4_phys);
    // The new arm writes r5 through a fresh register installed in map2.
    EXPECT_EQ(map2[5], t.slots[2].dest);
    EXPECT_EQ(map2[3], r3_phys);
    // Suffix slots are reset.
    EXPECT_TRUE(t.notIssuedMask & slotBit(2));
}

TEST(Rename, RepairAtFullMaskWidthKeepsPrefixStatus)
{
    // A 64-slot trace: an r3 chain (slots 0-9), the branch (slot 10),
    // one arm, then a straight run that fills the trace to bit 63 on
    // both paths.
    ProgramBuilder b("t");
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.addi(3, 0, 1);            // slot 0
    for (int i = 1; i < 10; ++i)
        b.addi(3, 3, 1);        // slots 1-9, each on the previous
    b.bne(1, 2, then_lab);      // slot 10: live-ins only
    b.addi(4, 3, 2);            // not-taken arm
    b.jmp(join);
    b.bind(then_lab);
    b.addi(5, 3, 3);            // taken arm: slot 11, on slot 9
    b.bind(join);
    for (int i = 0; i < 60; ++i)
        b.addi(6, 6, 1);        // slot 12 reads live-in r6, then a chain
    b.halt();
    Program p = b.finish();

    auto orig = selectFrom(p, 0, false, 64);
    auto repaired = selectFrom(p, 0, true, 64);
    ASSERT_EQ(orig->size(), maxSlotsPerTrace);
    ASSERT_EQ(repaired->size(), maxSlotsPerTrace);

    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    InFlightTrace t;
    initInFlightTrace(t, 1, orig, map, prf);
    EXPECT_EQ(t.notIssuedMask, ~uint64_t(0));

    // Prefix: slots 0-4 completed, 5-7 in flight, 8-10 not issued. Old
    // suffix slots in flight and completed (bit 63 included), a parked
    // prefix slot, and a stale local-ready mask.
    const uint64_t done = lowSlots(5), flying = lowSlots(8) & ~done;
    const uint64_t old_suffix = slotBit(40) | slotBit(63);
    t.completedMask = done | slotBit(63);
    t.inFlightMask = flying | slotBit(40);
    t.notIssuedMask = ~(done | flying | old_suffix);
    t.parkedMask = slotBit(9);
    t.localReadyMask = 0;

    RenameMap map2 = t.mapBefore;
    std::vector<PhysReg> deferred;
    repairInFlightTrace(t, repaired, 11, map2, prf, 0, deferred);

    // Static facts now come from the repaired trace.
    ASSERT_EQ(t.size(), maxSlotsPerTrace);
    EXPECT_EQ(t.at(11).inst.rd, 5);
    // Prefix status bits survive; every suffix slot, bit 63 included,
    // is not issued, and nothing stays parked.
    EXPECT_EQ(t.completedMask, done);
    EXPECT_EQ(t.inFlightMask, flying);
    EXPECT_EQ(t.notIssuedMask, ~lowSlots(8));
    EXPECT_TRUE(t.notIssuedMask & slotBit(63));
    EXPECT_EQ(t.parkedMask, 0u);
    // Local readiness is recomputed against the kept completions.
    uint64_t ready = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        if ((t.slots[i].producers & ~done) == 0)
            ready |= slotBit(static_cast<int>(i));
    }
    EXPECT_EQ(t.localReadyMask, ready);
    EXPECT_EQ(t.localReadyMask & lowSlots(13),
              lowSlots(6) | slotBit(10) | slotBit(12));
    EXPECT_FALSE(t.localReadyMask & slotBit(63));
}

TEST(Rename, RedispatchRepointsLiveInsKeepsLiveOuts)
{
    ProgramBuilder b("t");
    b.add(3, 4, 5);     // live-ins r4, r5; live-out r3
    b.halt();
    Program p = b.finish();
    auto tr = selectFrom(p, 0, false);

    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    InFlightTrace t;
    initInFlightTrace(t, 1, tr, map, prf);
    PhysReg out = t.slots[0].dest;
    PhysReg old_src = t.slots[0].src1;

    // A recovery gives r4 a new producer.
    RenameMap map2 = PhysRegFile::initialMap();
    PhysReg new_r4 = prf.alloc();
    map2[4] = new_r4;

    auto changed = redispatchInFlightTrace(t, map2);
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0], 0);
    EXPECT_EQ(t.slots[0].src1, new_r4);
    EXPECT_NE(t.slots[0].src1, old_src);
    // Live-out mapping unchanged and re-installed.
    EXPECT_EQ(t.slots[0].dest, out);
    EXPECT_EQ(map2[3], out);

    // Re-dispatch with the same map: nothing changes.
    auto changed2 = redispatchInFlightTrace(t, map2);
    EXPECT_TRUE(changed2.empty());
}

} // namespace tproc
