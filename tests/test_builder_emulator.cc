/** @file Program builder + golden emulator tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "emulator/emulator.hh"
#include "program/builder.hh"
#include "program/cfg.hh"

namespace tproc
{

TEST(Builder, ForwardLabelFixup)
{
    ProgramBuilder b("t");
    auto target = b.newLabel();
    b.beq(1, 2, target);
    b.addi(3, 3, 1);
    b.bind(target);
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.code[0].imm, 2);    // branch resolves to the halt
}

TEST(Builder, OutOfRangeFetchIsHalt)
{
    ProgramBuilder b("t");
    b.nop();
    Program p = b.finish();
    EXPECT_EQ(p.fetch(500).op, Opcode::HALT);
}

TEST(Emulator, ArithmeticAndMemory)
{
    ProgramBuilder b("t");
    b.li(3, 21);
    b.slli(4, 3, 1);        // r4 = 42
    b.st(4, 0, 100);        // mem[100] = 42
    b.ld(5, 0, 100);        // r5 = 42
    b.addi(5, 5, -2);       // r5 = 40
    b.halt();
    Program p = b.finish();

    Emulator e(p);
    e.run(100);
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.readReg(4), 42);
    EXPECT_EQ(e.readReg(5), 40);
    EXPECT_EQ(e.memory().read(100), 42);
}

TEST(Emulator, DataInitLoaded)
{
    ProgramBuilder b("t");
    b.data(500, 77);
    b.ld(3, 0, 500);
    b.halt();
    Program p = b.finish();
    Emulator e(p);
    e.run(10);
    EXPECT_EQ(e.readReg(3), 77);
}

TEST(Builder, RepeatedDataAddressKeepsLastValue)
{
    ProgramBuilder b("t");
    b.data(10, 1);
    b.data(5, 2);
    b.data(10, 3);
    b.data(7, 4);
    b.data(5, 5);
    b.ld(3, 0, 10);
    b.ld(4, 0, 5);
    b.halt();
    Program p = b.finish();
    const DataImage want = {{5, 5}, {7, 4}, {10, 3}};
    EXPECT_EQ(p.dataInit, want);

    Emulator e(p);
    e.run(10);
    EXPECT_EQ(e.readReg(3), 3);
    EXPECT_EQ(e.readReg(4), 5);
}

namespace
{

/**
 * Run seeded random reads and writes against mem and a plain hash-map
 * reference loaded with the same image. Addresses land inside the
 * image's span, just outside both of its ends, far below and above it,
 * and at arbitrary 64-bit words, so writes reach words absent from the
 * image as well as present ones.
 */
void
checkAgainstReference(SparseMemory &mem, const DataImage &image,
                      uint64_t seed)
{
    std::unordered_map<Addr, int64_t> ref(image.begin(), image.end());
    const Addr lo = image.front().first;
    const Addr hi = image.back().first;
    Rng rng(seed);
    auto pick = [&]() -> Addr {
        switch (rng.below(6)) {
          case 0: return lo + rng.below(hi - lo + 1);
          case 1: return image[rng.below(image.size())].first;
          case 2: return lo - 1 - rng.below(std::min<Addr>(lo, 64));
          case 3: return hi + 1 + rng.below(64);
          case 4: return rng.below(2) ? lo - 1 : hi + 1;
          default: return rng.next();
        }
    };
    for (int op = 0; op < 20000; ++op) {
        const Addr a = pick();
        if (rng.below(2)) {
            const auto v = static_cast<int64_t>(rng.next());
            mem.write(a, v);
            ref[a] = v;
        } else {
            const auto it = ref.find(a);
            ASSERT_EQ(mem.read(a), it == ref.end() ? 0 : it->second)
                << "op " << op << " addr " << a;
        }
    }
    for (const auto &[a, v] : ref)
        ASSERT_EQ(mem.read(a), v) << "addr " << a;
}

} // anonymous namespace

TEST(SparseMemory, MatchesHashMapReferenceWithWindow)
{
    // 300 words over a 600-word span starting at 1000: a dense window.
    DataImage image;
    Rng gen(7);
    for (Addr a = 1000; a < 1600; a += 1 + gen.below(3))
        image.emplace_back(a, static_cast<int64_t>(gen.next()));
    for (uint64_t seed : {1, 2, 3}) {
        SparseMemory mem(image);
        ASSERT_EQ(mem.windowWords(), image.back().first - 1000 + 1);
        checkAgainstReference(mem, image, seed);
    }
}

TEST(SparseMemory, MatchesHashMapReferenceWithoutWindow)
{
    // Too sparse for a window: every word is in the overflow map.
    DataImage image;
    for (Addr a = 100; a < 100 + 64 * 1000; a += 1000)
        image.emplace_back(a, static_cast<int64_t>(a) * 3);
    SparseMemory mem(image);
    ASSERT_EQ(mem.windowWords(), 0u);
    EXPECT_EQ(mem.footprint(), image.size());
    checkAgainstReference(mem, image, 11);
}

TEST(SparseMemory, HugeSpanImageStaysSmall)
{
    const DataImage image = {{0, 1}, {Addr{1} << 40, 2}};
    SparseMemory mem(image);
    EXPECT_EQ(mem.windowWords(), 0u);
    EXPECT_EQ(mem.footprint(), 2u);
    EXPECT_EQ(mem.read(0), 1);
    EXPECT_EQ(mem.read(Addr{1} << 40), 2);
    EXPECT_EQ(mem.read(12345), 0);
    mem.write(12345, 6);
    EXPECT_EQ(mem.read(12345), 6);
    EXPECT_EQ(mem.footprint(), 3u);
}

TEST(SparseMemory, UnorderedImagePanics)
{
    // Page fills binary-search the image, so {1, 100, 50} would fill
    // its pages with the wrong words; the order check stops it first.
    ScopedErrorCapture capture;
    for (const DataImage &image :
         {DataImage{{5, 1}, {5, 2}}, DataImage{{5, 1}, {3, 2}},
          DataImage{{1, 1}, {100, 2}, {50, 3}},
          DataImage{{0, 1}, {Addr{1} << 40, 2}, {7, 3}}}) {
        EXPECT_THROW(SparseMemory mem(image), SimError);
    }
}

TEST(SparseMemory, EmptyImageReadsZero)
{
    SparseMemory mem(DataImage{});
    EXPECT_EQ(mem.footprint(), 0u);
    EXPECT_EQ(mem.read(0), 0);
    EXPECT_EQ(mem.read(~Addr{0}), 0);
    mem.write(~Addr{0}, -1);
    EXPECT_EQ(mem.read(~Addr{0}), -1);
}

namespace
{

/** ~1.6k image words over a 3,300-word span that starts mid-page in
 *  the address space: seven window pages, the last one partial. */
DataImage
multiPageImage()
{
    DataImage image;
    Rng gen(3);
    for (Addr a = 4096 + 100; a < 4096 + 100 + 3300; a += 1 + gen.below(3))
        image.emplace_back(a, static_cast<int64_t>(gen.next()));
    return image;
}

/** The first and last word of every window page, then the window's
 *  two neighbours and a far word (those three in the overflow map). */
std::vector<Addr>
pageEdges(const DataImage &image)
{
    const Addr lo = image.front().first;
    const size_t span = image.back().first - lo + 1;
    std::vector<Addr> edges;
    for (size_t first = 0; first < span; first += SparseMemory::pageWords) {
        edges.push_back(lo + first);
        edges.push_back(
            lo + std::min(span, first + SparseMemory::pageWords) - 1);
    }
    edges.push_back(lo - 1);
    edges.push_back(lo + span);
    edges.push_back(Addr{1} << 50);
    return edges;
}

} // anonymous namespace

TEST(SparseMemory, PagesFillOnFirstTouchAcrossBoundaries)
{
    // Each page edge is touched first by a read in one memory and by a
    // write in the other; both must agree with a hash-map reference,
    // and only touched pages may be paged in.
    const DataImage image = multiPageImage();
    const Addr lo = image.front().first;
    const size_t span = image.back().first - lo + 1;
    ASSERT_EQ((span + SparseMemory::pageWords - 1) / SparseMemory::pageWords,
              7u);
    for (bool by_write : {false, true}) {
        SparseMemory mem(image);
        std::unordered_map<Addr, int64_t> ref(image.begin(), image.end());
        ASSERT_EQ(mem.windowWords(), span);
        EXPECT_EQ(mem.pagedWords(), 0u);
        EXPECT_EQ(mem.footprint(), 0u);

        // One page: only the image words it covers are copied in.
        const Addr a0 = lo + SparseMemory::pageWords;
        if (by_write) {
            mem.write(a0, -1);
            ref[a0] = -1;
        }
        EXPECT_EQ(mem.read(a0), ref.count(a0) ? ref[a0] : 0);
        size_t in_page = 0;
        for (const auto &[a, v] : image) {
            in_page += a >= a0 && a < a0 + SparseMemory::pageWords;
        }
        EXPECT_EQ(mem.pagedWords(), in_page);
        EXPECT_EQ(mem.footprint(), SparseMemory::pageWords);

        for (Addr a : pageEdges(image)) {
            if (by_write) {
                const auto v = static_cast<int64_t>(a) * 7 - 3;
                mem.write(a, v);
                ref[a] = v;
            }
            const auto it = ref.find(a);
            ASSERT_EQ(mem.read(a), it == ref.end() ? 0 : it->second)
                << "addr " << a << " by_write " << by_write;
        }
        // Every page touched: the whole image is in, plus the three
        // overflow words when they were written.
        EXPECT_EQ(mem.pagedWords(), image.size());
        EXPECT_EQ(mem.footprint(), span + (by_write ? 3 : 0));
        for (const auto &[a, v] : ref)
            ASSERT_EQ(mem.read(a), v) << "addr " << a;
    }
    // Random traffic over a fresh multi-page memory.
    SparseMemory fresh(image);
    checkAgainstReference(fresh, image, 5);
}

TEST(SparseMemory, OwnsATemporaryImageAndCopiesShareIt)
{
    // A temporary image is moved in and owned, so pages filled after
    // the temporary is gone read the right words (ASan flags a
    // borrowed, dead image here); a copy keeps paging from the same
    // image after the original is destroyed.
    const DataImage image = multiPageImage();
    auto mem = std::make_unique<SparseMemory>(multiPageImage());
    EXPECT_EQ(mem->read(image[1].first), image[1].second);
    SparseMemory copy = *mem;
    mem.reset();
    for (const auto &[a, v] : image)
        ASSERT_EQ(copy.read(a), v) << "addr " << a;
    EXPECT_EQ(copy.pagedWords(), image.size());
}

TEST(Emulator, LoopAndBranches)
{
    ProgramBuilder b("t");
    b.li(3, 10);
    b.li(4, 0);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(4, 4, 2);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    Program p = b.finish();

    Emulator e(p);
    uint64_t n = e.run(1000);
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.readReg(4), 20);
    EXPECT_EQ(n, 2u + 3u * 10u + 1u);
}

TEST(Emulator, CallAndReturn)
{
    ProgramBuilder b("t");
    auto start = b.newLabel();
    b.jmp(start);
    auto fn = b.newLabel();
    b.bind(fn);
    b.addi(4, 4, 5);
    b.ret();
    b.bind(start);
    b.call(fn);
    b.call(fn);
    b.halt();
    Program p = b.finish();

    Emulator e(p);
    e.run(100);
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.readReg(4), 10);
}

TEST(Emulator, IndirectJump)
{
    ProgramBuilder b("t");
    auto target = b.newLabel();
    b.li(3, 0);             // placeholder, fixed below
    b.jr(3);
    b.addi(4, 4, 99);       // skipped
    b.bind(target);
    b.addi(4, 4, 1);
    b.halt();
    Program p = b.finish();
    p.code[0].imm = static_cast<int64_t>(b.labelAddr(target));

    Emulator e(p);
    e.run(100);
    EXPECT_EQ(e.readReg(4), 1);
}

TEST(Emulator, ZeroRegisterStaysZero)
{
    ProgramBuilder b("t");
    b.addi(0, 0, 99);
    b.add(3, 0, 0);
    b.halt();
    Program p = b.finish();
    Emulator e(p);
    e.run(10);
    EXPECT_EQ(e.readReg(0), 0);
    EXPECT_EQ(e.readReg(3), 0);
}

TEST(Cfg, BasicBlocks)
{
    ProgramBuilder b("t");
    b.addi(3, 3, 1);        // 0
    auto l = b.newLabel();
    b.beq(3, 0, l);         // 1: ends block
    b.addi(4, 4, 1);        // 2
    b.bind(l);
    b.addi(5, 5, 1);        // 3: leader (branch target)
    b.halt();               // 4
    Program p = b.finish();

    auto blocks = findBasicBlocks(p);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0].start, 0u);
    EXPECT_EQ(blocks[0].end, 2u);
    EXPECT_EQ(blocks[1].start, 2u);
    EXPECT_EQ(blocks[1].end, 3u);
    EXPECT_EQ(blocks[2].start, 3u);
    EXPECT_EQ(blocks[2].end, 5u);
    EXPECT_EQ(blockContaining(blocks, 4), 2);
    EXPECT_EQ(blockContaining(blocks, 99), -1);
}

} // namespace tproc
