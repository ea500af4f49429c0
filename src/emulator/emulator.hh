/**
 * @file
 * The architectural (golden-model) emulator. Executes a Program one
 * instruction at a time and reports everything a timing simulator needs
 * to verify retirement: next pc, branch outcome, destination value, and
 * memory effects.
 */

#ifndef TPROC_EMULATOR_EMULATOR_HH
#define TPROC_EMULATOR_EMULATOR_HH

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "emulator/arch_source.hh"
#include "program/program.hh"

namespace tproc
{

/**
 * Word-addressed data memory; unwritten words read as zero.
 *
 * Built from a program's sorted data image. When the image's address
 * span is at most windowSlack times its word count, the span becomes a
 * dense window split into pages of pageWords words. A page is filled
 * from the image on its first read or write (a binary search into the
 * image, then a copy of the words the page covers), so a point pays
 * for the pages it touches, not for the whole image. Words outside the
 * window live in an overflow hash map, as does the whole image when it
 * is too sparse for a window: an image {0, 2^40} never allocates its
 * span.
 *
 * Image lifetime: a memory built from an lvalue image borrows it and
 * pages from it for as long as the memory lives, so the image (for a
 * Processor or Emulator, its Program's dataInit) must outlive the
 * memory and every copy of it. A memory built from an rvalue image
 * owns it.
 */
class SparseMemory
{
  public:
    /** A window may span at most this many words per image word. */
    static constexpr size_t windowSlack = 4;

    /** Words per page: 4 KiB, one host page of 64-bit words. */
    static constexpr size_t pageWords = 512;

    SparseMemory() = default;
    /** Borrows image; it must outlive this memory (see above). */
    explicit SparseMemory(const DataImage &image);
    /** Owns image, so a temporary is safe to pass. */
    explicit SparseMemory(DataImage &&image);

    int64_t
    read(Addr addr) const
    {
        const Addr off = addr - windowBase;
        if (off < span)
            return page(off)[off % pageWords];
        auto it = overflow.find(addr);
        return it == overflow.end() ? 0 : it->second;
    }

    void
    write(Addr addr, int64_t value)
    {
        const Addr off = addr - windowBase;
        if (off < span)
            page(off)[off % pageWords] = value;
        else
            overflow[addr] = value;
    }

    /** Words of storage held: the window's filled pages plus overflow
     *  words. */
    size_t
    footprint() const
    {
        return filledWords + overflow.size();
    }

    /** Words the dense window spans (0: no window). */
    size_t windowWords() const { return span; }

    /** Image words copied into pages on first touch so far. */
    size_t pagedWords() const { return paged; }

  private:
    /** The page holding window offset off, filled on first touch. */
    int64_t *
    page(Addr off) const
    {
        std::vector<int64_t> &pg = pages[off / pageWords];
        return pg.empty() ? fill(off / pageWords) : pg.data();
    }

    int64_t *fill(size_t idx) const;
    void init();

    /** The image pages fill from (null when default-constructed). */
    const DataImage *image = nullptr;
    /** Holds the image when this memory owns it. */
    std::shared_ptr<const DataImage> owned;
    Addr windowBase = 0;
    size_t span = 0;
    // Filling a page on a read changes no word's value, so read() stays
    // const and the page table is mutable.
    mutable std::vector<std::vector<int64_t>> pages;
    mutable size_t filledWords = 0;     //!< window words in filled pages
    mutable size_t paged = 0;           //!< image words copied in
    std::unordered_map<Addr, int64_t> overflow;
};

/** Pure ALU evaluation shared between the emulator and the timing
 *  simulator's execution units. Division by zero yields zero. */
int64_t evalAlu(Opcode op, int64_t a, int64_t b, int64_t imm);

/** Conditional branch outcome. */
bool evalBranch(Opcode op, int64_t a, int64_t b);

/**
 * Architectural state + single-step execution.
 */
class Emulator : public ArchSource
{
  public:
    /** Called after every step with the step's result (capture hook). */
    using StepObserver = std::function<void(const StepResult &)>;

    explicit Emulator(const Program &prog_);

    /** Execute the instruction at the current pc. */
    StepResult step() override;

    bool halted() const override { return isHalted; }
    uint64_t instCount() const override { return icount; }

    Addr pc() const { return curPc; }

    int64_t readReg(ArchReg r) const { return regs[r]; }
    const SparseMemory &memory() const { return mem; }
    SparseMemory &memory() { return mem; }

    /** Run until HALT or max_insts, returning instructions executed. */
    uint64_t run(uint64_t max_insts);

    /** Install the capture hook (empty observer uninstalls it). */
    void setStepObserver(StepObserver obs) { observer = std::move(obs); }

  private:
    const Program &prog;
    std::array<int64_t, numArchRegs> regs{};
    SparseMemory mem;
    Addr curPc;
    bool isHalted = false;
    uint64_t icount = 0;
    StepObserver observer;
};

} // namespace tproc

#endif // TPROC_EMULATOR_EMULATOR_HH
