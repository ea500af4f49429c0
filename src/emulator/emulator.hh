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
#include <unordered_map>
#include <vector>

#include "emulator/arch_source.hh"
#include "program/program.hh"

namespace tproc
{

/**
 * Word-addressed data memory; unwritten words read as zero.
 *
 * Built from a program's sorted data image in one pass over the image.
 * When the image's address span is at most windowSlack times its word
 * count, the span becomes one dense window (zero-filled, then the
 * image scattered in), so a read or write inside it is an index.
 * Words outside the window live in an overflow hash map, as does the
 * whole image when it is too sparse for a window: an image {0, 2^40}
 * never allocates its span.
 */
class SparseMemory
{
  public:
    /** A window may span at most this many words per image word. */
    static constexpr size_t windowSlack = 4;

    SparseMemory() = default;
    explicit SparseMemory(const DataImage &image);

    int64_t
    read(Addr addr) const
    {
        const Addr off = addr - windowBase;
        if (off < window.size())
            return window[off];
        auto it = overflow.find(addr);
        return it == overflow.end() ? 0 : it->second;
    }

    void
    write(Addr addr, int64_t value)
    {
        const Addr off = addr - windowBase;
        if (off < window.size())
            window[off] = value;
        else
            overflow[addr] = value;
    }

    /** Words of storage held: the window span plus overflow words. */
    size_t footprint() const { return window.size() + overflow.size(); }

    /** Words the dense window spans (0: no window). */
    size_t windowWords() const { return window.size(); }

  private:
    Addr windowBase = 0;
    std::vector<int64_t> window;
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
