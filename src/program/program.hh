/**
 * @file
 * A static program: instruction memory plus initial data memory image.
 */

#ifndef TPROC_PROGRAM_PROGRAM_HH
#define TPROC_PROGRAM_PROGRAM_HH

#include <string>
#include <utility>
#include <vector>

#include "isa/instruction.hh"

namespace tproc
{

/** A data memory image: (word address, value), sorted by address. */
using DataImage = std::vector<std::pair<Addr, int64_t>>;

/**
 * An executable tproc program. Instruction space is word addressed by
 * instruction index; data space is a separate word-addressed space whose
 * initial contents are given by dataInit.
 */
class Program
{
  public:
    std::string name;
    std::vector<Instruction> code;
    /** Initial data memory contents: (word address, value) pairs in
     *  strictly increasing address order, one per address (the builder
     *  and the trace decoders establish this; SparseMemory relies on
     *  it). */
    DataImage dataInit;
    /** Entry point (instruction index). */
    Addr entry = 0;

    size_t size() const { return code.size(); }

    /** Fetch an instruction; out-of-range returns HALT (safety net for
     *  wrong-path fetch). */
    const Instruction &fetch(Addr pc) const;

    /** Pretty-print the whole program (debugging). */
    std::string disassembly() const;

  private:
    static const Instruction haltInst;
};

} // namespace tproc

#endif // TPROC_PROGRAM_PROGRAM_HH
