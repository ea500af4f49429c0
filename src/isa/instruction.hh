/**
 * @file
 * The tproc RISC instruction set.
 *
 * The paper evaluates on SimpleScalar/PISA binaries of SPEC95; since those
 * are unavailable we define a compact, regular 64-bit RISC ISA that the
 * workload generators target. The microarchitecture is ISA-agnostic; all
 * it needs from the ISA layer is the classification predicates below
 * (conditional branch, forward/backward, indirect, call, return, memory).
 */

#ifndef TPROC_ISA_INSTRUCTION_HH
#define TPROC_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace tproc
{

/** Operation codes. */
enum class Opcode : uint8_t
{
    NOP,
    HALT,       //!< terminate the program

    // Register-register ALU.
    ADD, SUB, MUL, DIVX, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,

    // Register-immediate ALU.
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SLTI, LUI,

    // Memory. LD: rd <- mem[rs1 + imm]; ST: mem[rs1 + imm] <- rs2.
    LD, ST,

    // Conditional branches; target is the absolute instruction index in
    // imm. BEQ/BNE compare rs1 vs rs2; BLT/BGE are signed.
    BEQ, BNE, BLT, BGE,

    // Direct unconditional control.
    JMP,        //!< jump to imm
    CALL,       //!< rd <- pc+1; jump to imm

    // Indirect control (all of these terminate traces under default
    // selection, matching the paper's "jump indirect, call indirect, and
    // return instructions").
    JR,         //!< jump to r[rs1] (computed goto / switch)
    CALLR,      //!< rd <- pc+1; jump to r[rs1]
    RET,        //!< jump to r[rs1]; semantically a subroutine return

    NUM_OPCODES
};

/**
 * A static instruction. Fixed layout: up to two register sources, one
 * register destination, one immediate. Branch/jump targets are absolute
 * instruction indices held in imm.
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    ArchReg rd = 0;
    ArchReg rs1 = 0;
    ArchReg rs2 = 0;
    int64_t imm = 0;

    bool
    operator==(const Instruction &o) const
    {
        return op == o.op && rd == o.rd && rs1 == o.rs1 && rs2 == o.rs2 &&
            imm == o.imm;
    }

    bool operator!=(const Instruction &o) const { return !(*this == o); }
};

/** @name Classification predicates.
 * Defined inline so every call site folds to a compare or a bit test:
 * the cycle loop, selection and the emulator classify each instruction
 * many times per run. */
/// @{
constexpr bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE:
        return true;
      default:
        return false;
    }
}

/** JR, CALLR, RET. */
constexpr bool
isIndirect(Opcode op)
{
    return op == Opcode::JR || op == Opcode::CALLR || op == Opcode::RET;
}

/** CALL, CALLR. */
constexpr bool
isCall(Opcode op)
{
    return op == Opcode::CALL || op == Opcode::CALLR;
}

/** RET. */
constexpr bool isReturn(Opcode op) { return op == Opcode::RET; }

/** JMP, CALL. */
constexpr bool
isDirectJump(Opcode op)
{
    return op == Opcode::JMP || op == Opcode::CALL;
}

constexpr bool isLoad(Opcode op) { return op == Opcode::LD; }
constexpr bool isStore(Opcode op) { return op == Opcode::ST; }

/** Any branch or jump. */
constexpr bool
isControl(Opcode op)
{
    return isCondBranch(op) || isDirectJump(op) || isIndirect(op);
}

/** True if the instruction writes a register (and rd != regZero). */
constexpr bool
writesReg(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::DIVX: case Opcode::AND: case Opcode::OR:
      case Opcode::XOR: case Opcode::SLL: case Opcode::SRL:
      case Opcode::SRA: case Opcode::SLT: case Opcode::SLTU:
      case Opcode::ADDI: case Opcode::ANDI: case Opcode::ORI:
      case Opcode::XORI: case Opcode::SLLI: case Opcode::SRLI:
      case Opcode::SLTI: case Opcode::LUI:
      case Opcode::LD:
      case Opcode::CALL: case Opcode::CALLR:
        return inst.rd != regZero;
      default:
        return false;
    }
}

/** True if the instruction reads rs1. */
constexpr bool
readsRs1(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::NOP: case Opcode::HALT: case Opcode::LUI:
      case Opcode::JMP: case Opcode::CALL:
        return false;
      default:
        return true;
    }
}

/** True if the instruction reads rs2. */
constexpr bool
readsRs2(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::DIVX: case Opcode::AND: case Opcode::OR:
      case Opcode::XOR: case Opcode::SLL: case Opcode::SRL:
      case Opcode::SRA: case Opcode::SLT: case Opcode::SLTU:
      case Opcode::ST:
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE:
        return true;
      default:
        return false;
    }
}
/// @}

/**
 * True for a conditional branch at pc whose target is numerically
 * greater than pc (a forward branch). Backward conditional branches are
 * loop branches in our ISA.
 */
constexpr bool
isForwardBranch(const Instruction &inst, Addr pc)
{
    return isCondBranch(inst.op) && static_cast<Addr>(inst.imm) > pc;
}

constexpr bool
isBackwardBranch(const Instruction &inst, Addr pc)
{
    return isCondBranch(inst.op) && static_cast<Addr>(inst.imm) <= pc;
}

/** Execution latency in cycles (Table 1: ALU 1, complex ops at
 *  MIPS R10000 latencies; loads and stores take 1 cycle of address
 *  generation here, the memory access is modelled separately). */
constexpr int
execLatency(Opcode op)
{
    switch (op) {
      case Opcode::MUL:
        return 5;   // MIPS R10000 integer multiply
      case Opcode::DIVX:
        return 20;  // MIPS R10000 integer divide (approx.)
      default:
        return 1;
    }
}

/** Mnemonic for disassembly. */
const char *opcodeName(Opcode op);

} // namespace tproc

#endif // TPROC_ISA_INSTRUCTION_HH
