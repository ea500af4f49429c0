/** @file ISA-layer unit tests: predicates, ALU semantics, disassembly. */

#include <gtest/gtest.h>

#include "emulator/emulator.hh"
#include "isa/disasm.hh"
#include "isa/instruction.hh"

namespace tproc
{

TEST(Isa, BranchPredicates)
{
    EXPECT_TRUE(isCondBranch(Opcode::BEQ));
    EXPECT_TRUE(isCondBranch(Opcode::BGE));
    EXPECT_FALSE(isCondBranch(Opcode::JMP));
    EXPECT_TRUE(isIndirect(Opcode::JR));
    EXPECT_TRUE(isIndirect(Opcode::RET));
    EXPECT_TRUE(isIndirect(Opcode::CALLR));
    EXPECT_FALSE(isIndirect(Opcode::CALL));
    EXPECT_TRUE(isCall(Opcode::CALL));
    EXPECT_TRUE(isCall(Opcode::CALLR));
    EXPECT_TRUE(isReturn(Opcode::RET));
    EXPECT_FALSE(isReturn(Opcode::JR));
    EXPECT_TRUE(isControl(Opcode::JMP));
    EXPECT_FALSE(isControl(Opcode::ADD));
}

TEST(Isa, ForwardBackwardBranches)
{
    Instruction fwd{Opcode::BNE, 0, 1, 2, 100};
    Instruction bwd{Opcode::BNE, 0, 1, 2, 10};
    EXPECT_TRUE(isForwardBranch(fwd, 50));
    EXPECT_FALSE(isBackwardBranch(fwd, 50));
    EXPECT_TRUE(isBackwardBranch(bwd, 50));
    // A branch to itself counts as backward (loop).
    Instruction self{Opcode::BEQ, 0, 1, 2, 50};
    EXPECT_TRUE(isBackwardBranch(self, 50));
}

TEST(Isa, RegisterUsage)
{
    Instruction add{Opcode::ADD, 3, 1, 2, 0};
    EXPECT_TRUE(writesReg(add));
    EXPECT_TRUE(readsRs1(add));
    EXPECT_TRUE(readsRs2(add));

    Instruction add_zero{Opcode::ADD, regZero, 1, 2, 0};
    EXPECT_FALSE(writesReg(add_zero));

    Instruction ld{Opcode::LD, 3, 1, 0, 8};
    EXPECT_TRUE(writesReg(ld));
    EXPECT_TRUE(readsRs1(ld));
    EXPECT_FALSE(readsRs2(ld));

    Instruction st{Opcode::ST, 0, 1, 2, 8};
    EXPECT_FALSE(writesReg(st));
    EXPECT_TRUE(readsRs2(st));

    Instruction lui{Opcode::LUI, 3, 0, 0, 7};
    EXPECT_FALSE(readsRs1(lui));

    Instruction call{Opcode::CALL, regRa, 0, 0, 7};
    EXPECT_TRUE(writesReg(call));
    EXPECT_FALSE(readsRs1(call));

    Instruction ret{Opcode::RET, 0, regRa, 0, 0};
    EXPECT_FALSE(writesReg(ret));
    EXPECT_TRUE(readsRs1(ret));
}

TEST(Isa, ExecLatencies)
{
    EXPECT_EQ(execLatency(Opcode::ADD), 1);
    EXPECT_EQ(execLatency(Opcode::MUL), 5);
    EXPECT_EQ(execLatency(Opcode::DIVX), 20);
    EXPECT_EQ(execLatency(Opcode::LD), 1);  // agen only
}

namespace ref
{

// The classifiers as out-of-line switches, kept here only as the
// reference the inline definitions must match opcode for opcode.

bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
        return true;
      default:
        return false;
    }
}

bool
isIndirect(Opcode op)
{
    return op == Opcode::JR || op == Opcode::CALLR || op == Opcode::RET;
}

bool isCall(Opcode op) { return op == Opcode::CALL || op == Opcode::CALLR; }
bool isReturn(Opcode op) { return op == Opcode::RET; }
bool
isDirectJump(Opcode op)
{
    return op == Opcode::JMP || op == Opcode::CALL;
}
bool isLoad(Opcode op) { return op == Opcode::LD; }
bool isStore(Opcode op) { return op == Opcode::ST; }

bool
isControl(Opcode op)
{
    return ref::isCondBranch(op) || ref::isDirectJump(op) ||
        ref::isIndirect(op);
}

bool
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

bool
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

bool
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

int
execLatency(Opcode op)
{
    switch (op) {
      case Opcode::MUL:
        return 5;
      case Opcode::DIVX:
        return 20;
      case Opcode::LD:
      case Opcode::ST:
        return 1;
      default:
        return 1;
    }
}

} // namespace ref

TEST(Isa, InlineClassifiersMatchTheReferenceForEveryOpcode)
{
    // Usable in constant expressions, so call sites fold.
    static_assert(isLoad(Opcode::LD) && !isStore(Opcode::LD));
    static_assert(execLatency(Opcode::DIVX) == 20);

    for (int o = 0; o < static_cast<int>(Opcode::NUM_OPCODES); ++o) {
        const Opcode op = static_cast<Opcode>(o);
        SCOPED_TRACE(opcodeName(op));
        EXPECT_EQ(isCondBranch(op), ref::isCondBranch(op));
        EXPECT_EQ(isIndirect(op), ref::isIndirect(op));
        EXPECT_EQ(isCall(op), ref::isCall(op));
        EXPECT_EQ(isReturn(op), ref::isReturn(op));
        EXPECT_EQ(isDirectJump(op), ref::isDirectJump(op));
        EXPECT_EQ(isLoad(op), ref::isLoad(op));
        EXPECT_EQ(isStore(op), ref::isStore(op));
        EXPECT_EQ(isControl(op), ref::isControl(op));
        EXPECT_EQ(execLatency(op), ref::execLatency(op));
        for (ArchReg rd : {regZero, regRa, ArchReg(numArchRegs - 1)}) {
            const Instruction inst{op, rd, 3, 4, 17};
            EXPECT_EQ(writesReg(inst), ref::writesReg(inst)) << int(rd);
            EXPECT_EQ(readsRs1(inst), ref::readsRs1(inst));
            EXPECT_EQ(readsRs2(inst), ref::readsRs2(inst));
            for (Addr pc : {Addr(0), Addr(17), Addr(40)}) {
                EXPECT_EQ(isForwardBranch(inst, pc),
                          ref::isCondBranch(op) && Addr(17) > pc);
                EXPECT_EQ(isBackwardBranch(inst, pc),
                          ref::isCondBranch(op) && Addr(17) <= pc);
            }
        }
    }
}

TEST(Isa, AluSemantics)
{
    EXPECT_EQ(evalAlu(Opcode::ADD, 2, 3, 0), 5);
    EXPECT_EQ(evalAlu(Opcode::SUB, 2, 3, 0), -1);
    EXPECT_EQ(evalAlu(Opcode::MUL, -4, 3, 0), -12);
    EXPECT_EQ(evalAlu(Opcode::DIVX, 7, 2, 0), 3);
    EXPECT_EQ(evalAlu(Opcode::DIVX, 7, 0, 0), 0);   // div-by-zero => 0
    EXPECT_EQ(evalAlu(Opcode::AND, 0b1100, 0b1010, 0), 0b1000);
    EXPECT_EQ(evalAlu(Opcode::SLL, 1, 5, 0), 32);
    EXPECT_EQ(evalAlu(Opcode::SRA, -8, 1, 0), -4);
    EXPECT_EQ(evalAlu(Opcode::SRL, -1, 63, 0), 1);
    EXPECT_EQ(evalAlu(Opcode::SLT, -1, 0, 0), 1);
    EXPECT_EQ(evalAlu(Opcode::SLTU, -1, 0, 0), 0);  // unsigned compare
    EXPECT_EQ(evalAlu(Opcode::ADDI, 2, 0, 40), 42);
    EXPECT_EQ(evalAlu(Opcode::LUI, 99, 0, 7), 7);
    EXPECT_EQ(evalAlu(Opcode::SLLI, 3, 0, 2), 12);
}

TEST(Isa, BranchSemantics)
{
    EXPECT_TRUE(evalBranch(Opcode::BEQ, 4, 4));
    EXPECT_FALSE(evalBranch(Opcode::BEQ, 4, 5));
    EXPECT_TRUE(evalBranch(Opcode::BNE, 4, 5));
    EXPECT_TRUE(evalBranch(Opcode::BLT, -1, 0));
    EXPECT_FALSE(evalBranch(Opcode::BLT, 0, 0));
    EXPECT_TRUE(evalBranch(Opcode::BGE, 0, 0));
}

TEST(Isa, Disassembly)
{
    EXPECT_EQ(disassemble({Opcode::ADD, 3, 1, 2, 0}), "add r3, r1, r2");
    EXPECT_EQ(disassemble({Opcode::ADDI, 3, 1, 0, -5}), "addi r3, r1, -5");
    EXPECT_EQ(disassemble({Opcode::LD, 4, 2, 0, 8}), "ld r4, 8(r2)");
    EXPECT_EQ(disassemble({Opcode::ST, 0, 2, 4, 8}), "st r4, 8(r2)");
    EXPECT_EQ(disassemble({Opcode::BNE, 0, 1, 2, 99}), "bne r1, r2, 99");
    EXPECT_EQ(disassemble({Opcode::RET, 0, 1, 0, 0}), "ret r1");
    EXPECT_EQ(disassemble({Opcode::HALT, 0, 0, 0, 0}), "halt");
}

} // namespace tproc
