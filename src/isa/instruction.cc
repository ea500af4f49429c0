#include "isa/instruction.hh"

#include "common/logging.hh"

namespace tproc
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::NOP: return "nop";
      case Opcode::HALT: return "halt";
      case Opcode::ADD: return "add";
      case Opcode::SUB: return "sub";
      case Opcode::MUL: return "mul";
      case Opcode::DIVX: return "div";
      case Opcode::AND: return "and";
      case Opcode::OR: return "or";
      case Opcode::XOR: return "xor";
      case Opcode::SLL: return "sll";
      case Opcode::SRL: return "srl";
      case Opcode::SRA: return "sra";
      case Opcode::SLT: return "slt";
      case Opcode::SLTU: return "sltu";
      case Opcode::ADDI: return "addi";
      case Opcode::ANDI: return "andi";
      case Opcode::ORI: return "ori";
      case Opcode::XORI: return "xori";
      case Opcode::SLLI: return "slli";
      case Opcode::SRLI: return "srli";
      case Opcode::SLTI: return "slti";
      case Opcode::LUI: return "lui";
      case Opcode::LD: return "ld";
      case Opcode::ST: return "st";
      case Opcode::BEQ: return "beq";
      case Opcode::BNE: return "bne";
      case Opcode::BLT: return "blt";
      case Opcode::BGE: return "bge";
      case Opcode::JMP: return "jmp";
      case Opcode::CALL: return "call";
      case Opcode::JR: return "jr";
      case Opcode::CALLR: return "callr";
      case Opcode::RET: return "ret";
      default:
        panic("opcodeName: bad opcode %d", static_cast<int>(op));
    }
}

} // namespace tproc
