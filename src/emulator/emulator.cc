#include "emulator/emulator.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace tproc
{

SparseMemory::SparseMemory(const DataImage &image_) : image(&image_)
{
    init();
}

SparseMemory::SparseMemory(DataImage &&image_)
    : owned(std::make_shared<const DataImage>(std::move(image_)))
{
    image = owned.get();
    init();
}

void
SparseMemory::init()
{
    const DataImage &img = *image;
    // One linear pass and no scatter: page fills binary-search the
    // image, so it must be sorted. The branch-free pass finds whether;
    // only a bad image pays for finding where.
    bool ordered = true;
    for (size_t i = 1; i < img.size(); ++i)
        ordered &= img[i - 1].first < img[i].first;
    auto descends = [](const auto &a, const auto &b) {
        return a.first >= b.first;
    };
    const auto bad = ordered
        ? img.end()
        : std::adjacent_find(img.begin(), img.end(), descends);
    panic_if(bad != img.end(),
             "SparseMemory: data image not strictly increasing at %llu",
             static_cast<unsigned long long>(std::next(bad)->first));
    if (img.empty())
        return;
    const Addr lo = img.front().first;
    const Addr hi = img.back().first;
    if (hi - lo < windowSlack * img.size()) {
        windowBase = lo;
        span = hi - lo + 1;
        pages.resize((span + pageWords - 1) / pageWords);
    } else {
        overflow.reserve(img.size());
        for (const auto &[addr, value] : img)
            overflow.emplace(addr, value);
    }
}

int64_t *
SparseMemory::fill(size_t idx) const
{
    const Addr first = idx * pageWords;
    std::vector<int64_t> &pg = pages[idx];
    pg.assign(std::min<size_t>(pageWords, span - first), 0);
    filledWords += pg.size();
    const Addr lo = windowBase + first;
    auto it = std::lower_bound(
        image->begin(), image->end(), lo,
        [](const auto &entry, Addr a) { return entry.first < a; });
    for (; it != image->end() && it->first - lo < pg.size(); ++it) {
        pg[it->first - lo] = it->second;
        ++paged;
    }
    return pg.data();
}

int64_t
evalAlu(Opcode op, int64_t a, int64_t b, int64_t imm)
{
    auto ua = static_cast<uint64_t>(a);
    switch (op) {
      case Opcode::ADD: return a + b;
      case Opcode::SUB: return a - b;
      case Opcode::MUL: return a * b;
      case Opcode::DIVX: return b == 0 ? 0 : a / b;
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::SLL: return static_cast<int64_t>(ua << (b & 63));
      case Opcode::SRL: return static_cast<int64_t>(ua >> (b & 63));
      case Opcode::SRA: return a >> (b & 63);
      case Opcode::SLT: return a < b ? 1 : 0;
      case Opcode::SLTU: return ua < static_cast<uint64_t>(b) ? 1 : 0;
      case Opcode::ADDI: return a + imm;
      case Opcode::ANDI: return a & imm;
      case Opcode::ORI: return a | imm;
      case Opcode::XORI: return a ^ imm;
      case Opcode::SLLI: return static_cast<int64_t>(ua << (imm & 63));
      case Opcode::SRLI: return static_cast<int64_t>(ua >> (imm & 63));
      case Opcode::SLTI: return a < imm ? 1 : 0;
      case Opcode::LUI: return imm;
      default:
        panic("evalAlu: non-ALU opcode %s", opcodeName(op));
    }
}

bool
evalBranch(Opcode op, int64_t a, int64_t b)
{
    switch (op) {
      case Opcode::BEQ: return a == b;
      case Opcode::BNE: return a != b;
      case Opcode::BLT: return a < b;
      case Opcode::BGE: return a >= b;
      default:
        panic("evalBranch: non-branch opcode %s", opcodeName(op));
    }
}

Emulator::Emulator(const Program &prog_)
    : prog(prog_), mem(prog_.dataInit), curPc(prog_.entry)
{
}

StepResult
Emulator::step()
{
    panic_if(isHalted, "Emulator::step after halt");

    StepResult res;
    res.pc = curPc;
    res.inst = prog.fetch(curPc);
    const Instruction &inst = res.inst;
    res.nextPc = curPc + 1;

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        res.halted = true;
        isHalted = true;
        res.nextPc = curPc;
        break;
      case Opcode::LD:
        res.isMem = true;
        res.memAddr = static_cast<Addr>(regs[inst.rs1] + inst.imm);
        res.memValue = mem.read(res.memAddr);
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = res.memValue;
            regs[inst.rd] = res.memValue;
        }
        break;
      case Opcode::ST:
        res.isMem = true;
        res.memAddr = static_cast<Addr>(regs[inst.rs1] + inst.imm);
        res.memValue = regs[inst.rs2];
        mem.write(res.memAddr, res.memValue);
        break;
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE:
        res.taken = evalBranch(inst.op, regs[inst.rs1], regs[inst.rs2]);
        if (res.taken)
            res.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::JMP:
        res.taken = true;
        res.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::CALL:
        res.taken = true;
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = static_cast<int64_t>(curPc + 1);
            regs[inst.rd] = res.destValue;
        }
        res.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::JR: case Opcode::RET:
        res.taken = true;
        res.nextPc = static_cast<Addr>(regs[inst.rs1]);
        break;
      case Opcode::CALLR:
        res.taken = true;
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = static_cast<int64_t>(curPc + 1);
        }
        res.nextPc = static_cast<Addr>(regs[inst.rs1]);
        if (inst.rd != regZero)
            regs[inst.rd] = res.destValue;
        break;
      default:
        // ALU operation.
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = evalAlu(inst.op, regs[inst.rs1], regs[inst.rs2],
                                    inst.imm);
            regs[inst.rd] = res.destValue;
        }
        break;
    }

    regs[regZero] = 0;
    curPc = res.nextPc;
    ++icount;
    if (observer)
        observer(res);
    return res;
}

uint64_t
Emulator::run(uint64_t max_insts)
{
    uint64_t n = 0;
    while (!isHalted && n < max_insts) {
        step();
        ++n;
    }
    return n;
}

} // namespace tproc
