/**
 * @file
 * Golden-model interpreter and lockstep checker implementation.
 *
 * The interpreter is organized differently from isa::Executor on
 * purpose — ALU, branch and memory semantics are grouped into separate
 * evaluation helpers — so a semantics bug in one implementation is
 * unlikely to be mirrored by the other.
 */

#include "check/golden.hh"

#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "isa/inst.hh"
#include "isa/opcodes.hh"

namespace dynaspam::check
{

namespace
{

std::int64_t
sgn(std::uint64_t v)
{
    return std::bit_cast<std::int64_t>(v);
}

std::uint64_t
uns(std::int64_t v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
fp(std::uint64_t v)
{
    return std::bit_cast<double>(v);
}

std::uint64_t
fpBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Integer/FP computation for every value-producing non-memory op. */
std::uint64_t
computeValue(isa::Opcode op, std::uint64_t a, std::uint64_t b,
             std::int64_t imm, InstAddr pc)
{
    using isa::Opcode;
    switch (op) {
      case Opcode::ADD:
        return a + b;
      case Opcode::SUB:
        return a - b;
      case Opcode::AND:
        return a & b;
      case Opcode::OR:
        return a | b;
      case Opcode::XOR:
        return a ^ b;
      case Opcode::SHL:
        return bits::shiftLeft(a, unsigned(b));
      case Opcode::SHR:
        return a >> (b & 63u);
      case Opcode::SLT:
        return sgn(a) < sgn(b) ? 1 : 0;
      case Opcode::SLTU:
        return a < b ? 1 : 0;
      case Opcode::MIN:
        return sgn(a) < sgn(b) ? a : b;
      case Opcode::MAX:
        return sgn(a) > sgn(b) ? a : b;
      case Opcode::ADDI:
        return a + uns(imm);
      case Opcode::ANDI:
        return a & uns(imm);
      case Opcode::ORI:
        return a | uns(imm);
      case Opcode::XORI:
        return a ^ uns(imm);
      case Opcode::SHLI:
        return bits::shiftLeft(a, unsigned(uns(imm)));
      case Opcode::SHRI:
        return a >> (uns(imm) & 63u);
      case Opcode::SLTI:
        return sgn(a) < imm ? 1 : 0;
      case Opcode::MOVI:
      case Opcode::FMOVI:
        return uns(imm);
      case Opcode::MOV:
        return a;
      case Opcode::MUL:
        return a * b;       // unsigned: wraps where a signed product is UB
      case Opcode::DIV:
        return sgn(b) == 0 ? 0 : uns(sgn(a) / sgn(b));
      case Opcode::REM:
        return sgn(b) == 0 ? 0 : uns(sgn(a) % sgn(b));
      case Opcode::FADD:
        return fpBits(fp(a) + fp(b));
      case Opcode::FSUB:
        return fpBits(fp(a) - fp(b));
      case Opcode::FMUL:
        return fpBits(fp(a) * fp(b));
      case Opcode::FDIV:
        return fpBits(fp(a) / fp(b));
      case Opcode::FMIN:
        return fpBits(std::fmin(fp(a), fp(b)));
      case Opcode::FMAX:
        return fpBits(std::fmax(fp(a), fp(b)));
      case Opcode::FNEG:
        return fpBits(-fp(a));
      case Opcode::FABS:
        return fpBits(std::fabs(fp(a)));
      case Opcode::FSQRT:
        return fpBits(std::sqrt(fp(a)));
      case Opcode::FCLT:
        return fp(a) < fp(b) ? 1 : 0;
      case Opcode::CVTIF:
        return fpBits(double(sgn(a)));
      case Opcode::CVTFI:
        return uns(std::int64_t(fp(a)));
      case Opcode::CALL:
        return std::uint64_t(pc) + 1;
      default:
        panic("golden model: op ", int(op), " produces no value");
    }
}

/** Resolve a conditional branch's direction. */
bool
branchTaken(isa::Opcode op, std::uint64_t a, std::uint64_t b)
{
    using isa::Opcode;
    switch (op) {
      case Opcode::BEQ:
        return a == b;
      case Opcode::BNE:
        return a != b;
      case Opcode::BLT:
        return sgn(a) < sgn(b);
      case Opcode::BGE:
        return sgn(a) >= sgn(b);
      default:
        panic("golden model: op ", int(op), " is not a cond branch");
    }
}

} // namespace

GoldenModel::GoldenModel(const isa::Program &program,
                         const mem::FunctionalMemory &initial_memory)
    : prog(program), state{.mem = initial_memory}
{
}

GoldenEffect
GoldenModel::step()
{
    GoldenEffect eff;
    if (state.isHalted)
        panic("golden model stepped past HALT");
    if (state.curPc >= prog.size())
        panic("golden model PC ", state.curPc, " out of bounds");

    const isa::StaticInst &inst = prog.inst(state.curPc);
    eff.pc = state.curPc;
    eff.nextPc = state.curPc + 1;

    const std::uint64_t a =
        inst.src1 == REG_INVALID ? 0 : state.regs[inst.src1];
    const std::uint64_t b =
        inst.src2 == REG_INVALID ? 0 : state.regs[inst.src2];

    using isa::Opcode;
    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        state.isHalted = true;
        eff.halted = true;
        break;
      case Opcode::LD:
      case Opcode::FLD:
        eff.isMem = true;
        eff.effAddr = a + uns(inst.imm);
        eff.dest = inst.dest;
        eff.destValue = state.mem.read64(eff.effAddr);
        state.regs[inst.dest] = eff.destValue;
        break;
      case Opcode::ST:
      case Opcode::FST:
        eff.isMem = true;
        eff.effAddr = a + uns(inst.imm);
        state.mem.write64(eff.effAddr, b);
        break;
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
        eff.taken = branchTaken(inst.op, a, b);
        if (eff.taken)
            eff.nextPc = InstAddr(inst.imm);
        break;
      case Opcode::JMP:
        eff.taken = true;
        eff.nextPc = InstAddr(inst.imm);
        break;
      case Opcode::CALL:
        eff.taken = true;
        eff.dest = inst.dest;
        eff.destValue =
            computeValue(inst.op, a, b, inst.imm, state.curPc);
        state.regs[inst.dest] = eff.destValue;
        eff.nextPc = InstAddr(inst.imm);
        break;
      case Opcode::RET:
        eff.taken = true;
        eff.nextPc = InstAddr(a);
        break;
      default:
        eff.dest = inst.dest;
        eff.destValue =
            computeValue(inst.op, a, b, inst.imm, state.curPc);
        state.regs[inst.dest] = eff.destValue;
        break;
    }

    if (!state.isHalted)
        state.curPc = eff.nextPc;
    return eff;
}

// ---------------------------------------------------------------------
// LockstepChecker
// ---------------------------------------------------------------------

LockstepChecker::LockstepChecker(const isa::DynamicTrace &t,
                                 const mem::FunctionalMemory &initial,
                                 ViolationSink &s)
    : trace(t), golden(t.program(), initial), sink(s)
{
}

void
LockstepChecker::diverged(SeqNum idx, Cycle now, const std::string &what)
{
    state.dead = true;
    std::ostringstream os;
    os << "golden-model divergence at record " << idx << ": " << what
       << "\n--- last " << state.window.size() << " commits ---\n";
    dumpWindow(os);
    sink.report("golden", now, os.str());
}

void
LockstepChecker::checkRecord(SeqNum idx, bool via_fabric, Cycle now)
{
    if (idx >= trace.size()) {
        diverged(idx, now, "commit beyond end of trace (size " +
                               std::to_string(trace.size()) + ")");
        return;
    }
    if (golden.halted()) {
        diverged(idx, now, "commit after golden model halted");
        return;
    }

    const isa::DynRecord &rec = trace[idx];
    if (golden.pc() != rec.pc) {
        diverged(idx, now,
                 "control flow: golden pc " + std::to_string(golden.pc()) +
                     " != trace pc " + std::to_string(rec.pc));
        return;
    }

    const GoldenEffect eff = golden.step();
    const isa::StaticInst &inst = trace.program().inst(rec.pc);

    if (eff.nextPc != rec.nextPc) {
        diverged(idx, now,
                 "nextPc: golden " + std::to_string(eff.nextPc) +
                     " != trace " + std::to_string(rec.nextPc));
        return;
    }
    if (inst.isControl() && eff.taken != rec.taken) {
        diverged(idx, now, "branch outcome: golden " +
                               std::to_string(eff.taken) + " != trace " +
                               std::to_string(rec.taken));
        return;
    }
    if (inst.isMem() && eff.effAddr != rec.effAddr) {
        std::ostringstream os;
        os << "effective address: golden 0x" << std::hex << eff.effAddr
           << " != trace 0x" << rec.effAddr;
        diverged(idx, now, os.str());
        return;
    }

    state.window.push_back({idx, rec.pc, via_fabric, now});
    if (state.window.size() > windowSize)
        state.window.pop_front();
    state.checked++;
}

void
LockstepChecker::onCommit(SeqNum first_idx, std::uint32_t count,
                          bool via_fabric, Cycle now)
{
    if (state.dead || !count)
        return;

    if (first_idx != state.nextIdx) {
        diverged(first_idx, now,
                 "commit-order break: expected record " +
                     std::to_string(state.nextIdx) + ", got " +
                     std::to_string(first_idx) +
                     (via_fabric ? " (fabric invocation)" : ""));
        return;
    }

    for (std::uint32_t i = 0; i < count && !state.dead; i++)
        checkRecord(first_idx + i, via_fabric, now);
    if (!state.dead)
        state.nextIdx = first_idx + count;
}

void
LockstepChecker::finish(Cycle now)
{
    if (state.dead)
        return;
    if (state.nextIdx != trace.size()) {
        diverged(state.nextIdx, now,
                 "run ended with only " + std::to_string(state.nextIdx) +
                     " of " + std::to_string(trace.size()) +
                     " records committed");
    }
}

void
LockstepChecker::dumpWindow(std::ostream &os) const
{
    for (const CommitEvent &ev : state.window) {
        os << "  [" << ev.idx << "] cycle " << ev.cycle << " pc " << ev.pc
           << " " << trace.program().inst(ev.pc).toString()
           << (ev.viaFabric ? "  (fabric)" : "") << "\n";
    }
}

} // namespace dynaspam::check
