/**
 * @file
 * The DynaSpAM micro-ISA opcode set and its static classification.
 *
 * The ISA is a register-register RISC with 32 integer and 32 floating-point
 * architectural registers, compare-and-branch instructions, and 8-byte
 * loads/stores. It is deliberately small: the evaluation depends on the
 * *structure* of the dynamic instruction stream (operation mix, branch
 * behaviour, memory access pattern), not on a commercial encoding.
 */

#ifndef DYNASPAM_ISA_OPCODES_HH
#define DYNASPAM_ISA_OPCODES_HH

#include <cstdint>
#include <string_view>

#include "common/types.hh"

namespace dynaspam::isa
{

/** Every operation the micro-ISA supports. */
enum class Opcode : std::uint8_t
{
    NOP,
    // Integer ALU, register-register.
    ADD, SUB, AND, OR, XOR, SHL, SHR, SLT, SLTU,
    MIN,    ///< signed minimum (models cmov-style branchless selects)
    MAX,    ///< signed maximum
    // Integer ALU, register-immediate.
    ADDI, ANDI, ORI, XORI, SHLI, SHRI, SLTI,
    // Register moves / immediates.
    MOVI,   ///< dest <- imm
    MOV,    ///< dest <- src1
    // Long-latency integer.
    MUL, DIV, REM,
    // Floating point (operands in FP registers).
    FADD, FSUB, FMIN, FMAX, FNEG, FABS,
    FMUL, FDIV, FSQRT,
    FCLT,   ///< int dest <- (fp src1 < fp src2)
    CVTIF,  ///< fp dest <- (double)(int64) int src1
    CVTFI,  ///< int dest <- (int64) fp src1
    FMOVI,  ///< fp dest <- bit pattern imm (used for fp constants)
    // Memory (8-byte). Effective address = int src1 + imm.
    LD,     ///< int dest <- mem[ea]
    ST,     ///< mem[ea] <- int src2
    FLD,    ///< fp dest <- mem[ea]
    FST,    ///< mem[ea] <- fp src2
    // Control. Branch target is a static-instruction index in imm.
    BEQ, BNE, BLT, BGE,
    JMP,    ///< unconditional direct jump
    CALL,   ///< dest <- return PC; jump to imm
    RET,    ///< jump to int src1 (return address)
    HALT,   ///< stop the program

    NUM_OPCODES
};

/** Number of Opcode values (snapshot decode range check). */
constexpr unsigned
enumCount(Opcode)
{
    return unsigned(Opcode::NUM_OPCODES);
}

/**
 * Scheduling class of an operation: selects the functional-unit type and
 * base execution latency.
 */
enum class OpClass : std::uint8_t
{
    IntAlu,
    IntMult,
    IntDiv,
    FloatAdd,   ///< FP add/sub/min/max/neg/abs/cmp/convert
    FloatMult,
    FloatDiv,   ///< FP div and sqrt
    MemRead,
    MemWrite,
    Branch,     ///< all control transfers
    No_OpClass, ///< NOP / HALT
};

/** Functional-unit types present in both the OOO pipeline and the fabric. */
enum class FuType : std::uint8_t
{
    IntAlu,     ///< also executes branches
    IntMulDiv,
    FpAlu,
    FpMulDiv,
    Ldst,
    None,

    NUM_FU_TYPES
};

/** @return the scheduling class of @p op. */
constexpr OpClass
opClass(Opcode op)
{
    switch (op) {
      case Opcode::MUL:
        return OpClass::IntMult;
      case Opcode::DIV:
      case Opcode::REM:
        return OpClass::IntDiv;
      case Opcode::FADD:
      case Opcode::FSUB:
      case Opcode::FMIN:
      case Opcode::FMAX:
      case Opcode::FNEG:
      case Opcode::FABS:
      case Opcode::FCLT:
      case Opcode::CVTIF:
      case Opcode::CVTFI:
      case Opcode::FMOVI:
        return OpClass::FloatAdd;
      case Opcode::FMUL:
        return OpClass::FloatMult;
      case Opcode::FDIV:
      case Opcode::FSQRT:
        return OpClass::FloatDiv;
      case Opcode::LD:
      case Opcode::FLD:
        return OpClass::MemRead;
      case Opcode::ST:
      case Opcode::FST:
        return OpClass::MemWrite;
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::JMP:
      case Opcode::CALL:
      case Opcode::RET:
        return OpClass::Branch;
      case Opcode::NOP:
      case Opcode::HALT:
        return OpClass::No_OpClass;
      default:
        return OpClass::IntAlu;
    }
}

/** @return the functional-unit type that executes @p cls. */
constexpr FuType
fuTypeFor(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::No_OpClass:
        return FuType::IntAlu;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return FuType::IntMulDiv;
      case OpClass::FloatAdd:
        return FuType::FpAlu;
      case OpClass::FloatMult:
      case OpClass::FloatDiv:
        return FuType::FpMulDiv;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return FuType::Ldst;
    }
    return FuType::IntAlu;
}

/**
 * @return the base execution latency, in cycles, of @p cls. Memory reads
 * add the cache access time on top of this address-generation cycle.
 */
constexpr unsigned
opLatency(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::No_OpClass:
        return 1;
      case OpClass::IntMult:
        return 3;
      case OpClass::IntDiv:
        return 12;
      case OpClass::FloatAdd:
        return 3;
      case OpClass::FloatMult:
        return 4;
      case OpClass::FloatDiv:
        return 12;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return 1;
    }
    return 1;
}

/** @return true when @p op transfers control. */
constexpr bool
isControl(Opcode op)
{
    return opClass(op) == OpClass::Branch;
}

/** @return true for the conditional branches (not JMP/CALL/RET). */
constexpr bool
isCondBranch(Opcode op)
{
    return op == Opcode::BEQ || op == Opcode::BNE || op == Opcode::BLT ||
           op == Opcode::BGE;
}

/** @return true when @p op reads memory. */
constexpr bool
isLoad(Opcode op)
{
    return opClass(op) == OpClass::MemRead;
}

/** @return true when @p op writes memory. */
constexpr bool
isStore(Opcode op)
{
    return opClass(op) == OpClass::MemWrite;
}

/** @return the mnemonic for @p op. */
std::string_view opcodeName(Opcode op);

} // namespace dynaspam::isa

#endif // DYNASPAM_ISA_OPCODES_HH
