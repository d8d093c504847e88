/**
 * @file
 * Unit tests for the micro-ISA: opcode classification, program builder,
 * functional executor semantics and dynamic trace generation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "check/golden.hh"
#include "common/logging.hh"
#include "isa/executor.hh"
#include "isa/opcodes.hh"
#include "isa/program.hh"
#include "isa/trace.hh"
#include "memory/functional_mem.hh"

using namespace dynaspam;
using namespace dynaspam::isa;

namespace
{

isa::ExecResult
runProgram(Program &prog, mem::FunctionalMemory &memory,
           DynamicTrace *trace = nullptr)
{
    return Executor::run(prog, memory, trace);
}

} // namespace

TEST(Opcodes, ClassificationIsConsistent)
{
    EXPECT_EQ(opClass(Opcode::ADD), OpClass::IntAlu);
    EXPECT_EQ(opClass(Opcode::MUL), OpClass::IntMult);
    EXPECT_EQ(opClass(Opcode::DIV), OpClass::IntDiv);
    EXPECT_EQ(opClass(Opcode::FADD), OpClass::FloatAdd);
    EXPECT_EQ(opClass(Opcode::FMUL), OpClass::FloatMult);
    EXPECT_EQ(opClass(Opcode::FDIV), OpClass::FloatDiv);
    EXPECT_EQ(opClass(Opcode::LD), OpClass::MemRead);
    EXPECT_EQ(opClass(Opcode::FST), OpClass::MemWrite);
    EXPECT_EQ(opClass(Opcode::BEQ), OpClass::Branch);
    EXPECT_EQ(opClass(Opcode::RET), OpClass::Branch);
}

TEST(Opcodes, FuMappingMatchesTable4)
{
    EXPECT_EQ(fuTypeFor(OpClass::IntAlu), FuType::IntAlu);
    EXPECT_EQ(fuTypeFor(OpClass::Branch), FuType::IntAlu);
    EXPECT_EQ(fuTypeFor(OpClass::IntMult), FuType::IntMulDiv);
    EXPECT_EQ(fuTypeFor(OpClass::IntDiv), FuType::IntMulDiv);
    EXPECT_EQ(fuTypeFor(OpClass::FloatAdd), FuType::FpAlu);
    EXPECT_EQ(fuTypeFor(OpClass::FloatMult), FuType::FpMulDiv);
    EXPECT_EQ(fuTypeFor(OpClass::FloatDiv), FuType::FpMulDiv);
    EXPECT_EQ(fuTypeFor(OpClass::MemRead), FuType::Ldst);
    EXPECT_EQ(fuTypeFor(OpClass::MemWrite), FuType::Ldst);
}

TEST(Opcodes, LatenciesAreOrdered)
{
    EXPECT_EQ(opLatency(OpClass::IntAlu), 1u);
    EXPECT_GT(opLatency(OpClass::IntMult), opLatency(OpClass::IntAlu));
    EXPECT_GT(opLatency(OpClass::IntDiv), opLatency(OpClass::IntMult));
    EXPECT_GT(opLatency(OpClass::FloatDiv), opLatency(OpClass::FloatMult));
}

TEST(RegisterSpace, IntAndFpRegionsDisjoint)
{
    EXPECT_FALSE(isFpReg(intReg(0)));
    EXPECT_FALSE(isFpReg(intReg(31)));
    EXPECT_TRUE(isFpReg(fpReg(0)));
    EXPECT_TRUE(isFpReg(fpReg(31)));
    EXPECT_EQ(fpReg(0), NUM_INT_REGS);
}

TEST(ProgramBuilder, ForwardAndBackwardLabelsResolve)
{
    ProgramBuilder b("labels");
    b.movi(intReg(1), 0);
    b.label("head");
    b.addi(intReg(1), intReg(1), 1);
    b.movi(intReg(2), 5);
    b.blt(intReg(1), intReg(2), "head");   // backward
    b.jmp("end");                          // forward
    b.movi(intReg(3), 99);                 // skipped
    b.label("end");
    b.halt();
    Program p = b.build();

    mem::FunctionalMemory memory;
    auto result = runProgram(p, memory);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.regs.read(intReg(1)), 5u);
    EXPECT_EQ(result.regs.read(intReg(3)), 0u);  // jmp skipped it
}

TEST(ProgramBuilder, UndefinedLabelIsFatal)
{
    ProgramBuilder b;
    b.jmp("nowhere");
    b.halt();
    EXPECT_THROW(b.build(), FatalError);
}

TEST(ProgramBuilder, DuplicateLabelIsFatal)
{
    ProgramBuilder b;
    b.label("x");
    EXPECT_THROW(b.label("x"), FatalError);
}

TEST(Executor, IntegerArithmetic)
{
    ProgramBuilder b;
    b.movi(intReg(1), 20);
    b.movi(intReg(2), 3);
    b.add(intReg(3), intReg(1), intReg(2));
    b.sub(intReg(4), intReg(1), intReg(2));
    b.mul(intReg(5), intReg(1), intReg(2));
    b.div(intReg(6), intReg(1), intReg(2));
    b.rem(intReg(7), intReg(1), intReg(2));
    b.slt(intReg(8), intReg(2), intReg(1));
    b.shli(intReg(9), intReg(2), 4);
    b.halt();
    Program p = b.build();

    mem::FunctionalMemory memory;
    auto result = runProgram(p, memory);
    EXPECT_EQ(result.regs.read(intReg(3)), 23u);
    EXPECT_EQ(result.regs.read(intReg(4)), 17u);
    EXPECT_EQ(result.regs.read(intReg(5)), 60u);
    EXPECT_EQ(result.regs.read(intReg(6)), 6u);
    EXPECT_EQ(result.regs.read(intReg(7)), 2u);
    EXPECT_EQ(result.regs.read(intReg(8)), 1u);
    EXPECT_EQ(result.regs.read(intReg(9)), 48u);
}

TEST(Executor, SignedComparisonsAndNegatives)
{
    ProgramBuilder b;
    b.movi(intReg(1), -5);
    b.movi(intReg(2), 3);
    b.slt(intReg(3), intReg(1), intReg(2));   // -5 < 3 -> 1
    b.slti(intReg(4), intReg(1), -10);        // -5 < -10 -> 0
    b.div(intReg(5), intReg(1), intReg(2));   // -5 / 3 = -1
    b.halt();
    Program p = b.build();

    mem::FunctionalMemory memory;
    auto result = runProgram(p, memory);
    EXPECT_EQ(result.regs.read(intReg(3)), 1u);
    EXPECT_EQ(result.regs.read(intReg(4)), 0u);
    EXPECT_EQ(std::int64_t(result.regs.read(intReg(5))), -1);
}

TEST(Executor, DivideByZeroYieldsZero)
{
    ProgramBuilder b;
    b.movi(intReg(1), 7);
    b.movi(intReg(2), 0);
    b.div(intReg(3), intReg(1), intReg(2));
    b.rem(intReg(4), intReg(1), intReg(2));
    b.halt();
    Program p = b.build();

    mem::FunctionalMemory memory;
    auto result = runProgram(p, memory);
    EXPECT_EQ(result.regs.read(intReg(3)), 0u);
    EXPECT_EQ(result.regs.read(intReg(4)), 0u);
}

TEST(Executor, MinDividedByMinusOneWraps)
{
    // INT64_MIN / -1 overflows int64: the quotient wraps to INT64_MIN
    // and the remainder is 0, in the executor and the golden model
    // alike, instead of trapping.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    for (bool remainder : {false, true}) {
        ProgramBuilder b;
        b.movi(intReg(1), kMin);
        b.movi(intReg(2), -1);
        if (remainder)
            b.rem(intReg(3), intReg(1), intReg(2));
        else
            b.div(intReg(3), intReg(1), intReg(2));
        b.halt();
        Program p = b.build();
        const std::uint64_t expected =
            remainder ? 0u : std::uint64_t(kMin);

        mem::FunctionalMemory memory;
        auto result = runProgram(p, memory);
        EXPECT_EQ(result.regs.read(intReg(3)), expected)
            << (remainder ? "rem" : "div");

        check::GoldenModel golden(p, memory);
        while (!golden.halted())
            golden.step();
        EXPECT_EQ(golden.reg(intReg(3)), expected)
            << (remainder ? "rem" : "div") << " (golden model)";
    }
}

TEST(Executor, FloatingPointArithmetic)
{
    ProgramBuilder b;
    b.fmovi(fpReg(1), 1.5);
    b.fmovi(fpReg(2), 2.0);
    b.fadd(fpReg(3), fpReg(1), fpReg(2));
    b.fmul(fpReg(4), fpReg(1), fpReg(2));
    b.fdiv(fpReg(5), fpReg(2), fpReg(1));
    b.fsqrt(fpReg(6), fpReg(2));
    b.fclt(intReg(1), fpReg(1), fpReg(2));
    b.cvtfi(intReg(2), fpReg(4));
    b.movi(intReg(3), 7);
    b.cvtif(fpReg(7), intReg(3));
    b.halt();
    Program p = b.build();

    mem::FunctionalMemory memory;
    auto result = runProgram(p, memory);
    EXPECT_DOUBLE_EQ(result.regs.readF(fpReg(3)), 3.5);
    EXPECT_DOUBLE_EQ(result.regs.readF(fpReg(4)), 3.0);
    EXPECT_DOUBLE_EQ(result.regs.readF(fpReg(5)), 2.0 / 1.5);
    EXPECT_DOUBLE_EQ(result.regs.readF(fpReg(6)), std::sqrt(2.0));
    EXPECT_EQ(result.regs.read(intReg(1)), 1u);
    EXPECT_EQ(result.regs.read(intReg(2)), 3u);
    EXPECT_DOUBLE_EQ(result.regs.readF(fpReg(7)), 7.0);
}

TEST(Executor, LoadStoreRoundTrip)
{
    ProgramBuilder b;
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(2), 0xdead);
    b.st(intReg(1), intReg(2), 8);
    b.ld(intReg(3), intReg(1), 8);
    b.fmovi(fpReg(1), 2.75);
    b.fst(intReg(1), fpReg(1), 16);
    b.fld(fpReg(2), intReg(1), 16);
    b.halt();
    Program p = b.build();

    mem::FunctionalMemory memory;
    auto result = runProgram(p, memory);
    EXPECT_EQ(result.regs.read(intReg(3)), 0xdeadu);
    EXPECT_DOUBLE_EQ(result.regs.readF(fpReg(2)), 2.75);
    EXPECT_EQ(memory.read64(0x1008), 0xdeadu);
    EXPECT_DOUBLE_EQ(memory.readDouble(0x1010), 2.75);
}

TEST(Executor, CallAndReturn)
{
    ProgramBuilder b;
    b.movi(intReg(1), 1);
    b.call(intReg(31), "func");
    b.addi(intReg(1), intReg(1), 100);  // runs after return
    b.halt();
    b.label("func");
    b.addi(intReg(1), intReg(1), 10);
    b.ret(intReg(31));
    Program p = b.build();

    mem::FunctionalMemory memory;
    auto result = runProgram(p, memory);
    EXPECT_EQ(result.regs.read(intReg(1)), 111u);
}

TEST(Executor, NonHaltingProgramIsFatal)
{
    ProgramBuilder b;
    b.label("spin");
    b.jmp("spin");
    Program p = b.build();

    mem::FunctionalMemory memory;
    EXPECT_THROW(Executor::run(p, memory, nullptr, 1000), FatalError);
}

TEST(DynamicTrace, RecordsBranchOutcomesAndAddresses)
{
    ProgramBuilder b;
    b.movi(intReg(1), 0);        // pc 0
    b.movi(intReg(2), 3);        // pc 1
    b.movi(intReg(3), 0x2000);   // pc 2
    b.label("head");
    b.st(intReg(3), intReg(1), 0);            // pc 3
    b.addi(intReg(3), intReg(3), 8);          // pc 4
    b.addi(intReg(1), intReg(1), 1);          // pc 5
    b.blt(intReg(1), intReg(2), "head");      // pc 6
    b.halt();                                  // pc 7
    Program p = b.build();

    mem::FunctionalMemory memory;
    DynamicTrace trace(p);
    auto result = Executor::run(p, memory, &trace);
    EXPECT_TRUE(result.halted);
    // 3 setup + 3 iterations * 4 + halt = 16 records.
    ASSERT_EQ(trace.size(), 16u);

    // First store effective address is 0x2000; second iteration's is 0x2008.
    EXPECT_EQ(trace[3].effAddr, 0x2000u);
    EXPECT_EQ(trace[7].effAddr, 0x2008u);

    // The loop branch at pc 6: taken twice, then not taken.
    EXPECT_TRUE(trace[6].taken);
    EXPECT_EQ(trace[6].nextPc, 3u);
    EXPECT_TRUE(trace[10].taken);
    EXPECT_FALSE(trace[14].taken);
    EXPECT_EQ(trace[14].nextPc, 7u);

    // Trace next PCs form a connected chain.
    for (SeqNum i = 0; i + 1 < trace.size(); i++)
        EXPECT_EQ(trace[i].nextPc, trace[i + 1].pc);
}

TEST(Disassembly, ProducesReadableListing)
{
    ProgramBuilder b("disasm");
    b.movi(intReg(1), 7);
    b.fmovi(fpReg(0), 1.0);
    b.ld(intReg(2), intReg(1), 16);
    b.beq(intReg(1), intReg(2), "done");
    b.label("done");
    b.halt();
    Program p = b.build();
    std::string text = p.disassemble();
    EXPECT_NE(text.find("movi r1, 7"), std::string::npos);
    EXPECT_NE(text.find("ld r2, 16(r1)"), std::string::npos);
    EXPECT_NE(text.find("beq r1, r2, @4"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
}
