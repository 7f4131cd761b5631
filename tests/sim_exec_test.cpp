//===- tests/sim_exec_test.cpp - Functional semantics tests --------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The RV32IM data operations, including the division edge cases the
// RISC-V specification pins down, and branch comparisons.
//
//===----------------------------------------------------------------------===//

#include "sim/Exec.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::sim;
using isa::Opcode;

namespace {

uint32_t op(Opcode Op, uint32_t A, uint32_t B, int32_t Imm = 0) {
  return evalOp(Op, A, B, Imm, /*Pc=*/0x1000);
}

TEST(Exec, BasicAlu) {
  EXPECT_EQ(op(Opcode::ADD, 2, 3), 5u);
  EXPECT_EQ(op(Opcode::SUB, 2, 3), 0xFFFFFFFFu);
  EXPECT_EQ(op(Opcode::AND, 0xF0F0, 0xFF00), 0xF000u);
  EXPECT_EQ(op(Opcode::OR, 0xF0F0, 0x0F0F), 0xFFFFu);
  EXPECT_EQ(op(Opcode::XOR, 0xFF, 0x0F), 0xF0u);
  EXPECT_EQ(op(Opcode::SLL, 1, 31), 0x80000000u);
  EXPECT_EQ(op(Opcode::SRL, 0x80000000u, 31), 1u);
  EXPECT_EQ(op(Opcode::SRA, 0x80000000u, 31), 0xFFFFFFFFu);
  EXPECT_EQ(op(Opcode::SLT, 0xFFFFFFFFu, 0), 1u); // -1 < 0 signed
  EXPECT_EQ(op(Opcode::SLTU, 0xFFFFFFFFu, 0), 0u);
}

TEST(Exec, ShiftAmountsUseLowFiveBits) {
  EXPECT_EQ(op(Opcode::SLL, 1, 32), 1u);
  EXPECT_EQ(op(Opcode::SLL, 1, 33), 2u);
}

TEST(Exec, Immediates) {
  EXPECT_EQ(op(Opcode::ADDI, 10, 0, -3), 7u);
  EXPECT_EQ(op(Opcode::SLTI, 0xFFFFFFFEu, 0, -1), 1u);
  EXPECT_EQ(op(Opcode::SLTIU, 5, 0, 6), 1u);
  EXPECT_EQ(op(Opcode::XORI, 0xFF, 0, -1), 0xFFFFFF00u);
  EXPECT_EQ(op(Opcode::SLLI, 3, 0, 4), 48u);
  EXPECT_EQ(op(Opcode::SRAI, 0x80000000u, 0, 4), 0xF8000000u);
}

TEST(Exec, UpperAndLink) {
  EXPECT_EQ(op(Opcode::LUI, 0, 0, 0x20000), 0x20000000u);
  EXPECT_EQ(op(Opcode::AUIPC, 0, 0, 1), 0x1000u + 0x1000u);
  EXPECT_EQ(op(Opcode::JAL, 0, 0, 64), 0x1004u);
  EXPECT_EQ(op(Opcode::JALR, 0, 0, 0), 0x1004u);
}

TEST(Exec, MultiplyFamily) {
  EXPECT_EQ(op(Opcode::MUL, 7, 6), 42u);
  EXPECT_EQ(op(Opcode::MUL, 0x10000, 0x10000), 0u); // low 32 bits
  EXPECT_EQ(op(Opcode::MULH, 0x80000000u, 0x80000000u),
            0x40000000u); // (-2^31)^2 >> 32
  EXPECT_EQ(op(Opcode::MULHU, 0xFFFFFFFFu, 0xFFFFFFFFu), 0xFFFFFFFEu);
  EXPECT_EQ(op(Opcode::MULHSU, 0xFFFFFFFFu, 2), 0xFFFFFFFFu); // -1 * 2
}

TEST(Exec, DivisionEdgeCases) {
  // RISC-V: x / 0 = -1, x % 0 = x.
  EXPECT_EQ(op(Opcode::DIV, 17, 0), 0xFFFFFFFFu);
  EXPECT_EQ(op(Opcode::REM, 17, 0), 17u);
  EXPECT_EQ(op(Opcode::DIVU, 17, 0), 0xFFFFFFFFu);
  EXPECT_EQ(op(Opcode::REMU, 17, 0), 17u);
  // Signed overflow: INT_MIN / -1 = INT_MIN, INT_MIN % -1 = 0.
  EXPECT_EQ(op(Opcode::DIV, 0x80000000u, 0xFFFFFFFFu), 0x80000000u);
  EXPECT_EQ(op(Opcode::REM, 0x80000000u, 0xFFFFFFFFu), 0u);
  // Ordinary signed cases round toward zero.
  EXPECT_EQ(op(Opcode::DIV, static_cast<uint32_t>(-7), 2),
            static_cast<uint32_t>(-3));
  EXPECT_EQ(op(Opcode::REM, static_cast<uint32_t>(-7), 2),
            static_cast<uint32_t>(-1));
}

TEST(Exec, Branches) {
  EXPECT_TRUE(evalBranch(Opcode::BEQ, 5, 5));
  EXPECT_FALSE(evalBranch(Opcode::BEQ, 5, 6));
  EXPECT_TRUE(evalBranch(Opcode::BNE, 5, 6));
  EXPECT_TRUE(evalBranch(Opcode::BLT, 0xFFFFFFFFu, 0)); // -1 < 0
  EXPECT_FALSE(evalBranch(Opcode::BLTU, 0xFFFFFFFFu, 0));
  EXPECT_TRUE(evalBranch(Opcode::BGE, 0, 0));
  EXPECT_TRUE(evalBranch(Opcode::BGEU, 0xFFFFFFFFu, 1));
}

// Property sweep: mul/div identities against 64-bit host arithmetic.
class ExecProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecProperty, DivRemReconstructsDividend) {
  SplitMix64 Rng(GetParam());
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    uint32_t A = static_cast<uint32_t>(Rng.next());
    uint32_t B = static_cast<uint32_t>(Rng.next());
    if (B == 0)
      continue;
    // a == (a/b)*b + a%b in both signednesses.
    uint32_t Q = op(Opcode::DIV, A, B);
    uint32_t R = op(Opcode::REM, A, B);
    EXPECT_EQ(Q * B + R, A);
    uint32_t Qu = op(Opcode::DIVU, A, B);
    uint32_t Ru = op(Opcode::REMU, A, B);
    EXPECT_EQ(Qu * B + Ru, A);
  }
}

TEST_P(ExecProperty, MulhMatchesWideMultiply) {
  SplitMix64 Rng(GetParam() + 99);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    uint32_t A = static_cast<uint32_t>(Rng.next());
    uint32_t B = static_cast<uint32_t>(Rng.next());
    uint64_t WideU = static_cast<uint64_t>(A) * B;
    EXPECT_EQ(op(Opcode::MULHU, A, B), static_cast<uint32_t>(WideU >> 32));
    EXPECT_EQ(op(Opcode::MUL, A, B), static_cast<uint32_t>(WideU));
    int64_t WideS = static_cast<int64_t>(static_cast<int32_t>(A)) *
                    static_cast<int64_t>(static_cast<int32_t>(B));
    EXPECT_EQ(op(Opcode::MULH, A, B),
              static_cast<uint32_t>(static_cast<uint64_t>(WideS) >> 32));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecProperty,
                         ::testing::Values(1ull, 42ull, 0xDEADBEEFull));

} // namespace
