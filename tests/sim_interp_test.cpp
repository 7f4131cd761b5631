//===- tests/sim_interp_test.cpp - Reference interpreter tests ------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The sequential reference interpreter: basic execution, the X_PAR
// sequential semantics (the paper's "referential sequential order"),
// and agreement with the Machine on sequential programs.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "sim/Interp.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::sim;

namespace {

assembler::Program assembleOk(const std::string &Src) {
  assembler::AsmResult R = assembler::assemble(Src);
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  return std::move(R.Prog);
}

TEST(Interp, RunsArithmeticToExit) {
  assembler::Program P = assembleOk(R"(
main:
    li a0, 6
    li a1, 7
    mul a2, a0, a1
    la a3, 0x20000000
    sw a2, 0(a3)
    p_ret
)");
  Interp I(P);
  EXPECT_EQ(I.run(1000), InterpStatus::Exited);
  EXPECT_EQ(I.readWord(0x20000000), 42u);
  EXPECT_EQ(I.steps(), 7u); // li, li, mul, lui, addi, sw, p_ret
}

TEST(Interp, StopsOnBadInstruction) {
  assembler::Program P = assembleOk("main:\n  jr zero\n");
  Interp I(P);
  // Jumps to address 0 which is `jr zero` itself? No: jr zero jumps to
  // 0; the word at 0 is the jr itself, looping; budget runs out.
  EXPECT_EQ(I.run(100), InterpStatus::MaxSteps);
}

TEST(Interp, BudgetIsHonored) {
  assembler::Program P = assembleOk(R"(
main:
loop:
    addi a0, a0, 1
    j loop
)");
  Interp I(P);
  EXPECT_EQ(I.run(500), InterpStatus::MaxSteps);
  EXPECT_EQ(I.steps(), 500u);
}

TEST(Interp, BadResultSlotFaultsLikeTheMachine) {
  // A slot past the result buffer is a fault on the machine, so the
  // sequential reference must not accept the program either.
  for (const char *Op : {"p_lwre a0, 99", "p_swre zero, a0, 99"}) {
    std::string Src = std::string("main:\n    ") + Op +
                      "\n    li ra, 0\n    li t0, -1\n    p_ret\n";
    assembler::Program P = assembleOk(Src);
    Interp I(P);
    EXPECT_EQ(I.run(100), InterpStatus::Fault) << Op;
    EXPECT_EQ(I.pc(), P.entry()) << Op;

    Machine M(SimConfig::lbp(1));
    M.load(P);
    EXPECT_EQ(M.run(1000), RunStatus::Fault) << Op;
  }
}

TEST(Interp, SequentialForkRunsFunctionThenContinuation) {
  // The referential order: p_jalr runs the "thread" first, then the
  // continuation, in one stream.
  assembler::Program P = assembleOk(R"(
main:
    p_set t0
    li t6, 0
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la a0, child
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4
    la a1, 0x20000004
    li a2, 2
    sw a2, 0(a1)
    li ra, 0
    li t0, -1
    p_ret

child:
    la a1, 0x20000000
    li a2, 1
    sw a2, 0(a1)
    p_ret
)");
  Interp I(P);
  ASSERT_EQ(I.run(1000), InterpStatus::Exited);
  EXPECT_EQ(I.readWord(0x20000000), 1u);
  EXPECT_EQ(I.readWord(0x20000004), 2u);
}

TEST(Interp, AgreesWithTheMachineOnSequentialCode) {
  const char *Src = R"(
main:
    li a0, 0
    li a1, 1
    li a2, 500
loop:
    add a0, a0, a1
    addi a1, a1, 1
    mul a3, a1, a1
    rem a4, a3, a2
    bne a1, a2, loop
    la a5, 0x20000000
    sw a0, 0(a5)
    sw a4, 4(a5)
    p_syncm
    li ra, 0
    li t0, -1
    p_ret
)";
  assembler::Program P = assembleOk(Src);
  Interp I(P);
  ASSERT_EQ(I.run(100000), InterpStatus::Exited);

  Machine M(SimConfig::lbp(1));
  M.load(assembleOk(Src));
  ASSERT_EQ(M.run(1000000), RunStatus::Exited);

  EXPECT_EQ(M.debugReadWord(0x20000000), I.readWord(0x20000000));
  EXPECT_EQ(M.debugReadWord(0x20000004), I.readWord(0x20000004));
  // The sequential step count equals the machine's retired count: the
  // machine reorders execution, never the instruction stream.
  EXPECT_EQ(I.steps(), M.retired());
}

} // namespace
