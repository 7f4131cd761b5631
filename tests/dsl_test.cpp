//===- tests/dsl_test.cpp - Kernel compiler tests ------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Compiles kernel-language modules and runs them on the simulated LBP:
// expressions, loops, calls, parallel-for teams, reductions, and the
// instruction-count anchor for the matmul inner loop (exactly seven
// instructions per iteration, paper Sec. 7).
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "dsl/Ast.h"
#include "dsl/CodeGen.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::dsl;
using namespace lbp::sim;

namespace {

constexpr uint32_t OutAddr = 0x20000c00;

Machine compileAndRun(const Module &M, unsigned Cores,
                      uint64_t MaxCycles = 3000000) {
  std::string Asm = compileModule(M);
  assembler::AsmResult R = assembler::assemble(Asm);
  EXPECT_TRUE(R.succeeded()) << R.errorText() << "\n" << Asm;
  Machine Mach(SimConfig::lbp(Cores));
  Mach.load(R.Prog);
  RunStatus S = Mach.run(MaxCycles);
  EXPECT_EQ(S, RunStatus::Exited) << Mach.faultMessage() << "\n" << Asm;
  return Mach;
}

TEST(Dsl, ConstantStore) {
  Module M;
  M.global("out", OutAddr, 1);
  Function *Main = M.function("main", FnKind::Main);
  Main->append(M.store(M.addrOf("out"), 0, M.c(42)));
  Main->append(M.syncm());
  Machine Mach = compileAndRun(M, 1);
  EXPECT_EQ(Mach.debugReadWord(OutAddr), 42u);
}

TEST(Dsl, ArithmeticExpressionTree) {
  // out = (3 + 4) * (10 - 2) - (20 / 5) = 56 - 4 = 52.
  Module M;
  M.global("out", OutAddr, 1);
  Function *Main = M.function("main", FnKind::Main);
  const Expr *E =
      M.sub(M.mul(M.add(M.c(3), M.c(4)), M.sub(M.c(10), M.c(2))),
            M.bin(BinOp::Div, M.c(20), M.c(5)));
  Main->append(M.store(M.addrOf("out"), 0, E));
  Main->append(M.syncm());
  Machine Mach = compileAndRun(M, 1);
  EXPECT_EQ(Mach.debugReadWord(OutAddr), 52u);
}

TEST(Dsl, WhileLoopSum) {
  // out = sum(1..100) = 5050.
  Module M;
  M.global("out", OutAddr, 1);
  Function *Main = M.function("main", FnKind::Main);
  const Local *Acc = Main->local("acc");
  const Local *I = Main->local("i");
  Main->append(M.assign(Acc, M.c(0)));
  Main->append(M.assign(I, M.c(1)));
  Main->append(M.whileStmt(CmpOp::Le, M.v(I), M.c(100),
                           {M.assign(Acc, M.add(M.v(Acc), M.v(I))),
                            M.assign(I, M.add(M.v(I), M.c(1)))}));
  Main->append(M.store(M.addrOf("out"), 0, M.v(Acc)));
  Main->append(M.syncm());
  Machine Mach = compileAndRun(M, 1);
  EXPECT_EQ(Mach.debugReadWord(OutAddr), 5050u);
}

TEST(Dsl, IfElse) {
  // out[i] = i < 3 ? 10+i : 20+i for i in 0..5.
  Module M;
  M.global("out", OutAddr, 8);
  Function *Main = M.function("main", FnKind::Main);
  const Local *I = Main->local("i");
  const Local *P = Main->local("p");
  Main->append(M.assign(I, M.c(0)));
  Main->append(M.assign(P, M.addrOf("out")));
  Main->append(M.whileStmt(
      CmpOp::Lt, M.v(I), M.c(6),
      {M.ifStmt(CmpOp::Lt, M.v(I), M.c(3),
                {M.store(M.v(P), 0, M.add(M.v(I), M.c(10)))},
                {M.store(M.v(P), 0, M.add(M.v(I), M.c(20)))}),
       M.assign(P, M.add(M.v(P), M.c(4))),
       M.assign(I, M.add(M.v(I), M.c(1)))}));
  Main->append(M.syncm());
  Machine Mach = compileAndRun(M, 1);
  uint32_t Expect[6] = {10, 11, 12, 23, 24, 25};
  for (unsigned K = 0; K != 6; ++K)
    EXPECT_EQ(Mach.debugReadWord(OutAddr + 4 * K), Expect[K]) << K;
}

TEST(Dsl, FunctionCallWithResult) {
  // square(x) = x*x; out = square(12) + square(5) = 169.
  Module M;
  M.global("out", OutAddr, 1);

  Function *Sq = M.function("square");
  const Local *X = Sq->param("x");
  Sq->append(M.ret(M.mul(M.v(X), M.v(X))));

  Function *Main = M.function("main", FnKind::Main);
  const Local *A = Main->local("a");
  const Local *B = Main->local("b");
  Main->append(M.call("square", {M.c(12)}, A));
  Main->append(M.call("square", {M.c(5)}, B));
  Main->append(M.store(M.addrOf("out"), 0, M.add(M.v(A), M.v(B))));
  Main->append(M.syncm());
  Machine Mach = compileAndRun(M, 1);
  EXPECT_EQ(Mach.debugReadWord(OutAddr), 169u);
}

TEST(Dsl, LoadWidths) {
  Module M;
  M.globalData("in", 0x20000d00, {0xFFFFFF80u});
  M.global("out", OutAddr, 3);
  Function *Main = M.function("main", FnKind::Main);
  const Local *P = Main->local("p");
  Main->append(M.assign(P, M.addrOf("in")));
  Main->append(
      M.store(M.addrOf("out"), 0, M.load(M.v(P), 0, 1, true)));  // -128
  Main->append(
      M.store(M.addrOf("out"), 4, M.load(M.v(P), 0, 1, false))); // 128
  Main->append(
      M.store(M.addrOf("out"), 8, M.load(M.v(P), 0, 2, false))); // 0xFF80
  Main->append(M.syncm());
  Machine Mach = compileAndRun(M, 1);
  EXPECT_EQ(Mach.debugReadWord(OutAddr), 0xFFFFFF80u);
  EXPECT_EQ(Mach.debugReadWord(OutAddr + 4), 0x80u);
  EXPECT_EQ(Mach.debugReadWord(OutAddr + 8), 0xFF80u);
}

TEST(Dsl, ParallelForTeamOf16) {
  // thread(t): out[t] = t * t.
  Module M;
  M.global("out", OutAddr, 16);

  Function *Thread = M.function("thread", FnKind::Thread);
  const Local *T = Thread->param("t");
  const Local *P = Thread->local("p");
  Thread->append(
      M.assign(P, M.add(M.addrOf("out"), M.shl(M.v(T), 2))));
  Thread->append(M.store(M.v(P), 0, M.mul(M.v(T), M.v(T))));

  Function *Main = M.function("main", FnKind::Main);
  Main->append(M.parallelFor("thread", 16));

  Machine Mach = compileAndRun(M, 4);
  for (unsigned K = 0; K != 16; ++K)
    EXPECT_EQ(Mach.debugReadWord(OutAddr + 4 * K), K * K) << K;
}

TEST(Dsl, ParallelReduction) {
  // Every member sends t*2; main folds 8 partials: 2*(0+..+7) = 56.
  Module M;
  M.global("out", OutAddr, 1);

  Function *Thread = M.function("thread", FnKind::Thread);
  const Local *T = Thread->param("t");
  Thread->append(M.reduceSend(M.mul(M.v(T), M.c(2))));

  Function *Main = M.function("main", FnKind::Main);
  const Local *Acc = Main->local("acc");
  Main->append(M.assign(Acc, M.c(0)));
  Main->append(M.parallelFor("thread", 8));
  Main->append(M.reduceCollect(Acc, 8));
  Main->append(M.store(M.addrOf("out"), 0, M.v(Acc)));
  Main->append(M.syncm());

  Machine Mach = compileAndRun(M, 2);
  EXPECT_EQ(Mach.debugReadWord(OutAddr), 56u);
}

TEST(Dsl, MainLocalsSurviveParallelRegions) {
  // Locals of main live in s-registers; thread bodies that use
  // s-registers save and restore them, so main's state survives the
  // team that ran member 0 on main's hart.
  Module M;
  M.global("out", OutAddr, 1);

  Function *Thread = M.function("thread", FnKind::Thread);
  const Local *T = Thread->param("t");
  // Force many locals so the thread spills into s-registers.
  const Local *L[10];
  for (unsigned K = 0; K != 10; ++K)
    L[K] = Thread->local(std::string("l") + std::to_string(K));
  std::vector<const Stmt *> Body;
  for (unsigned K = 0; K != 10; ++K)
    Body.push_back(M.assign(L[K], M.add(M.v(T), M.c(K))));
  const Expr *Sum = M.v(L[0]);
  for (unsigned K = 1; K != 10; ++K)
    Sum = M.add(Sum, M.v(L[K]));
  Body.push_back(M.store(M.add(M.addrOf("out"), M.c(0)), 0, Sum));
  for (const Stmt *S : Body)
    Thread->append(S);

  Function *Main = M.function("main", FnKind::Main);
  const Local *Keep = Main->local("keep");
  Main->append(M.assign(Keep, M.c(31415)));
  Main->append(M.parallelFor("thread", 4));
  Main->append(M.store(M.addrOf("out"), 0, M.v(Keep)));
  Main->append(M.syncm());

  Machine Mach = compileAndRun(M, 1);
  EXPECT_EQ(Mach.debugReadWord(OutAddr), 31415u);
}

// The fidelity anchor: the matmul inner loop must be exactly the
// paper's seven instructions (2 loads, mul, add, 2 increments, branch).
TEST(Dsl, MatmulInnerLoopIsSevenInstructions) {
  Module M;
  Function *F = M.function("kernel", FnKind::Thread);
  const Local *Px = F->param("px");
  const Local *Py = F->param("py");
  const Local *End = F->param("end");
  const Local *Acc = F->local("acc");
  F->append(M.assign(Acc, M.c(0)));
  F->append(M.doWhile(
      {M.assign(Acc, M.add(M.v(Acc),
                           M.mul(M.load(M.v(Px)), M.load(M.v(Py))))),
       M.assign(Px, M.add(M.v(Px), M.c(4))),
       M.assign(Py, M.add(M.v(Py), M.c(64)))},
      CmpOp::Ne, M.v(Px), M.v(End)));
  F->append(M.reduceSend(M.v(Acc)));
  Function *Main = M.function("main", FnKind::Main);
  Main->append(M.parallelFor("kernel", 1));

  std::string Asm = compileModule(M);
  // Count the instructions between the loop label and the branch.
  size_t Loop = Asm.find(".Ldw");
  ASSERT_NE(Loop, std::string::npos) << Asm;
  size_t BodyStart = Asm.find('\n', Loop) + 1;
  size_t Branch = Asm.find("bne", BodyStart);
  ASSERT_NE(Branch, std::string::npos) << Asm;
  size_t BranchEnd = Asm.find('\n', Branch);
  unsigned Instrs = 0;
  for (size_t P = BodyStart; P < BranchEnd;
       P = Asm.find('\n', P) + 1) {
    size_t LineEnd = Asm.find('\n', P);
    std::string Line = Asm.substr(P, LineEnd - P);
    if (!Line.empty() && Line.back() == ':')
      continue; // labels are free
    ++Instrs;
  }
  EXPECT_EQ(Instrs, 7u) << Asm;
}

TEST(Dsl, CompiledProgramsAreDeterministic) {
  Module M;
  M.global("out", OutAddr, 16);
  Function *Thread = M.function("thread", FnKind::Thread);
  const Local *T = Thread->param("t");
  Thread->append(M.store(M.add(M.addrOf("out"), M.shl(M.v(T), 2)), 0,
                         M.mul(M.v(T), M.c(3))));
  Function *Main = M.function("main", FnKind::Main);
  Main->append(M.parallelFor("thread", 16));

  Machine M1 = compileAndRun(M, 4);
  Machine M2 = compileAndRun(M, 4);
  EXPECT_EQ(M1.cycles(), M2.cycles());
  EXPECT_EQ(M1.traceHash(), M2.traceHash());
}

} // namespace
