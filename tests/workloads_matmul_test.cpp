//===- tests/workloads_matmul_test.cpp - Matmul workload correctness ----------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Every one of the paper's five matmul versions must compute Z = X * Y
// exactly (X = Y = all ones, so Z = h/2 everywhere), at the 4-core and
// 16-core machine sizes, and the base version's retired-instruction
// count must sit at the paper's anchor (7 * h^3/2 plus small overhead).
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "sim/Machine.h"
#include "workloads/MatMul.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::sim;
using namespace lbp::workloads;

namespace {

Machine runSpec(const MatMulSpec &Spec, uint64_t MaxCycles = 30000000) {
  std::string Asm = buildMatMulProgram(Spec);
  assembler::AsmResult R = assembler::assemble(Asm);
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  Machine M(SimConfig::lbp(Spec.cores()));
  M.load(R.Prog);
  RunStatus S = M.run(MaxCycles);
  EXPECT_EQ(S, RunStatus::Exited) << M.faultMessage();
  return M;
}

void expectCorrectZ(Machine &M, const MatMulSpec &Spec) {
  unsigned H = Spec.h();
  unsigned Bad = 0;
  for (unsigned I = 0; I != H && Bad < 8; ++I) {
    for (unsigned J = 0; J != H && Bad < 8; ++J) {
      uint32_t Got = M.debugReadWord(zElementAddress(Spec, I, J));
      if (Got != H / 2) {
        ADD_FAILURE() << "Z[" << I << "][" << J << "] = " << Got
                      << ", want " << H / 2;
        ++Bad;
      }
    }
  }
}

struct Param {
  unsigned NumHarts;
  MatMulVersion V;
  // gtest prints a parameter without operator<< as its raw bytes, and
  // ctest registers the tests under names that include them: spell the
  // padding out as zeroed members so those names are the same on every
  // build instead of carrying whatever the stack held.
  uint8_t Pad[3] = {};
};
static_assert(sizeof(Param) == 8, "Param must have no implicit padding");

class MatMulAll : public ::testing::TestWithParam<Param> {};

TEST_P(MatMulAll, ComputesTheProduct) {
  MatMulSpec Spec;
  Spec.NumHarts = GetParam().NumHarts;
  Spec.Version = GetParam().V;
  Machine M = runSpec(Spec);
  expectCorrectZ(M, Spec);
}

std::string paramName(const ::testing::TestParamInfo<Param> &Info) {
  std::string N = matMulVersionName(Info.param.V);
  for (char &C : N)
    if (C == '+')
      C = '_';
  return N + "_h" + std::to_string(Info.param.NumHarts);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, MatMulAll,
    ::testing::Values(Param{16, MatMulVersion::Base},
                      Param{16, MatMulVersion::Copy},
                      Param{16, MatMulVersion::Distributed},
                      Param{16, MatMulVersion::DistCopy},
                      Param{16, MatMulVersion::Tiled},
                      Param{64, MatMulVersion::Base},
                      Param{64, MatMulVersion::Copy},
                      Param{64, MatMulVersion::Distributed},
                      Param{64, MatMulVersion::DistCopy},
                      Param{64, MatMulVersion::Tiled}),
    paramName);

TEST(MatMulAnchors, BaseRetiredCountMatchesThePaperShape) {
  // Paper Fig. 19: the 4-core base version retires ~16.7K instructions:
  // 7 * h^3/2 = 14336 from the inner loop plus ~2.4K of outer loops and
  // parallelization control.
  MatMulSpec Spec;
  Spec.NumHarts = 16;
  Spec.Version = MatMulVersion::Base;
  Machine M = runSpec(Spec);
  uint64_t Inner = 7ull * 16 * 16 * 8;
  EXPECT_GE(M.retired(), Inner);
  EXPECT_LE(M.retired(), Inner + 4000) << "outer-loop overhead too large";
}

TEST(MatMulAnchors, TiledRetiresMoreInstructionsThanBase) {
  // Paper Fig. 21: tiling costs extra instructions (+23% at h=256).
  MatMulSpec Base{64, MatMulVersion::Base, 16};
  MatMulSpec Tiled{64, MatMulVersion::Tiled, 16};
  Machine MB = runSpec(Base);
  Machine MT = runSpec(Tiled);
  EXPECT_GT(MT.retired(), MB.retired());
  EXPECT_LT(MT.retired(), MB.retired() * 3 / 2);
}

TEST(MatMulAnchors, RunsAreDeterministic) {
  MatMulSpec Spec{16, MatMulVersion::Tiled, 16};
  Machine M1 = runSpec(Spec);
  Machine M2 = runSpec(Spec);
  EXPECT_EQ(M1.cycles(), M2.cycles());
  EXPECT_EQ(M1.retired(), M2.retired());
  EXPECT_EQ(M1.traceHash(), M2.traceHash());
}

} // namespace
