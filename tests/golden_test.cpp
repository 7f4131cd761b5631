//===- tests/golden_test.cpp - Pinned run fingerprints --------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Golden fingerprints: cycles, retired instructions and trace hash of
// fixed programs, pinned to literal values under both engines. The
// differential tests compare the fast path with the reference loop, but
// the two share their stage code, so a change that alters both alike
// passes them; these values catch it. The matmul and phases cells are
// the BENCH_simspeed.json workloads that src/workloads rebuilds exactly
// (same values as recorded there); the Det-C cells cover the compiled
// corpus in examples/detc, including the p_swre/p_lwre result-slot path
// of chunked_sum.c; the wide cell is the 64-core fork/join program of
// tests/WideForkJoin.h, whose teams spread from 1 to 256 harts. The two
// p_syncm cells (tests/data/syncm_ack.s and syncm_release.s, 1 and 4
// cores) pin when a p_syncm fetch block holds and when it is released:
// a store issued in the cycle of the previous store's ack keeps it up,
// the case where the core step must re-test fetch after an issue, and a
// block decoded with nothing in flight is released in that cycle even
// on a hart that loses the fetch slot.
//
// A legitimate change to the simulated machine moves these values; the
// change must then say so and update them together with
// BENCH_simspeed.json. A host-side change (engine, data layout, hashing
// speed-ups) must leave every one of them alone.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "frontend/Compiler.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"

#include "WideForkJoin.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace lbp;
using namespace lbp::sim;

namespace {

struct Golden {
  uint64_t Cycles;
  uint64_t Retired;
  uint64_t Hash;
};

/// Runs \p Asm on \p Cfg under the reference loop and the fast path and
/// expects both to exit with the pinned fingerprint.
void expectGolden(const std::string &Asm, SimConfig Cfg, const Golden &Want,
                  const std::string &What) {
  assembler::AsmResult A = assembler::assemble(Asm);
  ASSERT_TRUE(A.succeeded()) << What << ": " << A.errorText();
  for (bool Fast : {false, true}) {
    Cfg.FastPath = Fast;
    Machine M(Cfg);
    M.load(A.Prog);
    RunStatus St = M.run(50000000);
    const char *Engine = Fast ? "fastpath" : "reference";
    EXPECT_EQ(St, RunStatus::Exited) << What << " " << Engine << ": "
                                     << M.faultMessage();
    EXPECT_EQ(M.cycles(), Want.Cycles) << What << " " << Engine;
    EXPECT_EQ(M.retired(), Want.Retired) << What << " " << Engine;
    EXPECT_EQ(M.traceHash(), Want.Hash)
        << What << " " << Engine
        << formatString(": hash %016llx",
                        static_cast<unsigned long long>(M.traceHash()));
  }
}

void expectMatMulGolden(unsigned Harts, workloads::MatMulVersion V,
                        const Golden &Want) {
  workloads::MatMulSpec Spec = workloads::MatMulSpec::paper(Harts, V);
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  expectGolden(workloads::buildMatMulProgram(Spec), Cfg, Want,
               std::string("matmul-") + workloads::matMulVersionName(V));
}

void expectPhasesGolden(unsigned Harts, const Golden &Want) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = Harts;
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  expectGolden(workloads::buildPhasesProgram(Spec), Cfg, Want,
               "phases-" + std::to_string(Harts));
}

/// examples/detc/<Name>.c compiled to assembly ("" plus a recorded
/// failure when it is missing or does not compile).
std::string compileDetCExample(const std::string &Name) {
  std::string Path =
      std::string(LBP_SOURCE_DIR "/examples/detc/") + Name + ".c";
  std::ifstream In(Path);
  if (!In.good()) {
    ADD_FAILURE() << "cannot open " << Path;
    return "";
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Errors;
  std::string Asm = frontend::compileDetCToAsm(Buf.str(), Errors);
  if (Asm.empty())
    ADD_FAILURE() << Name << ":\n" << Errors;
  return Asm;
}

TEST(Golden, MatMulBaseC4) {
  expectMatMulGolden(16, workloads::MatMulVersion::Base,
                     {5446, 17973, 0x54528cfadb8d5e3eULL});
}

TEST(Golden, MatMulTiledC16) {
  expectMatMulGolden(64, workloads::MatMulVersion::Tiled,
                     {93698, 1421265, 0x75c6d0734536f571ULL});
}

TEST(Golden, Phases16Harts) {
  expectPhasesGolden(16, {3860, 8483, 0x0ddac0bd52dbbb2dULL});
}

TEST(Golden, Phases64Harts) {
  expectPhasesGolden(64, {10472, 33947, 0x8e902576b88cff5dULL});
}

TEST(Golden, WideForkJoin64Cores) {
  expectGolden(test::wideForkJoinProgram(), test::wideConfig(),
               {40641, 34142, 0xf0eb282e9401453aULL}, "wide-forkjoin");
}

TEST(Golden, DetCCorpus) {
  struct Cell {
    const char *Name;
    Golden Want;
  };
  const Cell Corpus[] = {
      {"chunked_sum", {575, 522, 0x67ff08bdce85380cULL}},
      {"histogram_private", {3495, 3268, 0x754aaa7aa8b99998ULL}},
      {"histogram_shared", {1697, 1540, 0x53de88dd49ed90cdULL}},
      {"indirect_gather", {374, 303, 0xd16fc922e5a7a240ULL}},
      {"indirect_gather_ranged", {1197, 1727, 0xf5a2a53020b0aeeeULL}},
      {"phased_stencil", {1587, 1367, 0xc1b7a81244fc9443ULL}},
      {"stencil_halo", {903, 809, 0xe642e601ae038c43ULL}},
      {"stencil_halo_wrap", {409, 327, 0x7a43460843a77d1eULL}},
      {"vector_scale", {736, 633, 0xf9696d45b7242917ULL}},
  };
  for (const Cell &C : Corpus) {
    std::string Asm = compileDetCExample(C.Name);
    ASSERT_FALSE(Asm.empty());
    expectGolden(Asm, SimConfig::lbp(4), C.Want,
                 std::string("detc ") + C.Name);
  }
}

/// Pins tests/data/<Name>.s at 1 and 4 cores on both engines.
void expectDataProgramGolden(const std::string &Name, const Golden &Want) {
  std::string Path = std::string(LBP_SOURCE_DIR "/tests/data/") + Name + ".s";
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Src;
  Src << In.rdbuf();
  for (unsigned Cores : {1u, 4u})
    expectGolden(Src.str(), SimConfig::lbp(Cores), Want,
                 Name + " c" + std::to_string(Cores));
}

TEST(Golden, SyncmHoldsThroughAStoreIssuedAsTheLastAckLands) {
  // In the cycle the first store's ack drains OutstandingMem, the second
  // store issues and raises it again before fetch tests the p_syncm
  // block, so the block holds.
  expectDataProgramGolden("syncm_ack", {23, 13, 0x1be6cab6c9365420ULL});
}

TEST(Golden, SyncmReleasedAtDecodeStaysReleased) {
  // A p_syncm decoded with nothing in flight is released by that
  // cycle's fetch stage although the other hart wins the fetch, so the
  // store its hart issues next cycle does not block it again.
  expectDataProgramGolden("syncm_release", {46, 32, 0xb6e0bae5080b8c90ULL});
}

TEST(Golden, ChunkedSumExercisesResultSlots) {
  // The pinned chunked_sum cell is the corpus's cover for the
  // p_swre -> p_lwre path that gates issue on a result slot filling.
  std::string Asm = compileDetCExample("chunked_sum");
  EXPECT_NE(Asm.find("p_swre"), std::string::npos);
  EXPECT_NE(Asm.find("p_lwre"), std::string::npos);
}

} // namespace
