//===- tests/differential_test.cpp - Random differential testing ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Property test of the whole pipeline against a tiny reference ISS:
// random (seeded) programs of ALU work, bounded loops and memory traffic
// must leave exactly the same architectural memory state on the
// out-of-order LBP core as on a plain sequential interpreter. This
// checks operand capture, the wakeup logic, store/load ordering under
// p_syncm, and the in-order commit machinery all at once.
//
// Then the engine differential: the fast path against the reference
// loop it must be indistinguishable from, over every paper workload,
// the Det-C corpus, protocol-heavy fork/join programs (up to 64- and
// 128-core lines), a six-case fault matrix, MaxCycles truncation and the
// timeline exports.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "frontend/Compiler.h"
#include "isa/AddressMap.h"
#include "isa/Encoding.h"
#include "isa/HartRef.h"
#include "isa/Reg.h"
#include "obs/Perfetto.h"
#include "obs/Report.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Interp.h"
#include "sim/Machine.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/Pipeline.h"

#include "WideForkJoin.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace lbp;
using namespace lbp::isa;
using namespace lbp::sim;

namespace {

/// Generates a random but well-formed program: ALU soup over registers
/// a0-a7/s0-s7, bounded counted loops, global stores/loads separated by
/// p_syncm, finishing with a register dump to memory and the exit.
std::string generateProgram(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::string S = "main:\n";
  const char *Work[] = {"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
                        "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"};
  constexpr unsigned NumWork = 16;
  auto R = [&] { return Work[Rng.nextBelow(NumWork)]; };

  // Seed registers with values.
  for (unsigned K = 0; K != NumWork; ++K)
    S += formatString("  li %s, %d\n", Work[K],
                      static_cast<int32_t>(Rng.next()));

  unsigned NumLoops = 0;
  for (unsigned Step = 0; Step != 120; ++Step) {
    switch (Rng.nextBelow(8)) {
    case 0:
    case 1:
    case 2: { // register-register ALU
      static const char *Ops[] = {"add", "sub", "xor", "or",  "and",
                                  "sll", "srl", "sra", "slt", "sltu",
                                  "mul", "mulh", "div", "rem"};
      S += formatString("  %s %s, %s, %s\n", Ops[Rng.nextBelow(14)], R(),
                        R(), R());
      break;
    }
    case 3: { // immediate ALU
      static const char *Ops[] = {"addi", "xori", "ori", "andi", "slti"};
      S += formatString("  %s %s, %s, %d\n", Ops[Rng.nextBelow(5)], R(),
                        R(), static_cast<int>(Rng.nextBelow(4096)) - 2048);
      break;
    }
    case 4: { // shift immediate
      static const char *Ops[] = {"slli", "srli", "srai"};
      S += formatString("  %s %s, %s, %u\n", Ops[Rng.nextBelow(3)], R(),
                        R(), static_cast<unsigned>(Rng.nextBelow(32)));
      break;
    }
    case 5: { // store + syncm + load through a scratch slot
      unsigned Slot = static_cast<unsigned>(Rng.nextBelow(16));
      S += formatString("  li t1, 0x20000%03x\n", Slot * 4);
      S += formatString("  sw %s, 0(t1)\n", R());
      S += "  p_syncm\n";
      S += formatString("  lw %s, 0(t1)\n", R());
      // LBP loads and stores are unordered within a hart (paper
      // Sec. 4): a conforming program must drain this load before a
      // later store may target the same slot.
      S += "  p_syncm\n";
      break;
    }
    case 6: { // bounded counted loop of small ALU work
      if (NumLoops == 8)
        break; // keep total work bounded
      unsigned Count = 1 + static_cast<unsigned>(Rng.nextBelow(6));
      std::string Label = formatString("loop_%u", NumLoops++);
      S += formatString("  li t2, %u\n", Count);
      S += Label + ":\n";
      S += formatString("  add %s, %s, %s\n", R(), R(), R());
      S += formatString("  addi %s, %s, %d\n", R(), R(),
                        static_cast<int>(Rng.nextBelow(64)));
      S += "  addi t2, t2, -1\n";
      S += formatString("  bnez t2, %s\n", Label.c_str());
      break;
    }
    default: { // conditional skip (forward branch)
      std::string Label = formatString("skip_%u", Step);
      static const char *Br[] = {"beq", "bne", "blt", "bge", "bltu",
                                 "bgeu"};
      S += formatString("  %s %s, %s, %s\n", Br[Rng.nextBelow(6)], R(),
                        R(), Label.c_str());
      S += formatString("  add %s, %s, %s\n", R(), R(), R());
      S += Label + ":\n";
      break;
    }
    }
  }

  // Dump every working register into the result area.
  S += "  li t1, 0x20000400\n";
  for (unsigned K = 0; K != NumWork; ++K)
    S += formatString("  sw %s, %u(t1)\n", Work[K], 4 * K);
  S += "  p_syncm\n  li ra, 0\n  li t0, -1\n  p_ret\n";
  return S;
}

class Differential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Differential, MachineMatchesReferenceIss) {
  for (uint64_t Sub = 0; Sub != 10; ++Sub) {
    uint64_t Seed = GetParam() * 1000 + Sub;
    std::string Src = generateProgram(Seed);
    assembler::AsmResult R = assembler::assemble(Src);
    ASSERT_TRUE(R.succeeded()) << R.errorText() << "\n" << Src;

    Interp Iss(R.Prog);
    ASSERT_EQ(Iss.run(100000), InterpStatus::Exited)
        << "oracle did not finish, seed " << Seed;

    Machine M(SimConfig::lbp(1));
    M.load(R.Prog);
    ASSERT_EQ(M.run(1000000), RunStatus::Exited)
        << M.faultMessage() << " seed " << Seed;

    for (unsigned K = 0; K != 16; ++K) {
      uint32_t Addr = 0x20000400 + 4 * K;
      EXPECT_EQ(M.debugReadWord(Addr), Iss.readWord(Addr))
          << "register dump slot " << K << ", seed " << Seed;
    }
    for (unsigned Slot = 0; Slot != 16; ++Slot) {
      uint32_t Addr = 0x20000000 + 4 * Slot;
      EXPECT_EQ(M.debugReadWord(Addr), Iss.readWord(Addr))
          << "scratch slot " << Slot << ", seed " << Seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           0xC0FFEEull));

//===----------------------------------------------------------------------===//
// FastPath differential: the fast engine (SimConfig::FastPath — active-
// set scheduling that skips sleeping cores, pre-decoded text) must be an
// exact no-op on the observable run: same RunStatus, same final cycle count,
// same retired count, same cycle-by-cycle trace hash, same machine
// checks and same counter snapshot, stall tallies included, as the
// reference every-core-every-cycle loop. docs/PERFORMANCE.md states the
// contract; these tests enforce it over every paper workload plus the
// Det-C corpus and the random-program generator above.
//===----------------------------------------------------------------------===//

/// The observable fingerprint of a run; any divergence between the two
/// engines is a fast-path bug by definition. Counters is the full
/// canonical snapshot (obs::countersToJson), stall tallies included, so
/// every comparison also proves counter bit-identity.
struct RunFingerprint {
  RunStatus Status;
  uint64_t Cycles;
  uint64_t Retired;
  uint64_t Hash;
  std::string Message;
  std::vector<MachineCheck> Checks;
  std::string Counters;
};

/// Runs \p Prog with the counters on and, unless \p Stalls is false,
/// the stall tallies.
RunFingerprint runWith(const assembler::Program &Prog, SimConfig Cfg,
                       bool FastPath, uint64_t MaxCycles,
                       bool Stalls = true) {
  Cfg.FastPath = FastPath;
  Cfg.CollectCounters = true;
  Cfg.CollectStallStats = Stalls;
  Machine M(Cfg);
  M.load(Prog);
  RunStatus S = M.run(MaxCycles);
  return {S,
          M.cycles(),
          M.retired(),
          M.traceHash(),
          M.faultMessage(),
          M.machineChecks(),
          obs::countersToJson(M)};
}

/// Expects \p Got to match \p Want on everything but the counters.
void expectSameRun(const RunFingerprint &Want, const RunFingerprint &Got,
                   const std::string &What) {
  EXPECT_EQ(static_cast<int>(Want.Status), static_cast<int>(Got.Status))
      << What;
  EXPECT_EQ(Want.Cycles, Got.Cycles) << What;
  EXPECT_EQ(Want.Retired, Got.Retired) << What;
  EXPECT_EQ(Want.Hash, Got.Hash) << What;
  EXPECT_EQ(Want.Message, Got.Message) << What;
  ASSERT_EQ(Want.Checks.size(), Got.Checks.size()) << What;
  for (size_t I = 0; I != Want.Checks.size(); ++I) {
    EXPECT_EQ(Want.Checks[I].Cycle, Got.Checks[I].Cycle) << What;
    EXPECT_EQ(static_cast<int>(Want.Checks[I].Kind),
              static_cast<int>(Got.Checks[I].Kind))
        << What;
    EXPECT_EQ(Want.Checks[I].Hart, Got.Checks[I].Hart) << What;
    EXPECT_EQ(Want.Checks[I].Message, Got.Checks[I].Message) << What;
  }
}

/// Assembles \p Src and runs it with stall tallies, FastPath off then
/// on, expecting identical fingerprints; then once more on the fast path
/// without them, the configuration the benchmarks time, expecting the
/// same run. Programs that fault or hit MaxCycles are compared too —
/// truncated and failed runs must also be bit-identical.
void expectFastPathIdentical(const std::string &Src, SimConfig Cfg,
                             const std::string &What,
                             uint64_t MaxCycles = 2000000) {
  assembler::AsmResult R = assembler::assemble(Src);
  ASSERT_TRUE(R.succeeded()) << What << ":\n" << R.errorText();
  RunFingerprint Ref = runWith(R.Prog, Cfg, /*FastPath=*/false, MaxCycles);
  RunFingerprint Fast = runWith(R.Prog, Cfg, /*FastPath=*/true, MaxCycles);
  expectSameRun(Ref, Fast, What);
  EXPECT_EQ(Ref.Counters, Fast.Counters) << What;
  RunFingerprint Bare = runWith(R.Prog, Cfg, /*FastPath=*/true, MaxCycles,
                                /*Stalls=*/false);
  expectSameRun(Ref, Bare, What + " without stall tallies");
}

/// The fault matrix the workloads below are swept through: clean, one
/// plan per fault class, and a mixed plan. Window and seed values are
/// chosen so each class actually fires on these workloads.
struct FaultCase {
  const char *Name;
  unsigned Drops, Delays, BitFlips, StuckBanks;
};
constexpr FaultCase FaultCases[] = {
    {"clean", 0, 0, 0, 0},      {"drops", 2, 0, 0, 0},
    {"delays", 0, 2, 0, 0},     {"bitflips", 0, 0, 2, 0},
    {"stuckbanks", 0, 0, 0, 2}, {"mixed", 1, 1, 1, 1},
};

SimConfig withFaults(SimConfig Cfg, const FaultCase &F, uint64_t Seed) {
  Cfg.Faults.Seed = Seed;
  Cfg.Faults.Drops = F.Drops;
  Cfg.Faults.Delays = F.Delays;
  Cfg.Faults.BitFlips = F.BitFlips;
  Cfg.Faults.StuckBanks = F.StuckBanks;
  Cfg.Faults.WindowBegin = 50;
  Cfg.Faults.WindowEnd = 4000;
  return Cfg;
}

void sweepFaults(const std::string &Src, SimConfig Cfg,
                 const std::string &What) {
  for (const FaultCase &F : FaultCases)
    expectFastPathIdentical(Src, withFaults(Cfg, F, 0xF00Dull),
                            What + "/" + F.Name);
}

/// A romp fork/join loop: \p Rounds back-to-back parallel regions whose
/// \p NumHarts members run \p Worker (assembly defining `worker`).
std::string forkJoinProgram(unsigned NumHarts, unsigned Rounds,
                            const std::string &Worker) {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  Head.line("li s1, %u", Rounds);
  Head.label("round");
  romp::emitParallelCall(Head, "worker", NumHarts, "0");
  Head.line("addi s1, s1, -1");
  Head.line("bnez s1, round");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() + Worker;
}

/// Barrier-heavy: workers do almost nothing, so the fork/join protocol
/// and the ending-token chain dominate.
std::string barrierProgram(unsigned NumHarts, unsigned Rounds) {
  return forkJoinProgram(NumHarts, Rounds, R"(
    .equ OUT, 0x20000200
worker:
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)");
}

/// Long quiescent stretches: each hart spins in a private ALU loop with
/// no memory traffic between the fork and the join. A spinning core
/// waits only on its own timers, so it stays awake; the fast path skips
/// a core only once its harts have ended or wait on a delivery.
std::string quiescentProgram(unsigned NumHarts, unsigned Rounds,
                             unsigned SpinIters) {
  return forkJoinProgram(NumHarts, Rounds, formatString(R"(
    .equ OUT, 0x20000200
worker:
    li a2, %u
spin:
    addi a2, a2, -1
    bnez a2, spin
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)",
                                                        SpinIters));
}

/// Dense remote traffic: every hart hammers the *next* core's global
/// bank through the router tree.
std::string crossBankProgram(unsigned NumHarts, unsigned Rounds,
                             unsigned Iters) {
  return forkJoinProgram(NumHarts, Rounds, formatString(R"(
worker:
    srli a4, a0, 2          # core id (4 harts per core)
    addi a4, a4, 1
    andi a4, a4, 3          # (core + 1) %% NumCores: always remote
    slli a4, a4, 16         # << GlobalBankSizeLog2 (64 KiB banks)
    li a5, 0x20000000
    add a4, a4, a5
    slli a6, a0, 2
    add a4, a4, a6          # per-hart word in the remote bank
    li a2, %u
loop:
    sw a0, 0(a4)
    p_syncm
    lw a6, 0(a4)
    p_syncm
    addi a2, a2, -1
    bnez a2, loop
    p_ret
)",
                                                        Iters));
}

/// The 16-hart phases workload, with its machine configuration in
/// \p Cfg.
std::string phasesProgram(SimConfig &Cfg) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  return workloads::buildPhasesProgram(Spec);
}

TEST(FastPathDifferential, RandomPrograms) {
  for (uint64_t Seed : {11ull, 23ull, 99ull, 4242ull, 0xBEEFull})
    expectFastPathIdentical(generateProgram(Seed), SimConfig::lbp(1),
                            formatString("random program seed %llu",
                                         static_cast<unsigned long long>(
                                             Seed)));
}

TEST(FastPathDifferential, RandomProgramsFourCores) {
  // The same single-hart programs on the 4-core machine: the other
  // cores have nothing to run, so the fast path keeps them asleep while
  // hart 0 works through its memory traffic.
  for (uint64_t Seed : {3ull, 77ull, 0xABCDull})
    expectFastPathIdentical(generateProgram(Seed), SimConfig::lbp(4),
                            formatString("random program seed %llu, 4 cores",
                                         static_cast<unsigned long long>(
                                             Seed)));
}

TEST(FastPathDifferential, MatMulAllVersions) {
  using workloads::MatMulSpec;
  using workloads::MatMulVersion;
  for (MatMulVersion V :
       {MatMulVersion::Base, MatMulVersion::Copy, MatMulVersion::Distributed,
        MatMulVersion::DistCopy, MatMulVersion::Tiled}) {
    MatMulSpec Spec = MatMulSpec::paper(16, V);
    SimConfig Cfg = SimConfig::lbp(Spec.cores());
    Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
    expectFastPathIdentical(workloads::buildMatMulProgram(Spec), Cfg,
                            std::string("matmul-") +
                                workloads::matMulVersionName(V));
  }
}

TEST(FastPathDifferential, PhasesAndPipeline) {
  SimConfig PCfg;
  std::string PSrc = phasesProgram(PCfg);
  expectFastPathIdentical(PSrc, PCfg, "phases");

  workloads::PipelineSpec LSpec;
  SimConfig LCfg = SimConfig::lbp(LSpec.cores());
  LCfg.GlobalBankSizeLog2 = LSpec.BankSizeLog2;
  expectFastPathIdentical(workloads::buildPipelineProgram(LSpec), LCfg,
                          "pipeline");
}

constexpr const char *DetCCorpus[] = {"vector_scale", "chunked_sum",
                                      "phased_stencil"};

/// Compiles examples/detc/<Name>.c to assembly; records a failure and
/// returns "" when the file is missing or does not compile.
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

TEST(FastPathDifferential, DetCCorpus) {
  for (const char *Name : DetCCorpus) {
    std::string Asm = compileDetCExample(Name);
    ASSERT_FALSE(Asm.empty());
    expectFastPathIdentical(Asm, SimConfig::lbp(4),
                            std::string("detc ") + Name);
  }
}

TEST(FastPathDifferential, DetCCorpusUnderFaults) {
  for (const char *Name : DetCCorpus) {
    std::string Asm = compileDetCExample(Name);
    ASSERT_FALSE(Asm.empty());
    sweepFaults(Asm, SimConfig::lbp(4), std::string("detc-") + Name);
  }
}

TEST(FastPathDifferential, BarrierUnderFaults) {
  sweepFaults(barrierProgram(/*NumHarts=*/16, /*Rounds=*/6),
              SimConfig::lbp(4), "barrier");
}

TEST(FastPathDifferential, QuiescentSpinUnderFaults) {
  sweepFaults(quiescentProgram(/*NumHarts=*/16, /*Rounds=*/3,
                               /*SpinIters=*/300),
              SimConfig::lbp(4), "quiescent");
}

TEST(FastPathDifferential, CrossBankTrafficUnderFaults) {
  sweepFaults(crossBankProgram(/*NumHarts=*/16, /*Rounds=*/2,
                               /*Iters=*/25),
              SimConfig::lbp(4), "crossbank");
}

TEST(FastPathDifferential, PhasesUnderFaults) {
  SimConfig Cfg;
  std::string Src = phasesProgram(Cfg);
  sweepFaults(Src, Cfg, "phases");
}

TEST(FastPathDifferential, MatMulTiledUnderFaults) {
  workloads::MatMulSpec Spec =
      workloads::MatMulSpec::paper(16, workloads::MatMulVersion::Tiled);
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  sweepFaults(workloads::buildMatMulProgram(Spec), Cfg, "matmul-tiled");
}

TEST(FastPathDifferential, TruncationUnderFaults) {
  // A budget that runs out mid-protocol, inside the fault window: the
  // sleeping cores and the fired faults must still line up exactly.
  SimConfig PCfg;
  std::string Phases = phasesProgram(PCfg);
  std::string Barrier = barrierProgram(/*NumHarts=*/16, /*Rounds=*/6);
  for (const FaultCase &F : FaultCases) {
    expectFastPathIdentical(Barrier,
                            withFaults(SimConfig::lbp(4), F, 0xD1CEull),
                            std::string("barrier truncated/") + F.Name,
                            /*MaxCycles=*/777);
    expectFastPathIdentical(Phases, withFaults(PCfg, F, 0xD1CEull),
                            std::string("phases truncated/") + F.Name,
                            /*MaxCycles=*/777);
  }
}

/// Perfetto + JSONL bytes for one run; the sinks observe the canonical
/// stream, so these must be identical for both engines.
struct TimelineCapture {
  std::string Perfetto;
  std::string Jsonl;
};

TimelineCapture captureTimelines(const assembler::Program &Prog,
                                 const SimConfig &Cfg) {
  std::ostringstream POut, JOut;
  Machine M(Cfg);
  obs::PerfettoSink Perfetto(POut, Cfg);
  obs::JsonlSink Jsonl(JOut);
  M.addTraceSink(&Perfetto);
  M.addTraceSink(&Jsonl);
  M.load(Prog);
  M.run(2000000);
  Perfetto.finish(M.cycles());
  return {POut.str(), JOut.str()};
}

TEST(FastPathDifferential, TimelineExportsAreEngineInvariant) {
  assembler::AsmResult R =
      assembler::assemble(barrierProgram(/*NumHarts=*/16, /*Rounds=*/3));
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  for (const FaultCase &F : {FaultCases[0], FaultCases[5]}) {
    SimConfig Cfg = withFaults(SimConfig::lbp(4), F, 0xBEEFull);
    Cfg.FastPath = false;
    TimelineCapture Ref = captureTimelines(R.Prog, Cfg);
    EXPECT_FALSE(Ref.Perfetto.empty());
    EXPECT_EQ(Ref.Perfetto.substr(Ref.Perfetto.size() - 3), "]}\n");
    Cfg.FastPath = true;
    TimelineCapture Fast = captureTimelines(R.Prog, Cfg);
    EXPECT_EQ(Ref.Perfetto, Fast.Perfetto) << F.Name;
    EXPECT_EQ(Ref.Jsonl, Fast.Jsonl) << F.Name;
  }
}

TEST(FastPathDifferential, MaxCyclesTruncation) {
  // A run cut off mid-flight must stop at the same cycle with the same
  // trace whether or not the engine was skipping sleeping cores: both
  // engines charge every cycle against the budget.
  SimConfig Cfg;
  std::string Src = phasesProgram(Cfg);
  for (uint64_t MaxCycles : {100ull, 777ull, 2048ull, 5000ull}) {
    expectFastPathIdentical(
        Src, Cfg,
        formatString("phases truncated at %llu",
                     static_cast<unsigned long long>(MaxCycles)),
        MaxCycles);
  }
}

TEST(FastPathDifferential, TruncationMidQuiescentSkip) {
  // Budgets spread over a run whose spin stretches leave the cores that
  // wait on a delivery asleep: wherever the budget runs out, both engines
  // must stop on the same cycle.
  std::string Src = quiescentProgram(/*NumHarts=*/16, /*Rounds=*/3,
                                     /*SpinIters=*/300);
  assembler::AsmResult R = assembler::assemble(Src);
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  RunFingerprint Full =
      runWith(R.Prog, SimConfig::lbp(4), /*FastPath=*/false, 2000000);
  ASSERT_EQ(static_cast<int>(Full.Status),
            static_cast<int>(RunStatus::Exited));
  for (uint64_t K = 1; K != 8; ++K) {
    uint64_t MaxCycles = Full.Cycles * K / 8 + K;
    expectFastPathIdentical(
        Src, SimConfig::lbp(4),
        formatString("quiescent truncated at %llu",
                     static_cast<unsigned long long>(MaxCycles)),
        MaxCycles);
  }
}

TEST(FastPathDifferential, HartFreeWakesThePreviousCore) {
  // tests/data/pfn_wait.s: a p_fn on core 0 retries for a hart on the
  // full core 1 while nothing else on core 0 can act, so core 0 sleeps.
  // The first hart freed on core 1 wakes it, and the retry succeeds on
  // the next cycle, as on the reference loop.
  std::ifstream In(LBP_SOURCE_DIR "/tests/data/pfn_wait.s");
  ASSERT_TRUE(In.good()) << "cannot open tests/data/pfn_wait.s";
  std::ostringstream Src;
  Src << In.rdbuf();
  assembler::AsmResult R = assembler::assemble(Src.str());
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  for (bool FastPath : {false, true}) {
    RunFingerprint F =
        runWith(R.Prog, SimConfig::lbp(2), FastPath, /*MaxCycles=*/100000);
    EXPECT_EQ(static_cast<int>(F.Status), static_cast<int>(RunStatus::Exited))
        << "FastPath=" << FastPath << ": " << F.Message;
    EXPECT_EQ(F.Cycles, 6179u) << "FastPath=" << FastPath;
    EXPECT_EQ(F.Retired, 8327u) << "FastPath=" << FastPath;
    EXPECT_EQ(F.Hash, 0xbec0704cf0b946ebull) << "FastPath=" << FastPath;
  }
  expectFastPathIdentical(Src.str(), SimConfig::lbp(2), "pfn-wait");
}

//===----------------------------------------------------------------------===//
// Wide machines: at 64 cores the fast path's awake-core set fills one
// 64-bit word, at 128 cores it spans two.
//===----------------------------------------------------------------------===//

TEST(FastPathDifferential, WideForkJoinUnderFaults) {
  sweepFaults(test::wideForkJoinProgram(), test::wideConfig(),
              "wide-forkjoin");
}

TEST(FastPathDifferential, WideForkJoinTruncation) {
  // Budgets that run out while a team is still being built, while the
  // largest team runs and in a narrow region between wide ones.
  for (uint64_t MaxCycles : {333ull, 4321ull, 15000ull, 30001ull})
    expectFastPathIdentical(
        test::wideForkJoinProgram(), test::wideConfig(),
        formatString("wide-forkjoin truncated at %llu",
                     static_cast<unsigned long long>(MaxCycles)),
        MaxCycles);
}

TEST(FastPathDifferential, TwoChipLine) {
  // 128 cores, two 64-core chips (Fig. 15): one 512-hart team spans the
  // line, so cores in both words of the awake set fork, run and retire.
  SimConfig Cfg = SimConfig::lbp(128);
  Cfg.GlobalBankSizeLog2 = 14;
  expectFastPathIdentical(barrierProgram(/*NumHarts=*/512, /*Rounds=*/2),
                          Cfg, "two-chip line");
}

} // namespace
