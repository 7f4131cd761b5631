//===- tests/fault_injection_test.cpp - Fault injection & machine checks --------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The robustness layer's contract (docs/ROBUSTNESS.md): injected faults
// are never a silent wrong answer — every perturbed run either completes
// with the correct result (benign timing faults) or is converted into a
// structured, reproducible failure; and the same seed produces the same
// failure at the same cycle on every rerun, on every machine size.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Machine.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::sim;

namespace {

constexpr uint32_t OutBase = 0x20000200;

/// A fork/join team program: NumThreads harts across the line each store
/// t*t into OUT[t]. Exercises every protocol delivery class the fault
/// plan can target (starts, tokens, joins, rb-fills from the
/// continuation loads, bank traffic).
std::string teamProgram(unsigned NumThreads) {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  romp::emitParallelCall(Head, "worker", NumThreads, "0");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() + R"(
    .equ OUT, 0x20000200
worker:
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    mul a6, a0, a0
    sw a6, 0(a4)
    p_syncm
    p_ret
)";
}

struct Outcome {
  RunStatus Status;
  uint64_t Cycles = 0;
  uint64_t Hash = 0;
  std::string Message;
  unsigned FaultsFired = 0;
  size_t ChecksSeen = 0;
  bool OutputCorrect = false;
};

Outcome runTeam(SimConfig Cfg, unsigned NumThreads,
                uint64_t MaxCycles = 2000000) {
  assembler::AsmResult R = assembler::assemble(teamProgram(NumThreads));
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  Machine M(Cfg);
  M.load(R.Prog);
  Outcome O;
  O.Status = M.run(MaxCycles);
  O.Cycles = M.cycles();
  O.Hash = M.traceHash();
  O.Message = M.faultMessage();
  O.FaultsFired = M.faultPlan().firedCount();
  O.ChecksSeen = M.machineChecks().size();
  O.OutputCorrect = true;
  for (unsigned T = 0; T != NumThreads; ++T)
    O.OutputCorrect &= M.debugReadWord(OutBase + 4 * T) == T * T;
  return O;
}

SimConfig faultConfig(unsigned Cores, uint64_t Seed) {
  SimConfig Cfg = SimConfig::lbp(Cores);
  Cfg.ProgressGuard = 20000; // keep undetected-loss livelocks fast
  Cfg.Faults.Seed = Seed;
  Cfg.Faults.WindowBegin = 1;
  Cfg.Faults.WindowEnd = 600; // the fault-free run lasts ~680 cycles
  return Cfg;
}

void expectIdentical(const Outcome &A, const Outcome &B,
                     const std::string &What) {
  EXPECT_EQ(A.Status, B.Status) << What;
  EXPECT_EQ(A.Cycles, B.Cycles) << What;
  EXPECT_EQ(A.Hash, B.Hash) << What;
  EXPECT_EQ(A.Message, B.Message) << What;
  EXPECT_EQ(A.FaultsFired, B.FaultsFired) << What;
}

// The acceptance gate: with no faults, the checkers are pure observers —
// the trace hash matches the unchecked machine bit for bit.
TEST(FaultInjection, CheckersPreserveTheFaultFreeTraceHash) {
  SimConfig On = SimConfig::lbp(4);
  On.EnableCheckers = true;
  SimConfig Off = SimConfig::lbp(4);
  Off.EnableCheckers = false;
  Outcome A = runTeam(On, 16);
  Outcome B = runTeam(Off, 16);
  ASSERT_EQ(A.Status, RunStatus::Exited) << A.Message;
  ASSERT_EQ(B.Status, RunStatus::Exited) << B.Message;
  EXPECT_TRUE(A.OutputCorrect);
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.ChecksSeen, 0u);
}

// Dropped protocol deliveries (token / join / start / rb-fill /
// slot-fill) must never yield a silent wrong answer: either the class
// never occurred (clean exit, correct output) or the loss is detected as
// a machine-check fault or a diagnosed livelock.
TEST(FaultInjection, DroppedDeliveriesAreDetectedDeterministically) {
  unsigned Detected = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SimConfig Cfg = faultConfig(4, Seed);
    Cfg.Faults.Drops = 1;
    Outcome A = runTeam(Cfg, 16, 200000);
    Outcome B = runTeam(Cfg, 16, 200000);
    expectIdentical(A, B, "drop seed " + std::to_string(Seed));
    if (A.FaultsFired == 0) {
      EXPECT_EQ(A.Status, RunStatus::Exited);
      EXPECT_TRUE(A.OutputCorrect);
      continue;
    }
    ++Detected;
    EXPECT_TRUE(A.Status == RunStatus::Fault ||
                A.Status == RunStatus::Livelock)
        << "seed " << Seed << " fired a drop but exited silently";
    EXPECT_FALSE(A.Message.empty()) << "seed " << Seed;
  }
  EXPECT_GE(Detected, 3u) << "the fault window missed the team phase";
}

/// The link parity as a plain Horner chain over the delivery fields:
/// the definition deliveryParity evaluates as independent products.
uint8_t hornerParity(const Delivery &D) {
  uint64_t W = static_cast<uint8_t>(D.K);
  W = W * 131 + D.HartId;
  W = W * 131 + D.Value;
  W = W * 131 + D.Addr;
  W = W * 131 + D.RespCycle;
  W = W * 131 + D.StoreWord;
  W = W * 131 + D.Width;
  W = W * 131 + D.Slot;
  W = W * 131 + (static_cast<unsigned>(D.IsWrite) |
                 static_cast<unsigned>(D.SignExt) << 1 |
                 static_cast<unsigned>(D.CountsMem) << 2);
  W ^= W >> 32;
  W ^= W >> 16;
  W ^= W >> 8;
  return static_cast<uint8_t>(W);
}

TEST(FaultInjection, LinkParityEqualsHornerReference) {
  SplitMix64 Rng(0x9a1c);
  for (unsigned I = 0; I != 5000; ++I) {
    Delivery D;
    D.K = static_cast<Delivery::Kind>(Rng.nextBelow(8));
    D.HartId = static_cast<uint16_t>(Rng.next());
    D.Value = static_cast<uint32_t>(Rng.next());
    D.Addr = static_cast<uint32_t>(Rng.next());
    D.RespCycle = Rng.next() >> Rng.nextBelow(64);
    D.StoreWord = static_cast<uint32_t>(Rng.next());
    D.Width = static_cast<uint8_t>(Rng.next());
    D.Slot = static_cast<uint8_t>(Rng.next());
    D.IsWrite = Rng.nextBelow(2);
    D.SignExt = Rng.nextBelow(2);
    D.CountsMem = Rng.nextBelow(2);
    ASSERT_EQ(deliveryParity(D), hornerParity(D)) << "delivery " << I;
  }
}

// A flipped payload bit is caught by the link parity check before the
// corrupted value is consumed: always RunStatus::Fault, never a wrong
// result, and the failure cycle is seed-reproducible.
TEST(FaultInjection, BitFlipsAreCaughtByLinkParity) {
  unsigned Detected = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SimConfig Cfg = faultConfig(4, Seed);
    Cfg.Faults.BitFlips = 1;
    Outcome A = runTeam(Cfg, 16, 200000);
    Outcome B = runTeam(Cfg, 16, 200000);
    expectIdentical(A, B, "flip seed " + std::to_string(Seed));
    if (A.FaultsFired == 0) {
      EXPECT_EQ(A.Status, RunStatus::Exited);
      EXPECT_TRUE(A.OutputCorrect);
      continue;
    }
    ++Detected;
    EXPECT_EQ(A.Status, RunStatus::Fault) << "seed " << Seed;
    EXPECT_NE(A.Message.find("link-parity"), std::string::npos)
        << A.Message;
    EXPECT_GE(A.ChecksSeen, 1u);
  }
  EXPECT_GE(Detected, 3u);
}

// Delays only target FIFO-safe delivery classes, so a delayed run still
// produces the correct answer — later, but cycle-reproducibly.
TEST(FaultInjection, DelaysAreBenignAndReproducible) {
  unsigned Fired = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    SimConfig Cfg = faultConfig(4, Seed);
    Cfg.Faults.Delays = 3;
    Outcome A = runTeam(Cfg, 16, 200000);
    Outcome B = runTeam(Cfg, 16, 200000);
    expectIdentical(A, B, "delay seed " + std::to_string(Seed));
    EXPECT_EQ(A.Status, RunStatus::Exited) << A.Message;
    EXPECT_TRUE(A.OutputCorrect) << "seed " << Seed;
    Fired += A.FaultsFired;
  }
  EXPECT_GE(Fired, 1u);
}

// A stuck global bank stalls its traffic for the window but the machine
// drains it afterwards: correct answer, reproducible timing.
TEST(FaultInjection, StuckBankStallsButCompletes) {
  SimConfig Clean = SimConfig::lbp(4);
  Outcome Base = runTeam(Clean, 16);
  unsigned Fired = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    SimConfig Cfg = faultConfig(4, Seed);
    Cfg.Faults.StuckBanks = 2;
    Cfg.Faults.StuckDuration = 300;
    Outcome A = runTeam(Cfg, 16, 200000);
    Outcome B = runTeam(Cfg, 16, 200000);
    expectIdentical(A, B, "stuck seed " + std::to_string(Seed));
    EXPECT_EQ(A.Status, RunStatus::Exited) << A.Message;
    EXPECT_TRUE(A.OutputCorrect) << "seed " << Seed;
    if (A.FaultsFired) {
      ++Fired;
      EXPECT_GE(A.Cycles, Base.Cycles) << "a stall cannot speed things up";
    }
  }
  EXPECT_GE(Fired, 1u);
}

// The same seed reproduces the same failure on reruns at every machine
// size the paper evaluates at the small end (4 and 16 cores).
TEST(FaultInjection, SameSeedSameFailureAcrossMachineSizes) {
  for (unsigned Cores : {4u, 16u}) {
    SimConfig Cfg = faultConfig(Cores, 42);
    Cfg.Faults.Drops = 2;
    Cfg.Faults.BitFlips = 2;
    unsigned Threads = 4 * Cores;
    Outcome A = runTeam(Cfg, Threads, 400000);
    Outcome B = runTeam(Cfg, Threads, 400000);
    expectIdentical(A, B, "cores " + std::to_string(Cores));
    EXPECT_GE(A.FaultsFired, 1u) << Cores << " cores";
    EXPECT_TRUE(A.Status == RunStatus::Fault ||
                A.Status == RunStatus::Livelock)
        << Cores << " cores: " << A.Message;
    EXPECT_FALSE(A.Message.empty());
  }
}

// Every machine check carries its cycle/core/hart coordinates and is
// visible through machineChecks(), not just the flattened message.
TEST(FaultInjection, MachineChecksCarryStructuredCoordinates) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    SimConfig Cfg = faultConfig(4, Seed);
    Cfg.Faults.BitFlips = 1;
    Outcome A = runTeam(Cfg, 16, 200000);
    if (A.ChecksSeen == 0)
      continue;
    assembler::AsmResult R = assembler::assemble(teamProgram(16));
    Machine M(Cfg);
    M.load(R.Prog);
    M.run(200000);
    ASSERT_GE(M.machineChecks().size(), 1u);
    const sim::MachineCheck &C = M.machineChecks().front();
    EXPECT_EQ(C.Kind, CheckKind::LinkParity);
    EXPECT_LT(C.Hart, Cfg.numHarts());
    EXPECT_EQ(C.Core, C.Hart / HartsPerCore);
    EXPECT_GT(C.Cycle, 0u);
    EXPECT_EQ(M.faultMessage(), C.format());
    return; // one structured sample is enough
  }
  FAIL() << "no seed produced a parity machine check";
}

// A lost ending-signal token is reported as token conservation breakage
// (a machine check), not as an anonymous hang: force a drop on the
// token class by scanning seeds for a plan whose drop hits it.
TEST(FaultInjection, TokenLossIsDiagnosedByConservation) {
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    SimConfig Cfg = faultConfig(4, Seed);
    Cfg.Faults.Drops = 1;
    assembler::AsmResult R = assembler::assemble(teamProgram(16));
    Machine M(Cfg);
    // The plan is drawn at construction: only bother running plans
    // whose single drop targets the token class.
    if (M.faultPlan().events()[0].ClassMask != FaultClassToken)
      continue;
    M.load(R.Prog);
    RunStatus S = M.run(200000);
    if (M.faultPlan().firedCount() == 0)
      continue; // armed after the last token passed
    ASSERT_EQ(S, RunStatus::Fault) << M.faultMessage();
    EXPECT_NE(M.faultMessage().find("token"), std::string::npos)
        << M.faultMessage();
    return;
  }
  FAIL() << "no seed dropped a token inside the run";
}

// The livelock path now explains itself: a hart blocked forever on an
// empty result slot produces a per-hart wait report naming the
// instruction and the slot.
TEST(FaultInjection, LivelockReportNamesTheStuckHart) {
  // The trailing loop keeps fetch from running past the stalled load
  // into zeroed memory (which would fault before the guard trips).
  assembler::AsmResult R =
      assembler::assemble("main:\n  p_lwre a0, 3\nhang:\n  j hang\n");
  ASSERT_TRUE(R.succeeded());
  SimConfig Cfg = SimConfig::lbp(1);
  Cfg.ProgressGuard = 5000;
  Machine M(Cfg);
  M.load(R.Prog);
  ASSERT_EQ(M.run(100000), RunStatus::Livelock);
  const std::string &Msg = M.faultMessage();
  EXPECT_NE(Msg.find("livelock"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("hart 0"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("slot 3"), std::string::npos) << Msg;
}

// The wait report counts each hart's deliveries still in flight,
// wherever they wait. One hart's load is answered by an rb-fill that a
// delay fault holds back longer than the 1000-cycle progress guard:
// 4911 cycles (seed 23), which keeps it on the 16,384-slot wheel, or
// 32629 cycles (seed 16), which puts it in the far-future overflow
// heap. The guard fires first either way, on both engines alike.
TEST(FaultInjection, LivelockReportCountsDeliveriesOnWheelAndOverflow) {
  // The trailing loop keeps fetch from running into zeroed memory.
  assembler::AsmResult R = assembler::assemble(
      "main:\n  li t1, 0x20000000\n  lw a0, 0(t1)\n  addi a0, a0, 1\n"
      "hang:\n  j hang\n");
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  struct Case {
    uint64_t Seed;
    unsigned MaxDelay;
    uint32_t Delay;
  };
  for (const Case &C : {Case{23, 8000, 4911}, Case{16, 40000, 32629}}) {
    std::string Reports[2];
    for (bool FastPath : {false, true}) {
      SimConfig Cfg = SimConfig::lbp(1);
      Cfg.FastPath = FastPath;
      Cfg.ProgressGuard = 1000;
      Cfg.Faults.Seed = C.Seed;
      Cfg.Faults.Delays = 1;
      Cfg.Faults.MaxDelay = C.MaxDelay;
      Cfg.Faults.WindowBegin = 1;
      Cfg.Faults.WindowEnd = 2;
      Machine M(Cfg);
      const FaultEvent &Delay = M.faultPlan().events().at(0);
      ASSERT_EQ(Delay.ClassMask, FaultClassRbFill);
      ASSERT_EQ(Delay.Param, C.Delay);
      M.load(R.Prog);
      ASSERT_EQ(M.run(100000), RunStatus::Livelock) << M.faultMessage();
      EXPECT_TRUE(Delay.Fired);
      const std::string &Msg = M.faultMessage();
      EXPECT_NE(Msg.find("hart 0 (core 0): state=running"), std::string::npos)
          << Msg;
      EXPECT_NE(Msg.find("pending-deliveries=1 — `lw a0, 0(t1)` awaiting a "
                         "memory/link response"),
                std::string::npos)
          << Msg;
      Reports[FastPath] = Msg;
    }
    EXPECT_EQ(Reports[0], Reports[1]) << "delay " << C.Delay;
  }
}

//===----------------------------------------------------------------------===//
// FastPath interaction: the fast engine (SimConfig::FastPath) skips the
// stages of sleeping cores, but faults, machine checks, the livelock
// guard and the MaxCycles budget must all fire at exactly the same cycle
// numbers with exactly the same diagnostics as the reference loop. Fault
// delivery is cycle-triggered (the plan perturbs scheduled deliveries,
// and a delivery wakes its core), so any divergence here means a wake
// rule is missing. See docs/PERFORMANCE.md.
//===----------------------------------------------------------------------===//

void expectFastPathAgrees(SimConfig Cfg, unsigned Threads,
                          uint64_t MaxCycles, const std::string &What) {
  SimConfig Ref = Cfg, Fast = Cfg;
  Ref.FastPath = false;
  Fast.FastPath = true;
  Outcome A = runTeam(Ref, Threads, MaxCycles);
  Outcome B = runTeam(Fast, Threads, MaxCycles);
  expectIdentical(A, B, What);
  EXPECT_EQ(A.ChecksSeen, B.ChecksSeen) << What;
  EXPECT_EQ(A.OutputCorrect, B.OutputCorrect) << What;
}

// Every fault class, over a spread of seeds: perturbed runs — clean
// exits, parity faults, diagnosed livelocks alike — are bit-identical
// between the two engines.
TEST(FastPathFaultInteraction, AllFaultClassesIdenticalOnAndOff) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SimConfig Drops = faultConfig(4, Seed);
    Drops.Faults.Drops = 1;
    expectFastPathAgrees(Drops, 16, 200000,
                         "drop seed " + std::to_string(Seed));

    SimConfig Flips = faultConfig(4, Seed);
    Flips.Faults.BitFlips = 1;
    expectFastPathAgrees(Flips, 16, 200000,
                         "flip seed " + std::to_string(Seed));
  }
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    SimConfig Delays = faultConfig(4, Seed);
    Delays.Faults.Delays = 3;
    expectFastPathAgrees(Delays, 16, 200000,
                         "delay seed " + std::to_string(Seed));

    SimConfig Stuck = faultConfig(4, Seed);
    Stuck.Faults.StuckBanks = 2;
    Stuck.Faults.StuckDuration = 300;
    expectFastPathAgrees(Stuck, 16, 200000,
                         "stuck seed " + std::to_string(Seed));
  }
}

// The longest sleep: an undetected token loss leaves the machine
// completely frozen — no pending deliveries, no timers — so on the fast
// path every core sleeps until the livelock guard fires. It must fire at
// LastProgress + ProgressGuard + 1 with the same per-hart wait report as
// the reference loop.
TEST(FastPathFaultInteraction, LivelockFiresAtSameCycleWhileSkipping) {
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    SimConfig Cfg = faultConfig(4, Seed);
    Cfg.Faults.Drops = 1;
    Cfg.EnableCheckers = false; // leave the loss for the guard to find
    {
      Machine Probe(Cfg);
      if (Probe.faultPlan().events()[0].ClassMask != FaultClassToken)
        continue;
    }
    SimConfig Ref = Cfg, Fast = Cfg;
    Ref.FastPath = false;
    Fast.FastPath = true;
    Outcome A = runTeam(Ref, 16, 200000);
    if (A.FaultsFired == 0)
      continue; // armed after the last token passed
    Outcome B = runTeam(Fast, 16, 200000);
    ASSERT_EQ(A.Status, RunStatus::Livelock) << A.Message;
    expectIdentical(A, B, "token-loss seed " + std::to_string(Seed));
    EXPECT_NE(A.Message.find("livelock"), std::string::npos) << A.Message;
    return;
  }
  FAIL() << "no seed dropped a token inside the run";
}

// A budget that expires while cores sleep: both engines charge every
// cycle against MaxCycles, so truncation lands on the same cycle.
TEST(FastPathFaultInteraction, MaxCyclesTruncationIdenticalOnAndOff) {
  for (uint64_t MaxCycles : {50ull, 333ull, 650ull}) {
    SimConfig Cfg = SimConfig::lbp(4);
    expectFastPathAgrees(Cfg, 16, MaxCycles,
                         "truncation at " + std::to_string(MaxCycles));
  }
}

// The livelock report is itself deterministic (it is part of the
// failure's identity for replay debugging).
TEST(FaultInjection, LivelockReportIsDeterministic) {
  auto Run = [] {
    assembler::AsmResult R =
        assembler::assemble("main:\n  p_lwre a0, 3\nhang:\n  j hang\n");
    SimConfig Cfg = SimConfig::lbp(1);
    Cfg.ProgressGuard = 5000;
    Machine M(Cfg);
    M.load(R.Prog);
    RunStatus S = M.run(100000);
    EXPECT_EQ(S, RunStatus::Livelock);
    return std::make_pair(M.cycles(), M.faultMessage());
  };
  auto A = Run(), B = Run();
  EXPECT_EQ(A.first, B.first);
  EXPECT_EQ(A.second, B.second);
  EXPECT_FALSE(A.second.empty());
}

} // namespace
