//===- tests/obs_test.cpp - Observability layer invariants -------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Hand-computed checks of the deterministic counter set
// (obs::PerfCounters), the stall-cause tallies, and the
// hash-neutrality guarantee: enabling any part of the observability
// layer must leave the run's fingerprint untouched
// (docs/OBSERVABILITY.md). Engine bit-identity of the same counters is
// swept separately in tests/differential_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Report.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Machine.h"
#include "workloads/Phases.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>

using namespace lbp;
using namespace lbp::sim;

namespace {

assembler::Program assembleOrDie(const std::string &Source) {
  assembler::AsmResult R = assembler::assemble(Source);
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  return std::move(R.Prog);
}

RunStatus runOn(Machine &M, const std::string &Source,
                uint64_t MaxCycles = 2000000) {
  M.load(assembleOrDie(Source));
  return M.run(MaxCycles);
}

uint64_t sum(const std::vector<uint64_t> &V) {
  return std::accumulate(V.begin(), V.end(), uint64_t(0));
}

// The standard exit idiom: main is entered with ra = 0, t0 = -1.
const char *Epilogue = R"(
exit:
    li ra, 0
    li t0, -1
    p_ret
)";

/// Single-hart straight-line program with exactly one global store and
/// one global load — every counter value below is computable by hand.
const char *MicroSrc = R"(
    .equ RESULT, 0x20000000
main:
    li a0, 21
    li a1, 2
    mul a2, a0, a1
    la a3, RESULT
    sw a2, 0(a3)
    p_syncm
    lw a4, 0(a3)
)";

TEST(Obs, ExactCountsOnMicroProgram) {
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectCounters = true;
  Machine M(Cfg);
  ASSERT_EQ(runOn(M, std::string(MicroSrc) + Epilogue), RunStatus::Exited)
      << M.faultMessage();

  const obs::PerfCounters &PC = M.counters();
  ASSERT_TRUE(PC.enabled());

  // Every retired instruction is a Commit event on hart 0.
  EXPECT_EQ(sum(PC.CommitsPerHart), M.retired());
  EXPECT_EQ(PC.CommitsPerHart[0], M.retired());
  EXPECT_EQ(PC.CommitsPerCore[0], M.retired());

  // One sw and one lw to RESULT = GlobalBase, which lives in bank 0.
  EXPECT_EQ(PC.BankWrites[0], 1u);
  EXPECT_EQ(sum(PC.BankWrites), 1u);
  EXPECT_EQ(PC.BankReads[0], 1u);
  EXPECT_EQ(sum(PC.BankReads), 1u);
  EXPECT_EQ(PC.LocalReads, 0u);
  EXPECT_EQ(PC.LocalWrites, 0u);
  EXPECT_EQ(PC.IoReads, 0u);
  EXPECT_EQ(PC.IoWrites, 0u);

  // No X_PAR activity beyond the boot hart's start.
  EXPECT_EQ(PC.Forks, 0u);
  EXPECT_EQ(PC.HartStarts, 1u);
  EXPECT_EQ(PC.TokenPasses, 0u);
  EXPECT_EQ(PC.Joins, 0u);
  EXPECT_EQ(PC.TokenLatency.Count, 0u);
  EXPECT_EQ(PC.FaultsInjected, 0u);
  EXPECT_EQ(PC.MachineChecks, 0u);
}

TEST(Obs, XParProtocolIdentities) {
  // The phases workload forks a full team twice (two parallel regions).
  // On a clean run the protocol counters obey exact identities: every
  // fork starts exactly one hart and every forked hart ends by passing
  // the token on, while the boot hart accounts for the extra start.
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectCounters = true;
  Machine M(Cfg);
  ASSERT_EQ(runOn(M, workloads::buildPhasesProgram(Spec)),
            RunStatus::Exited)
      << M.faultMessage();

  const obs::PerfCounters &PC = M.counters();
  EXPECT_GT(PC.Forks, 0u);
  EXPECT_EQ(PC.HartStarts, PC.Forks + 1);
  EXPECT_EQ(PC.HartEnds, PC.Forks);
  EXPECT_EQ(PC.TokenPasses, PC.Forks);
  EXPECT_EQ(PC.Joins, 2u); // one per parallel region

  // Every token injection completes on a clean run, and the histogram
  // is internally consistent.
  EXPECT_EQ(PC.TokenLatency.Count, PC.TokenPasses);
  EXPECT_EQ(sum(std::vector<uint64_t>(
                std::begin(PC.TokenLatency.Buckets),
                std::end(PC.TokenLatency.Buckets))),
            PC.TokenLatency.Count);
  EXPECT_GE(PC.TokenLatency.Max, 1u);
  EXPECT_GE(PC.TokenLatency.Sum, PC.TokenLatency.Count);

  // The phase profiler splits the run at the joins: two parallel
  // regions plus the serial tail.
  Machine M2(Cfg);
  obs::PhaseProfiler Prof;
  M2.addTraceSink(&Prof);
  ASSERT_EQ(runOn(M2, workloads::buildPhasesProgram(Spec)),
            RunStatus::Exited);
  EXPECT_GE(Prof.phases(M2.cycles()).size(), 2u);
}

TEST(Obs, RobHighWaterReachesFullDepth) {
  // A 16-cycle div at the ROB head while decode keeps inserting one
  // instruction per cycle behind it: in-order commit cannot drain, so
  // hart 0's ROB occupancy must peak at the full RobEntries depth.
  std::string Src = R"(
main:
    li a0, 100
    li a1, 3
    div a2, a0, a1
    addi a3, a0, 1
    addi a4, a0, 2
    addi a5, a0, 3
    addi a6, a0, 4
    addi a7, a0, 5
    addi t1, a0, 6
    addi t2, a0, 7
    addi t3, a0, 8
    addi t4, a0, 9
)";
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectCounters = true;
  Machine M(Cfg);
  ASSERT_EQ(runOn(M, Src + Epilogue), RunStatus::Exited)
      << M.faultMessage();
  EXPECT_EQ(M.counters().robHighWater(0), RobEntries);
}

TEST(Obs, SlotHighWaterSeesProducedValue) {
  // p_swre sends 1234 into hart 0's result slot 2 while hart 0's child
  // code waits in p_lwre — the slot occupancy high-water mark on hart 0
  // must record the landed value.
  std::string Src = R"(
    .equ OUT, 0x20000300
main:
    li t0, -1
    addi sp, sp, -8
    sw ra, 0(sp)
    sw t0, 4(sp)
    p_set t0
    la ra, rp
    p_fc t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la a0, child
    p_jalr ra, t0, a0
    p_lwcv ra, 0            # continuation (hart 1)
    p_lwcv t0, 4
    li a2, 1234
    srli a3, t0, 16         # extract the join hart id from t0
    li a4, 0x7fff
    and a3, a3, a4
    p_swre a2, a3, 2        # send 1234 to the join hart's slot 2
    p_ret                   # join back to rp on hart 0

rp: lw ra, 0(sp)
    lw t0, 4(sp)
    addi sp, sp, 8
    p_ret                   # exit

child:                      # runs on hart 0
    p_lwre a5, 2            # blocks until the value arrives
    la a6, OUT
    sw a5, 0(a6)
    p_syncm
    p_ret                   # head waits for the join
)";
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectCounters = true;
  Machine M(Cfg);
  ASSERT_EQ(runOn(M, Src), RunStatus::Exited) << M.faultMessage();
  EXPECT_EQ(M.debugReadWord(0x20000300), 1234u);
  EXPECT_GE(M.counters().slotHighWater(0), 1u);
}

TEST(Obs, StallAccountingCoversEveryCoreCycle) {
  // On a one-core machine the stall/issue tallies partition the core's
  // cycles: every cycle either issued or was classified. The first and
  // last cycle of a run can fall outside the classified window, hence
  // the two-cycle tolerance.
  SimConfig Cfg = SimConfig::lbp(1);
  Cfg.CollectStallStats = true;
  Machine M(Cfg);
  ASSERT_EQ(runOn(M, std::string(MicroSrc) + Epilogue), RunStatus::Exited)
      << M.faultMessage();

  uint64_t Classified = M.issuedCoreCycles();
  for (unsigned C = 0;
       C != static_cast<unsigned>(Machine::StallCause::NumCauses); ++C)
    Classified += M.stallCycles(static_cast<Machine::StallCause>(C));
  EXPECT_LE(Classified, M.cycles());
  EXPECT_GE(Classified + 2, M.cycles());
}

/// Issued plus stalled core-cycles, summed over the cores.
uint64_t classifiedCoreCycles(const Machine &M) {
  uint64_t N = M.issuedCoreCycles();
  for (unsigned C = 0;
       C != static_cast<unsigned>(Machine::StallCause::NumCauses); ++C)
    N += M.stallCycles(static_cast<Machine::StallCause>(C));
  return N;
}

TEST(Obs, StallTalliesStopWhereTheCoreWalkStops) {
  // The reference loop classifies each core once a cycle, in core
  // order, at its issue stage, and a halt ends the walk. So a truncated
  // run classifies every core-cycle; an exit (a commit on core 0)
  // leaves its last cycle unclassified on every core; and a fault in
  // core h's issue stage leaves it classified on the cores below h only.
  // The fast path credits sleeping cores in bulk and must land on the
  // same totals.
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  romp::emitParallelCall(Head, "worker", 16, "0");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  std::string Src = Head.str() + Tail.str() + R"(
worker:
    li t1, 13
    bne a0, t1, done
    p_lwre a5, 99        # member 13 faults at issue: slot 99 is bad
done:
    p_ret
)";
  for (bool Fast : {false, true}) {
    SimConfig Cfg = SimConfig::lbp(4);
    Cfg.FastPath = Fast;
    Cfg.CollectStallStats = true;

    Machine Cut(Cfg);
    ASSERT_EQ(runOn(Cut, Src, 50), RunStatus::MaxCycles);
    EXPECT_EQ(classifiedCoreCycles(Cut), 4u * 50u) << Fast;

    Machine Exit(Cfg);
    ASSERT_EQ(runOn(Exit, std::string(MicroSrc) + Epilogue),
              RunStatus::Exited);
    EXPECT_EQ(classifiedCoreCycles(Exit), 4 * (Exit.cycles() - 1)) << Fast;

    Machine Bad(Cfg);
    ASSERT_EQ(runOn(Bad, Src), RunStatus::Fault);
    unsigned Hart = 0;
    ASSERT_EQ(std::sscanf(Bad.faultMessage().c_str(),
                          "p_lwre on hart %u with bad slot", &Hart),
              1)
        << Bad.faultMessage();
    unsigned Below = Hart / HartsPerCore;
    ASSERT_NE(Below, 0u) << "the fault should land past core 0";
    EXPECT_EQ(classifiedCoreCycles(Bad), 4 * (Bad.cycles() - 1) + Below)
        << Fast;
  }
}

TEST(Obs, CountersAreHashNeutral) {
  // The sinks run after hashing, so flipping CollectCounters (and stall
  // stats with it) must not move the fingerprint by a single bit.
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  std::string Src = workloads::buildPhasesProgram(Spec);

  SimConfig Plain = SimConfig::lbp(4);
  Machine A(Plain);
  ASSERT_EQ(runOn(A, Src), RunStatus::Exited);

  SimConfig Instrumented = Plain;
  Instrumented.CollectCounters = true;
  Instrumented.CollectStallStats = true;
  Machine B(Instrumented);
  ASSERT_EQ(runOn(B, Src), RunStatus::Exited);

  EXPECT_EQ(A.traceHash(), B.traceHash());
  EXPECT_EQ(A.cycles(), B.cycles());
  EXPECT_EQ(A.retired(), B.retired());
}

TEST(Obs, CounterJsonAndReportAreWellFormed) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectCounters = true;
  Cfg.CollectStallStats = true;
  Machine M(Cfg);
  obs::PhaseProfiler Prof;
  M.addTraceSink(&Prof);
  ASSERT_EQ(runOn(M, workloads::buildPhasesProgram(Spec)),
            RunStatus::Exited);

  std::string Json = obs::countersToJson(M);
  EXPECT_NE(Json.find("\"trace_hash\""), std::string::npos);
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"commits_per_core\""), std::string::npos);
  EXPECT_NE(Json.find("\"token_latency\""), std::string::npos);
  EXPECT_NE(Json.find("\"stall\""), std::string::npos);

  std::string Report = obs::buildReport(M, &Prof, {});
  EXPECT_NE(Report.find("engine"), std::string::npos);
  EXPECT_NE(Report.find("x_par"), std::string::npos);
}

} // namespace
