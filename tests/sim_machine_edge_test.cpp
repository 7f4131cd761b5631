//===- tests/sim_machine_edge_test.cpp - Pipeline corner cases ------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Corner cases of the machine: the WAW-through-memory scenario that
// renaming must absorb, p_fc stalling until a hart frees, nested
// parallel teams, the direct p_jal fork, result-slot backlog ordering,
// alignment faults, ROB pressure, a run() after exit, and the recorded
// text trace.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Perfetto.h"
#include "romp/Runtime.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace lbp;
using namespace lbp::sim;

namespace {

Machine runSrc(const std::string &Src, unsigned Cores,
               RunStatus Expect = RunStatus::Exited,
               uint64_t MaxCycles = 2000000) {
  assembler::AsmResult R = assembler::assemble(Src);
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  Machine M(SimConfig::lbp(Cores));
  M.load(R.Prog);
  EXPECT_EQ(M.run(MaxCycles), Expect) << M.faultMessage();
  return M;
}

// The differential-test discovery, as a pinned regression: an older
// load stalled behind a same-word store must not clobber a younger
// result when it finally writes back.
TEST(MachineEdge, OlderLoadCannotClobberYoungerResult) {
  std::string Src = R"(
main:
    li s0, 0x12345678
    li a5, 1
    li t1, 0x20000010
    sw a5, 0(t1)        # in flight when the load issues
    lw a2, 0(t1)        # stalls on the same-word store
    srli a2, s0, 24     # younger writer of a2: must win
    li t3, 0x20000400
    sw a2, 0(t3)
    p_syncm
    li ra, 0
    li t0, -1
    p_ret
)";
  Machine M = runSrc(Src, 1);
  EXPECT_EQ(M.debugReadWord(0x20000400), 0x12u);
}

TEST(MachineEdge, SerialForkJoinLoopReusesHarts) {
  // Hart 0 repeatedly forks, runs a child, and joins: the allocator
  // hands out freed harts again and the token returns every round.
  std::string Src = R"(
    .equ COUNTER, 0x20000040
main:
    li t5, 4              # children to spawn
    la a5, COUNTER
spawn:
    p_set t0
    la ra, back
    p_fc t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la a0, child
    p_jalr ra, t0, a0
    p_lwcv ra, 0          # continuation: same hart numbering dance
    p_lwcv t0, 4
    p_ret                 # join back to the head
back:
    addi t5, t5, -1
    bnez t5, spawn
    li ra, 0
    li t0, -1
    p_ret

child:                    # the head runs this; bump the counter
    la a4, COUNTER
    lw a3, 0(a4)
    addi a3, a3, 1
    sw a3, 0(a4)
    p_syncm
    p_ret                 # head: waits for the join
)";
  Machine M = runSrc(Src, 1);
  EXPECT_EQ(M.debugReadWord(0x20000040), 4u);
}

TEST(MachineEdge, NestedTeamsJoinInsideAnOuterTeam) {
  // An outer 2-member team whose members each launch an inner 2-member
  // team: the token chain nests (the outer member's token arrives while
  // the inner team runs, releasing the inner head's commit).
  std::string Body;
  {
    romp::AsmText T;
    romp::emitParallelCall(T, "outer", 2, "0");
    Body = T.str();
  }
  std::string Fns = R"(
    .equ OUT, 0x20000080
outer:
    # Callers of a parallel region save ra AND t0 (the romp convention).
    addi sp, sp, -12
    sw ra, 0(sp)
    sw t0, 4(sp)
    sw a0, 8(sp)
    slli a1, a0, 3        # data: 2-word slot area per outer member
    la t2, OUT
    add a1, a1, t2        # a1 = &OUT[2*t]
    li a2, 2
    la a3, inner
    jal LBP_parallel_start
    lw ra, 0(sp)
    lw t0, 4(sp)
    lw a0, 8(sp)
    addi sp, sp, 12
    p_ret

inner:                    # a0 = inner index, a1 = slot base
    slli a4, a0, 2
    add a4, a4, a1
    addi a5, a0, 40
    sw a5, 0(a4)
    p_ret
)";
  std::string Src;
  {
    romp::AsmText T;
    romp::emitMainPrologue(T);
    Src = T.str() + Body;
    romp::AsmText T2;
    romp::emitMainEpilogue(T2);
    romp::emitParallelStart(T2);
    Src += T2.str() + Fns;
  }
  Machine M = runSrc(Src, 2);
  for (unsigned K = 0; K != 4; ++K)
    EXPECT_EQ(M.debugReadWord(0x20000080 + 4 * K), 40 + K % 2) << K;
}

TEST(MachineEdge, PJalForksDirectly) {
  // The direct-call fork: p_jal runs `child` locally while the new hart
  // continues at pc+4.
  std::string Src = R"(
    .equ FLAGS, 0x200000c0
main:
    p_set t0
    la ra, rp
    p_fc t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    p_jal ra, t0, child   # local: child; remote: next line
    p_lwcv ra, 0
    p_lwcv t0, 4
    la a1, FLAGS
    li a2, 2
    sw a2, 4(a1)
    p_syncm
    p_ret

rp: li ra, 0
    li t0, -1
    p_ret

child:
    la a1, FLAGS
    li a2, 1
    sw a2, 0(a1)
    p_syncm
    p_ret
)";
  Machine M = runSrc(Src, 1);
  EXPECT_EQ(M.debugReadWord(0x200000c0), 1u);
  EXPECT_EQ(M.debugReadWord(0x200000c4), 2u);
}

TEST(MachineEdge, ResultSlotBacklogPreservesArrivalOrder) {
  // Three values sent to the same slot before any consumption must be
  // received in arrival order.
  std::string Src = R"(
    .equ OUT, 0x20000100
main:
    p_set t0
    la ra, rp
    p_fc t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la a0, consumer
    p_jalr ra, t0, a0
    p_lwcv ra, 0          # producer hart (hart 1)
    p_lwcv t0, 4
    li a2, 11
    li a3, 0              # target: hart 0
    p_swre a2, a3, 5
    li a2, 22
    p_swre a2, a3, 5
    li a2, 33
    p_swre a2, a3, 5
    p_ret

rp: li ra, 0
    li t0, -1
    p_ret

consumer:                 # hart 0
    la a4, OUT
    p_lwre a5, 5
    sw a5, 0(a4)
    p_lwre a5, 5
    sw a5, 4(a4)
    p_lwre a5, 5
    sw a5, 8(a4)
    p_syncm
    p_ret
)";
  Machine M = runSrc(Src, 1);
  EXPECT_EQ(M.debugReadWord(0x20000100), 11u);
  EXPECT_EQ(M.debugReadWord(0x20000104), 22u);
  EXPECT_EQ(M.debugReadWord(0x20000108), 33u);
}

TEST(MachineEdge, MisalignedAccessFaults) {
  Machine M = runSrc(R"(
main:
    li a0, 0x20000001
    lw a1, 0(a0)
)",
                     1, RunStatus::Fault);
  EXPECT_NE(M.faultMessage().find("misaligned"), std::string::npos);
}

TEST(MachineEdge, RobPressureWithDependentLongOps) {
  // A chain of divisions (16-cycle latency) longer than the 8-entry
  // ROB: the window fills and drains correctly.
  std::string Src = R"(
main:
    li a0, 1000000000
    li a1, 3
    div a2, a0, a1
    div a2, a2, a1
    div a2, a2, a1
    div a2, a2, a1
    div a2, a2, a1
    div a2, a2, a1
    div a2, a2, a1
    div a2, a2, a1
    div a2, a2, a1
    div a2, a2, a1
    la a3, 0x20000140
    sw a2, 0(a3)
    p_syncm
    li ra, 0
    li t0, -1
    p_ret
)";
  Machine M = runSrc(Src, 1);
  uint32_t V = 1000000000;
  for (int K = 0; K != 10; ++K)
    V /= 3;
  EXPECT_EQ(M.debugReadWord(0x20000140), V);
  // Each division serializes on the single result buffer.
  EXPECT_GE(M.cycles(), 10u * 16u);
}

TEST(MachineEdge, RecordedTraceTellsThePaperStory) {
  // A JSON-lines sink reproduces statements like the paper's "at cycle
  // C, core X, hart H sends a memory request...".
  assembler::AsmResult R = assembler::assemble(R"(
main:
    li a0, 9
    la a1, 0x20000000
    sw a0, 0(a1)
    p_syncm
    li ra, 0
    li t0, -1
    p_ret
)");
  ASSERT_TRUE(R.succeeded());
  Machine M(SimConfig::lbp(1));
  std::ostringstream Out;
  obs::JsonlSink Sink(Out);
  M.addTraceSink(&Sink);
  M.load(R.Prog);
  ASSERT_EQ(M.run(10000), RunStatus::Exited);
  bool SawCommit = false, SawWrite = false, SawExit = false;
  std::istringstream Lines(Out.str());
  for (std::string Line; std::getline(Lines, Line);) {
    if (Line.find("\"commit\"") != std::string::npos)
      SawCommit = true;
    if (Line.find("\"bank-write\"") != std::string::npos)
      SawWrite = true;
    if (Line.find("\"exit\"") != std::string::npos)
      SawExit = true;
    EXPECT_EQ(Line.rfind("{\"cycle\":", 0), 0u) << Line;
  }
  EXPECT_TRUE(SawCommit);
  EXPECT_TRUE(SawWrite);
  EXPECT_TRUE(SawExit);
}

TEST(MachineEdge, StallStatisticsAccountForEveryIssueSlot) {
  SimConfig Cfg = SimConfig::lbp(1);
  Cfg.CollectStallStats = true;
  assembler::AsmResult R = assembler::assemble(R"(
main:
    li a0, 1000000000
    li a1, 3
    div a2, a0, a1
    div a2, a2, a1
    div a2, a2, a1
    li ra, 0
    li t0, -1
    p_ret
)");
  ASSERT_TRUE(R.succeeded());
  Machine M(Cfg);
  M.load(R.Prog);
  ASSERT_EQ(M.run(10000), RunStatus::Exited);

  uint64_t Accounted = M.issuedCoreCycles();
  for (unsigned C = 0;
       C != static_cast<unsigned>(Machine::StallCause::NumCauses); ++C)
    Accounted += M.stallCycles(static_cast<Machine::StallCause>(C));
  // The exit commit halts the machine before that cycle's issue stage,
  // so the last cycle may be unclassified.
  EXPECT_GE(Accounted + 1, M.cycles());
  EXPECT_LE(Accounted, M.cycles());
  // The dependent divisions spend most slots on the busy result buffer.
  EXPECT_GT(M.stallCycles(Machine::StallCause::RbBusy), 3u * 10u);
}

TEST(MachineEdge, RdcycleMeasuresElapsedTimeExactly) {
  std::string Src = R"(
main:
    rdcycle a0
    li a2, 50
    li a3, 0
tl: addi a3, a3, 1
    bne a3, a2, tl
    rdcycle a1
    sub a1, a1, a0
    rdinstret a4
    la a5, 0x20000180
    sw a1, 0(a5)
    sw a4, 4(a5)
    p_syncm
    li ra, 0
    li t0, -1
    p_ret
)";
  Machine M1 = runSrc(Src, 1);
  Machine M2 = runSrc(Src, 1);
  uint32_t Elapsed = M1.debugReadWord(0x20000180);
  // A 50-iteration 2-instruction loop on one hart: branch-resolution
  // bubbles put it well above 100 cycles but below 400.
  EXPECT_GT(Elapsed, 100u);
  EXPECT_LT(Elapsed, 400u);
  EXPECT_EQ(Elapsed, M2.debugReadWord(0x20000180));
  // instret at its read is below the final retired count but counting.
  EXPECT_GT(M1.debugReadWord(0x20000184), 100u);
}

TEST(MachineEdge, CounterReadTowardX0LeavesTheResultBufferAlone) {
  // A counter read toward x0 writes no register, so, like any other op
  // toward x0, it completes without the result buffer and may issue
  // while the multiply before it still holds the buffer.
  runSrc(R"(
main:
    li a1, 5
    mul a2, a1, a1
    rdcycle zero
    mul a3, a1, a1
    rdinstret zero
    li ra, 0
    li t0, -1
    p_ret
)",
         1);
}

TEST(MachineEdge, SlotIndexOutOfRangeFaults) {
  Machine M = runSrc("main:\n  p_lwre a0, 99\n", 1, RunStatus::Fault);
  EXPECT_NE(M.faultMessage().find("slot"), std::string::npos);
}

// run(MaxCycles) pauses a healthy machine without losing state: resuming
// completes the program with the same answer a single run produces.
TEST(MachineEdge, MaxCyclesPausesAndResumesLosslessly) {
  std::string Src = R"(
main:
    li a0, 0
    li a1, 1000
loop:
    addi a0, a0, 1
    bne a0, a1, loop
    li a5, 0x20000100
    sw a0, 0(a5)
    p_syncm
    li ra, 0
    li t0, -1
    p_ret
)";
  assembler::AsmResult R = assembler::assemble(Src);
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  Machine M(SimConfig::lbp(1));
  M.load(R.Prog);
  ASSERT_EQ(M.run(100), RunStatus::MaxCycles);
  EXPECT_EQ(M.cycles(), 100u);
  EXPECT_TRUE(M.faultMessage().empty());
  ASSERT_EQ(M.run(2000000), RunStatus::Exited) << M.faultMessage();
  EXPECT_EQ(M.debugReadWord(0x20000100), 1000u);

  Machine One = runSrc(Src, 1);
  EXPECT_EQ(M.cycles(), One.cycles());
  EXPECT_EQ(M.traceHash(), One.traceHash());
}

// An exited machine stays exited: a later run() returns at once, on
// either engine, without simulating another cycle.
TEST(MachineEdge, RunAfterExitReturnsExitedAtOnce) {
  assembler::AsmResult R =
      assembler::assemble("main:\n  li ra, 0\n  li t0, -1\n  p_ret\n");
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  for (bool FastPath : {false, true}) {
    SimConfig Cfg = SimConfig::lbp(1);
    Cfg.FastPath = FastPath;
    Cfg.CollectStallStats = true;
    Machine M(Cfg);
    M.load(R.Prog);
    ASSERT_EQ(M.run(1000), RunStatus::Exited) << M.engineName();
    uint64_t Cycles = M.cycles(), Hash = M.traceHash();
    uint64_t Issued = M.issuedCoreCycles();
    uint64_t Idle = M.stallCycles(Machine::StallCause::NoActiveWork);
    EXPECT_LT(Cycles, 1000u);

    EXPECT_EQ(M.run(1000), RunStatus::Exited) << M.engineName();
    EXPECT_EQ(M.status(), RunStatus::Exited) << M.engineName();
    EXPECT_EQ(M.cycles(), Cycles) << M.engineName();
    EXPECT_EQ(M.traceHash(), Hash) << M.engineName();
    EXPECT_EQ(M.issuedCoreCycles(), Issued) << M.engineName();
    EXPECT_EQ(M.stallCycles(Machine::StallCause::NoActiveWork), Idle)
        << M.engineName();
  }
}

// The progress guard turns an unsatisfiable wait into RunStatus::Livelock
// rather than spinning until MaxCycles.
TEST(MachineEdge, LivelockIsDistinguishedFromMaxCycles) {
  assembler::AsmResult R =
      assembler::assemble("main:\n  p_lwre a0, 3\nhang:\n  j hang\n");
  ASSERT_TRUE(R.succeeded());
  SimConfig Cfg = SimConfig::lbp(1);
  Cfg.ProgressGuard = 4000;
  Machine M(Cfg);
  M.load(R.Prog);
  EXPECT_EQ(M.run(1000000), RunStatus::Livelock);
  EXPECT_LT(M.cycles(), 1000000u);
  EXPECT_FALSE(M.faultMessage().empty());
}

} // namespace
