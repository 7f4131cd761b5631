//===- tests/snapshot_test.cpp - Checkpoint/restore determinism -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The restore guarantee of sim/Snapshot.h (docs/ROBUSTNESS.md "Restore
// guarantees"): a run that is snapshotted at an arbitrary cycle and
// resumed on a *fresh* machine finishes with the exact observable
// fingerprint — RunStatus, cycle count, retired count, trace hash chain,
// fault message, machine-check list and the canonical counter snapshot —
// of the run that was never interrupted. Swept across both engines
// (reference loop and fast path), with and without stall tallies,
// through open fault-injection windows and through the X_PAR fork/join
// handshake, because those are exactly the states a fleet worker dies
// in. Also: save -> restore -> save is byte-identical (the blob is a
// pure function of machine state), and malformed blobs are rejected
// without crashing.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "isa/AddressMap.h"
#include "obs/Report.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Machine.h"
#include "sim/Snapshot.h"
#include "support/StringUtils.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/Pipeline.h"
#include "workloads/SensorFusion.h"

#include "WideForkJoin.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lbp;
using namespace lbp::sim;

namespace {

/// One engine cell of the sweep. Stall tallies (CollectStallStats) go
/// into the counter snapshot, and the fast path credits a sleeping
/// core's cycles from state a restore derives, so they get cells too.
struct EngineCell {
  const char *Name;
  bool FastPath;
  bool Stalls;
};
constexpr EngineCell Cells[] = {
    {"reference", false, false},
    {"fastpath", true, false},
    {"reference+stalls", false, true},
    {"fastpath+stalls", true, true},
};

SimConfig cellConfig(SimConfig Cfg, const EngineCell &C) {
  Cfg.FastPath = C.FastPath;
  Cfg.CollectCounters = true;
  Cfg.CollectStallStats = C.Stalls;
  return Cfg;
}

/// Whether a blob saved in cell \p From restores in cell \p To: the
/// config digest covers CollectStallStats but not FastPath.
bool portable(const EngineCell &From, const EngineCell &To) {
  return From.Stalls == To.Stalls;
}

/// The full observable outcome of a finished run.
struct Fingerprint {
  RunStatus Status;
  uint64_t Cycles;
  uint64_t Retired;
  uint64_t Hash;
  std::string Message;
  size_t NumChecks;
  std::string Counters;

  bool operator==(const Fingerprint &O) const {
    return Status == O.Status && Cycles == O.Cycles &&
           Retired == O.Retired && Hash == O.Hash && Message == O.Message &&
           NumChecks == O.NumChecks && Counters == O.Counters;
  }
};

Fingerprint fingerprint(const Machine &M, RunStatus S) {
  return {S,
          M.cycles(),
          M.retired(),
          M.traceHash(),
          M.faultMessage(),
          M.machineChecks().size(),
          obs::countersToJson(M)};
}

assembler::Program assembleOrDie(const std::string &Src) {
  assembler::AsmResult R = assembler::assemble(Src);
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  return R.Prog;
}

/// Runs \p Prog uninterrupted under \p Cfg; then re-runs it snapshotting
/// at \p SnapAt cycles, restores the blob into a fresh machine built
/// with \p ResumeCfg (never load()ed — the blob carries the code image),
/// or with \p IntoUsedMachine into one that first ran the program to
/// its end, finishes there, and expects the identical fingerprint. Also
/// checks save -> restore -> save byte-identity on the way through.
void expectResumeIdentical(const assembler::Program &Prog, SimConfig Cfg,
                           SimConfig ResumeCfg, uint64_t SnapAt,
                           const std::string &What,
                           bool IntoUsedMachine = false) {
  constexpr uint64_t Budget = 4000000;
  Machine Full(Cfg);
  Full.load(Prog);
  Fingerprint Want = fingerprint(Full, Full.run(Budget));

  Machine First(Cfg);
  First.load(Prog);
  First.run(SnapAt);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);

  Machine Second(ResumeCfg);
  if (IntoUsedMachine) {
    Second.load(Prog);
    Second.run(Budget);
  }
  std::string Err;
  ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << What << ": " << Err;

  // The blob is a pure function of the state it captured.
  std::vector<uint8_t> Blob2;
  Second.saveSnapshot(Blob2);
  EXPECT_EQ(Blob, Blob2) << What << ": save/restore/save not byte-identical";

  Fingerprint Got = fingerprint(Second, Second.run(Budget));
  EXPECT_TRUE(Want == Got)
      << What << formatString(" (snapshot at %llu cycles): resumed run "
                              "diverged from the uninterrupted one",
                              static_cast<unsigned long long>(SnapAt))
      << "\n  status " << runStatusName(Want.Status) << " vs "
      << runStatusName(Got.Status) << "\n  cycles " << Want.Cycles << " vs "
      << Got.Cycles << "\n  hash " << Want.Hash << " vs " << Got.Hash;
}

std::string phasesSrc() {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  return workloads::buildPhasesProgram(Spec);
}

std::string pipelineSrc() {
  workloads::PipelineSpec Spec;
  Spec.Stages = 8;
  Spec.Items = 32;
  return workloads::buildPipelineProgram(Spec);
}

//===----------------------------------------------------------------------===//
// Engine sweep at assorted snapshot cycles
//===----------------------------------------------------------------------===//

TEST(Snapshot, ResumeMatchesUninterruptedAcrossEnginesPhases) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(SimConfig::lbp(4), C);
    for (uint64_t SnapAt : {1ull, 37ull, 200ull, 1000ull})
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("phases/") + C.Name);
  }
}

TEST(Snapshot, ResumeMatchesUninterruptedAcrossEnginesPipeline) {
  assembler::Program Prog = assembleOrDie(pipelineSrc());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(SimConfig::lbp(4), C);
    for (uint64_t SnapAt : {5ull, 333ull, 2048ull})
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("pipeline/") + C.Name);
  }
}

/// The 16-core tiled matmul mid-run: every core busy, ROBs full of
/// entries waiting on loads and on the result buffer, so each snapshot
/// carries the state the per-hart scheduling summary is rebuilt from
/// (ready, result-buffer and consumer masks, the head's done cycle).
/// Resumed on the same engine and on the other one.
TEST(Snapshot, ResumeMatMulMidRunAcrossEngines) {
  workloads::MatMulSpec Spec =
      workloads::MatMulSpec::paper(64, workloads::MatMulVersion::Tiled);
  SimConfig Base = SimConfig::lbp(Spec.cores());
  Base.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  assembler::Program Prog =
      assembleOrDie(workloads::buildMatMulProgram(Spec));
  for (const EngineCell &From : Cells) {
    SimConfig FromCfg = cellConfig(Base, From);
    Machine Full(FromCfg);
    Full.load(Prog);
    Fingerprint Want = fingerprint(Full, Full.run());
    ASSERT_EQ(Want.Status, RunStatus::Exited);
    for (uint64_t SnapAt : {20011ull, 46849ull, 81001ull}) {
      Machine First(FromCfg);
      First.load(Prog);
      First.run(SnapAt);
      std::vector<uint8_t> Blob;
      First.saveSnapshot(Blob);
      for (const EngineCell &To : Cells) {
        if (!portable(From, To))
          continue;
        Machine Second(cellConfig(Base, To));
        std::string Err;
        ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << Err;
        EXPECT_TRUE(Want == fingerprint(Second, Second.run()))
            << "matmul " << From.Name << "->" << To.Name
            << " resumed at cycle " << SnapAt << " diverged";
      }
    }
  }
}

/// The fork/join handshake window: the phases team forks within the
/// first couple hundred cycles, so a dense sweep over that range lands
/// snapshots between p_fc allocation, start-message flight, token
/// passes and the join — the protocol states a checkpoint must carry.
TEST(Snapshot, ResumeMidXParHandshake) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(SimConfig::lbp(4), C);
    for (uint64_t SnapAt = 2; SnapAt < 160; SnapAt += 13)
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("handshake/") + C.Name);
  }
}

//===----------------------------------------------------------------------===//
// Cross-engine restore (host-only knobs may differ between save/resume)
//===----------------------------------------------------------------------===//

TEST(Snapshot, BlobIsPortableAcrossEngines) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  for (const EngineCell &From : Cells) {
    for (const EngineCell &To : Cells) {
      if (!portable(From, To))
        continue;
      SimConfig FromCfg = cellConfig(SimConfig::lbp(4), From);
      SimConfig ToCfg = cellConfig(SimConfig::lbp(4), To);
      expectResumeIdentical(Prog, FromCfg, ToCfg, /*SnapAt=*/97,
                            std::string("cross/") + From.Name + "->" +
                                To.Name);
    }
  }
}

//===----------------------------------------------------------------------===//
// Mid quiescent spin
//===----------------------------------------------------------------------===//

/// Harts spinning in private ALU loops while the cores left without a
/// hart sleep: the fast path's awake-core set is live state at almost
/// every snapshot point, and a spinning core waits on its own timers.
std::string spinSrc() {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  Head.line("li s1, 3");
  Head.label("round");
  romp::emitParallelCall(Head, "worker", 16, "0");
  Head.line("addi s1, s1, -1");
  Head.line("bnez s1, round");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() + R"(
    .equ OUT, 0x20000200
worker:
    li a2, 250
spin:
    addi a2, a2, -1
    bnez a2, spin
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)";
}

TEST(Snapshot, ResumeMidQuiescentSpin) {
  // Snapshot budgets landing inside the long spin stretches. run(N)
  // stops between cycles, so the blob is an ordinary state — portable
  // to either engine, including back to a fast-path run that restarts
  // with every core awake and puts the idle ones back to sleep on their
  // first visit. The blob holds no awake set: restored into a machine
  // that already ran the program, whose cores 1 to 3 sleep at its exit,
  // the restore must wake them, or they sleep through their spins.
  assembler::Program Prog = assembleOrDie(spinSrc());
  for (const EngineCell &From : Cells) {
    if (!From.FastPath)
      continue;
    SimConfig Fast = cellConfig(SimConfig::lbp(4), From);
    for (const EngineCell &To : Cells) {
      if (!portable(From, To))
        continue;
      SimConfig ToCfg = cellConfig(SimConfig::lbp(4), To);
      for (uint64_t SnapAt : {150ull, 731ull, 1500ull})
        for (bool Used : {false, true})
          expectResumeIdentical(Prog, Fast, ToCfg, SnapAt,
                                std::string("midspin/") + From.Name +
                                    "->" + To.Name,
                                Used);
    }
  }
}

TEST(Snapshot, StallTalliesResumeAtEveryCycle) {
  // Dependent divisions: the core stays awake through each 16-cycle
  // divide (the head's done cycle is a pending timer), its ready work
  // blocked behind the one result buffer. Dependent global loads: the
  // core sleeps while each load waits for its response. A snapshot at
  // any cycle must leave the restored machine crediting the cycles the
  // core still sleeps through to the cause the uninterrupted run gives
  // them, so restore re-derives that cause from the saved state.
  const struct {
    const char *Name;
    const char *Src;
  } Programs[] = {{"divisions", R"(
main:
    li a0, 1000000000
    li a1, 3
    div a2, a0, a1
    div a3, a2, a1
    div a4, a3, a1
    li ra, 0
    li t0, -1
    p_ret
)"},
                  {"loads", R"(
main:
    li a0, 0x20000000
    lw a1, 0(a0)
    add a1, a1, a0
    lw a2, 4(a1)
    add a2, a2, a0
    lw a3, 8(a2)
    li ra, 0
    li t0, -1
    p_ret
)"}};
  for (const auto &P : Programs) {
    assembler::Program Prog = assembleOrDie(P.Src);
    for (const EngineCell &C : Cells) {
      if (!C.Stalls)
        continue;
      SimConfig Cfg = cellConfig(SimConfig::lbp(1), C);
      Machine Full(Cfg);
      Full.load(Prog);
      ASSERT_EQ(Full.run(), RunStatus::Exited) << P.Name << "/" << C.Name;
      for (uint64_t SnapAt = 1; SnapAt < Full.cycles(); ++SnapAt)
        for (bool Used : {false, true})
          expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                                std::string(P.Name) + "/" + C.Name, Used);
    }
  }
}

//===----------------------------------------------------------------------===//
// Wide machines and the sparse memory section
//===----------------------------------------------------------------------===//

TEST(Snapshot, WideForkJoinSaveRestoreSaveIsByteIdentical) {
  // A 64-core fork/join machine mid-run: teams half built, most cores
  // asleep, every core marked awake again by the restore.
  // The blob holds only the nonzero blocks of the 8 MiB bank store.
  assembler::Program Prog = assembleOrDie(test::wideForkJoinProgram());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(test::wideConfig(), C);
    for (uint64_t SnapAt : {2500ull, 19999ull}) {
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("wide/") + C.Name);
      Machine M(Cfg);
      M.load(Prog);
      M.run(SnapAt);
      std::vector<uint8_t> Blob;
      M.saveSnapshot(Blob);
      EXPECT_LT(Blob.size(), 1u << 20) << C.Name << " at " << SnapAt;
    }
  }
}

TEST(Snapshot, RestoreIntoFinishedMachineClearsItsPages) {
  // Restore an early snapshot into a machine that already ran the same
  // program to completion. Every page the finished run wrote must read
  // as zero again unless the blob says otherwise: re-saving yields the
  // blob itself, and the resumed run matches the uninterrupted one.
  assembler::Program Prog = assembleOrDie(test::wideForkJoinProgram());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(test::wideConfig(), C);
    Machine Full(Cfg);
    Full.load(Prog);
    Fingerprint Want = fingerprint(Full, Full.run());
    ASSERT_EQ(Want.Status, RunStatus::Exited) << C.Name;

    Machine Early(Cfg);
    Early.load(Prog);
    Early.run(1500);
    std::vector<uint8_t> Blob;
    Early.saveSnapshot(Blob);

    std::string Err;
    ASSERT_TRUE(Full.restoreSnapshot(Blob, Err)) << C.Name << ": " << Err;
    std::vector<uint8_t> Again;
    Full.saveSnapshot(Again);
    EXPECT_EQ(Blob, Again) << C.Name << ": stale pages survived restore";
    EXPECT_EQ(Full.debugReadWord(test::WideOutBase +
                                 4 * (4 * test::WideCores * 7 + 3)),
              0u)
        << C.Name << ": the last region's output was not cleared";
    EXPECT_TRUE(Want == fingerprint(Full, Full.run()))
        << C.Name << ": resumed run diverged";
    for (unsigned T = 0; T != test::WideTeams[7]; ++T)
      ASSERT_EQ(Full.debugReadWord(test::WideOutBase +
                                   4 * (4 * test::WideCores * 7 + T)),
                test::wideValue(7, T))
          << C.Name << " member " << T;
  }
}

//===----------------------------------------------------------------------===//
// Mid fault-injection window
//===----------------------------------------------------------------------===//

TEST(Snapshot, ResumeInsideOpenFaultWindow) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Base = SimConfig::lbp(4);
  Base.Faults.Seed = 7;
  Base.Faults.Drops = 1;
  Base.Faults.Delays = 2;
  Base.Faults.StuckBanks = 1;
  Base.Faults.WindowBegin = 20;
  Base.Faults.WindowEnd = 600;
  Base.Faults.StuckDuration = 256;
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(Base, C);
    // Snapshots straddle the window: before it opens, inside it (some
    // events fired, some armed, a stuck-bank window possibly mid-flight)
    // and after it closes.
    for (uint64_t SnapAt : {10ull, 64ull, 300ull, 900ull})
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("faults/") + C.Name);
  }
}

TEST(Snapshot, FaultCursorSurvivesRestore) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.Faults.Seed = 11;
  Cfg.Faults.Delays = 3;
  Cfg.Faults.WindowBegin = 1;
  Cfg.Faults.WindowEnd = 400;

  Machine M(Cfg);
  M.load(Prog);
  M.run(4000000);
  unsigned WantFired = M.faultPlan().firedCount();
  ASSERT_GT(WantFired, 0u) << "plan never fired; pick another seed";

  Machine First(Cfg);
  First.load(Prog);
  First.run(200);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);
  Machine Second(Cfg);
  std::string Err;
  ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << Err;
  EXPECT_EQ(Second.faultPlan().firedCount(), First.faultPlan().firedCount());
  Second.run(4000000);
  EXPECT_EQ(Second.faultPlan().firedCount(), WantFired);
}

//===----------------------------------------------------------------------===//
// Devices
//===----------------------------------------------------------------------===//

/// Builds the sensor-fusion machine (4 seeded sensors + actuator).
/// Device state — RNG cursors, armed samples, the actuator log — is
/// part of the snapshot, so a mid-round resume must not replay or skip
/// an actuation.
void addFusionDevices(Machine &M, uint64_t Seed, unsigned Rounds) {
  for (unsigned S = 0; S != 4; ++S) {
    std::vector<uint32_t> Samples;
    for (unsigned K = 0; K != Rounds; ++K)
      Samples.push_back(100 * (S + 1) + K);
    M.addDevice(workloads::SensorBase(S), 0x100,
                std::make_unique<SensorDevice>(Samples, Seed + S, 20, 400));
  }
  M.addDevice(workloads::ActuatorBase, 0x100,
              std::make_unique<ActuatorDevice>());
}

TEST(Snapshot, DeviceStateRoundTrips) {
  workloads::SensorFusionSpec Spec;
  Spec.Rounds = 6;
  assembler::Program Prog =
      assembleOrDie(workloads::buildSensorFusionProgram(Spec));
  SimConfig Cfg = SimConfig::lbp(1);
  Cfg.CollectCounters = true;

  Machine Full(Cfg);
  Full.load(Prog);
  addFusionDevices(Full, /*Seed=*/5, Spec.Rounds);
  Fingerprint Want = fingerprint(Full, Full.run(10000000));
  ASSERT_EQ(Want.Status, RunStatus::Exited) << Full.faultMessage();

  for (uint64_t SnapAt : {50ull, 777ull, 3000ull}) {
    Machine First(Cfg);
    First.load(Prog);
    addFusionDevices(First, /*Seed=*/5, Spec.Rounds);
    First.run(SnapAt);
    std::vector<uint8_t> Blob;
    First.saveSnapshot(Blob);

    Machine Second(Cfg);
    addFusionDevices(Second, /*Seed=*/5, Spec.Rounds);
    std::string Err;
    ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << Err;
    Fingerprint Got = fingerprint(Second, Second.run(10000000));
    EXPECT_TRUE(Want == Got) << "sensor-fusion resume at " << SnapAt
                             << " diverged (cycles " << Want.Cycles << " vs "
                             << Got.Cycles << ")";
  }
}

TEST(Snapshot, DeviceCountMismatchRejected) {
  workloads::SensorFusionSpec Spec;
  assembler::Program Prog =
      assembleOrDie(workloads::buildSensorFusionProgram(Spec));
  SimConfig Cfg = SimConfig::lbp(1);
  Machine First(Cfg);
  First.load(Prog);
  addFusionDevices(First, /*Seed=*/5, Spec.Rounds);
  First.run(100);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);

  Machine Second(Cfg); // no devices added
  std::string Err;
  EXPECT_FALSE(Second.restoreSnapshot(Blob, Err));
  EXPECT_NE(Err.find("device count"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Terminal states and rejection paths
//===----------------------------------------------------------------------===//

TEST(Snapshot, FinishedRunStatePersists) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Machine M(Cfg);
  M.load(Prog);
  ASSERT_EQ(M.run(4000000), RunStatus::Exited) << M.faultMessage();
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);

  Machine R(Cfg);
  std::string Err;
  ASSERT_TRUE(R.restoreSnapshot(Blob, Err)) << Err;
  EXPECT_EQ(R.status(), RunStatus::Exited);
  EXPECT_EQ(R.cycles(), M.cycles());
  EXPECT_EQ(R.traceHash(), M.traceHash());
  EXPECT_EQ(R.retired(), M.retired());
}

TEST(Snapshot, RejectsBadMagicVersionDigestAndTruncation) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Machine M(Cfg);
  M.load(Prog);
  M.run(100);
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  std::string Err;

  { // Bad magic.
    std::vector<uint8_t> B = Blob;
    B[0] ^= 0xff;
    Machine R(Cfg);
    EXPECT_FALSE(R.restoreSnapshot(B, Err));
    EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
  }
  { // Wrong format version.
    std::vector<uint8_t> B = Blob;
    B[4] ^= 0xff;
    Machine R(Cfg);
    EXPECT_FALSE(R.restoreSnapshot(B, Err));
    EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  }
  { // Behaviorally different config: digest must refuse.
    SimConfig Other = Cfg;
    Other.RouterHopLatency += 1;
    Machine R(Other);
    EXPECT_FALSE(R.restoreSnapshot(Blob, Err));
    EXPECT_NE(Err.find("digest"), std::string::npos) << Err;
  }
  { // The host-only FastPath does NOT change the digest.
    SimConfig Host = Cfg;
    Host.FastPath = !Host.FastPath;
    EXPECT_EQ(snapshotConfigDigest(Host), snapshotConfigDigest(Cfg));
  }
  { // Truncation at every prefix length of the tail must fail cleanly.
    for (size_t Cut : {Blob.size() - 1, Blob.size() / 2, size_t(12)}) {
      std::vector<uint8_t> B(Blob.begin(), Blob.begin() + Cut);
      Machine R(Cfg);
      EXPECT_FALSE(R.restoreSnapshot(B, Err)) << "cut=" << Cut;
    }
  }
}

/// Saves a 100-cycle phases snapshot, rewrites its format version to
/// \p Version and expects the current machine to refuse it with a
/// diagnostic naming both versions instead of misreading the hart
/// records.
void expectOldVersionRejected(uint32_t Version) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Machine M(Cfg);
  M.load(Prog);
  M.run(100);
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  ASSERT_EQ(SnapshotFormatVersion, 8u);
  Blob[4] = static_cast<uint8_t>(Version); // the little-endian u32 after
  Blob[5] = Blob[6] = Blob[7] = 0;         // the magic
  Machine R(Cfg);
  std::string Err;
  EXPECT_FALSE(R.restoreSnapshot(Blob, Err));
  EXPECT_NE(Err.find("format version " + std::to_string(Version) +
                     " (expected 8)"),
            std::string::npos)
      << Err;
}

TEST(Snapshot, RejectsOutOfRangeRobReference) {
  // Restore indexes the ROB with the saved producer references when it
  // rebuilds each hart's scheduling summary, so it must refuse one that
  // names no ROB entry. Right after load every register of every hart
  // has no pending producer, saved as 32 bytes of -1; the first such
  // run in the blob is hart 0's.
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Machine M(Cfg);
  M.load(Prog);
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  auto It = std::search_n(Blob.begin(), Blob.end(), 32, uint8_t{0xff});
  ASSERT_NE(It, Blob.end());
  auto ExpectRejected = [&](size_t Offset, uint8_t Byte) {
    std::vector<uint8_t> Bad = Blob;
    Bad[(It - Blob.begin()) + Offset] = Byte;
    Machine R(Cfg);
    std::string Err;
    EXPECT_FALSE(R.restoreSnapshot(Bad, Err)) << "offset " << Offset;
    EXPECT_NE(Err.find("reorder-buffer state out of range"),
              std::string::npos)
        << Err;
  };
  ExpectRejected(0, 0x7f); // producer 127: no such entry
  // The ROB follows; writeback indexes the register file with each
  // entry's rd, so restore must refuse register numbers past x31. The
  // first entry's instruction is a u16 opcode, then rd, rs1, rs2.
  ExpectRejected(32 + 2, 32);
  ExpectRejected(32 + 3, 32);
  ExpectRejected(32 + 4, 0xff);
}

TEST(Snapshot, RejectsFormatVersion3Blob) {
  // Version 3 blobs carried the sharded engine's gate/send bookkeeping.
  expectOldVersionRejected(3);
}

TEST(Snapshot, RejectsFormatVersion4Blob) {
  // Version 4 blobs carried the rename stamps and per-source ready bits
  // that v5 derives from the ROB instead.
  expectOldVersionRejected(4);
}

TEST(Snapshot, RejectsFormatVersion5Blob) {
  // Version 5 blobs carried every bank in full; v6 holds only the bank
  // store's nonzero blocks.
  expectOldVersionRejected(5);
}

TEST(Snapshot, RejectsFormatVersion6Blob) {
  // Version 6 blobs carried the interval-digest ring and each core's
  // fast-path sleep cycle, which v7 leaves out.
  expectOldVersionRejected(6);
}

TEST(Snapshot, RejectsFormatVersion7Blob) {
  // Version 7 blobs carried a count of the deliveries on the wheel after
  // the overflow heap's sequence counter, which v8 leaves out.
  expectOldVersionRejected(7);
}

/// Where the memory section's parts sit in a blob: the code image comes
/// right after the 16-byte header, then the block count, the block
/// indices and the blocks themselves.
struct MemorySection {
  size_t Count;   ///< Offset of the u64 block count.
  size_t Indices; ///< Offset of the first u32 block index.
  size_t Blocks;  ///< Offset of the first block's bytes.
  uint64_t NumBlocks;
};

uint64_t readU64(const std::vector<uint8_t> &B, size_t At) {
  uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(B[At + I]) << (8 * I);
  return V;
}

uint32_t readU32(const std::vector<uint8_t> &B, size_t At) {
  return static_cast<uint32_t>(readU64(B, At));
}

void writeU32(std::vector<uint8_t> &B, size_t At, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    B[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

MemorySection locateMemorySection(const std::vector<uint8_t> &Blob) {
  MemorySection S;
  S.Count = 16 + 8 + readU64(Blob, 16);
  S.NumBlocks = readU64(Blob, S.Count);
  S.Indices = S.Count + 8;
  S.Blocks = S.Indices + 4 * S.NumBlocks;
  return S;
}

/// Blocks of the 4-core bank store the rejection tests below restore
/// into.
uint64_t storeBlocks() {
  SimConfig Cfg = SimConfig::lbp(4);
  return Cfg.NumCores * (uint64_t(isa::LocalSize) + Cfg.globalBankSize()) /
         SnapshotBlockBytes;
}

/// A 200-cycle phases snapshot (several nonzero blocks: stacks, the
/// data segment, early outputs) and its memory section.
std::vector<uint8_t> phasesBlob(MemorySection &S) {
  Machine M(SimConfig::lbp(4));
  M.load(assembleOrDie(phasesSrc()));
  M.run(200);
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  S = locateMemorySection(Blob);
  EXPECT_GE(S.NumBlocks, 2u);
  return Blob;
}

/// Expects \p Blob to be refused with a diagnostic containing \p Want.
void expectMemoryRejected(const std::vector<uint8_t> &Blob,
                          const std::string &Want) {
  Machine R(SimConfig::lbp(4));
  std::string Err;
  EXPECT_FALSE(R.restoreSnapshot(Blob, Err));
  EXPECT_NE(Err.find(Want), std::string::npos) << Err;
}

TEST(Snapshot, RejectsMemoryBlockIndexPastTheStore) {
  MemorySection S;
  std::vector<uint8_t> Blob = phasesBlob(S);
  ASSERT_GE(S.NumBlocks, 2u);
  // The last index names the block just past the store, and then one
  // far beyond it.
  for (uint32_t Bad : {static_cast<uint32_t>(storeBlocks()), 0xffffffffu}) {
    std::vector<uint8_t> B = Blob;
    writeU32(B, S.Indices + 4 * (S.NumBlocks - 1), Bad);
    expectMemoryRejected(B, "block index out of range");
  }
}

TEST(Snapshot, RejectsMemoryBlocksNotStrictlyAscending) {
  MemorySection S;
  std::vector<uint8_t> Blob = phasesBlob(S);
  ASSERT_GE(S.NumBlocks, 2u);
  uint32_t First = readU32(Blob, S.Indices);
  uint32_t Second = readU32(Blob, S.Indices + 4);
  { // Swapped.
    std::vector<uint8_t> B = Blob;
    writeU32(B, S.Indices, Second);
    writeU32(B, S.Indices + 4, First);
    expectMemoryRejected(B, "not strictly ascending");
  }
  { // Repeated.
    std::vector<uint8_t> B = Blob;
    writeU32(B, S.Indices + 4, First);
    expectMemoryRejected(B, "not strictly ascending");
  }
}

TEST(Snapshot, RejectsMemoryBlockCountAboveTheStore) {
  MemorySection S;
  std::vector<uint8_t> Blob = phasesBlob(S);
  for (uint64_t Count : {storeBlocks() + 1, uint64_t(1) << 62, ~uint64_t(0)}) {
    std::vector<uint8_t> B = Blob;
    for (unsigned I = 0; I != 8; ++I)
      B[S.Count + I] = static_cast<uint8_t>(Count >> (8 * I));
    expectMemoryRejected(B, "block count exceeds the bank store");
  }
}

TEST(Snapshot, RejectsBlobCutInsideAMemoryBlock) {
  // Cut inside the first block, one byte into the last block, and
  // inside the index list.
  MemorySection S;
  std::vector<uint8_t> Blob = phasesBlob(S);
  for (size_t Cut : {S.Blocks + SnapshotBlockBytes / 2,
                     S.Blocks + (S.NumBlocks - 1) * SnapshotBlockBytes + 1,
                     S.Indices + 2}) {
    std::vector<uint8_t> B(Blob.begin(), Blob.begin() + Cut);
    expectMemoryRejected(B, "memory section truncated");
  }
}

//===----------------------------------------------------------------------===//
// Hostile blobs and pinned blob bytes
//===----------------------------------------------------------------------===//

/// A 4-core program whose blob has every variable-length section
/// non-empty a while into the run. Hart 0 arms a sensor, polls it and
/// writes the sample to an actuator twice, then forks a 16-member team.
/// Every member stores its index to shared memory (the memory log) and
/// sends it to hart 0's reduction slot; members 1 and 2 first spin on
/// their stacks for 1500 iterations. Hart 0 collects only after the
/// join, so the early sends queue in its result-slot backlog while
/// members 1 and 2 spin, with their loads and stores on the wheel.
std::string sectionsSrc() {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  Head.line("li s2, 0x%x", workloads::SensorBase(0));
  Head.line("sw zero, 0(s2)");
  Head.label("poll");
  Head.line("lw t1, 0(s2)");
  Head.line("beqz t1, poll");
  Head.line("lw s3, 4(s2)");
  Head.line("li s4, 0x%x", workloads::ActuatorBase);
  Head.line("sw s3, 4(s4)");
  Head.line("addi s3, s3, 1");
  Head.line("sw s3, 4(s4)");
  romp::emitParallelCall(Head, "member", 16, "0", 16);
  Head.line("li s1, 0");
  romp::emitReduceCollect(Head, "s1", 16);
  Head.line("li t1, 0x20000000");
  Head.line("sw s1, 0(t1)");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  romp::AsmText Body;
  Body.label("member");
  Body.line("slli t1, a0, 2");
  Body.line("li t2, 0x20000100");
  Body.line("add t1, t1, t2");
  Body.line("sw a0, 0(t1)");
  Body.line("addi t3, a0, -1");
  Body.line("li t4, 2");
  Body.line("bgeu t3, t4, send");
  Body.line("li t5, 1500");
  Body.label("spin");
  Body.line("lw t6, -4(sp)");
  Body.line("add t6, t6, t5");
  Body.line("sw t6, -4(sp)");
  Body.line("addi t5, t5, -1");
  Body.line("bnez t5, spin");
  Body.label("send");
  romp::emitReduceSend(Body, "a0");
  Body.line("p_syncm");
  Body.line("p_ret");
  return Head.str() + Tail.str() + Body.str();
}

/// The machine sectionsSrc() runs on: counters and the memory log on,
/// and one delay fault of up to 40000 cycles (seed 16 draws 32629,
/// longer than the 16384-cycle wheel, so the delayed delivery waits in
/// the overflow heap).
SimConfig sectionsConfig() {
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectCounters = true;
  Cfg.CollectMemLog = true;
  Cfg.Faults.Seed = 16;
  Cfg.Faults.Delays = 1;
  Cfg.Faults.MaxDelay = 40000;
  Cfg.Faults.WindowBegin = 500;
  Cfg.Faults.WindowEnd = 900;
  return Cfg;
}

/// Adds the sensor and the actuator; returns the actuator.
ActuatorDevice *addSectionsDevices(Machine &M) {
  M.addDevice(workloads::SensorBase(0), 0x100,
              std::make_unique<SensorDevice>(std::vector<uint32_t>{7, 8},
                                             /*Seed=*/3, 20, 400));
  auto Act = std::make_unique<ActuatorDevice>();
  ActuatorDevice *Raw = Act.get();
  M.addDevice(workloads::ActuatorBase, 0x100, std::move(Act));
  return Raw;
}

/// The sections program's blob at cycle 1750, checked to hold what the
/// public state can show: the queued reduction sends, the pending
/// delayed delivery, the memory log and the actuator log.
std::vector<uint8_t> sectionsBlob() {
  Machine M(sectionsConfig());
  M.load(assembleOrDie(sectionsSrc()));
  ActuatorDevice *Act = addSectionsDevices(M);
  EXPECT_EQ(M.run(1750), RunStatus::MaxCycles) << M.faultMessage();
  EXPECT_EQ(M.hartState(0), HartState::WaitingJoin);
  EXPECT_GE(M.counters().slotHighWater(0), 2u);
  EXPECT_EQ(M.faultPlan().events().size(), 1u);
  const FaultEvent &Delay = M.faultPlan().events().at(0);
  EXPECT_TRUE(Delay.Fired);
  EXPECT_GT(Delay.Param, 1u << 14);
  EXPECT_GT(Delay.FiredCycle + Delay.Param, M.cycles() + (1u << 14));
  EXPECT_FALSE(M.memLog().empty());
  EXPECT_FALSE(Act->records().empty());
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  return Blob;
}

/// Overwrites the 8 bytes at \p At (fewer at the end) with 2^62,
/// little-endian: a count no blob can back, and a top byte of 0x40 that
/// no enum reaches.
void plant(std::vector<uint8_t> &B, size_t At) {
  constexpr uint64_t Hostile = uint64_t(1) << 62;
  for (unsigned I = 0; I != 8 && At + I < B.size(); ++I)
    B[At + I] = static_cast<uint8_t>(Hostile >> (8 * I));
}

TEST(Snapshot, HostileCountsAndEnumsAreRefusedAtEveryOffset) {
  // Every count and every enum of a blob whose variable-length sections
  // are all non-empty meets 2^62 at some offset. Restore must refuse it
  // with a diagnostic or accept a blob that is in range; it must never
  // throw, allocate for the count or trip a sanitizer.
  std::vector<uint8_t> Blob = sectionsBlob();
  Machine R(sectionsConfig());
  addSectionsDevices(R);
  size_t Refused = 0;
  for (size_t At = 0; At != Blob.size(); ++At) {
    std::vector<uint8_t> Bad = Blob;
    plant(Bad, At);
    std::string Err;
    if (!R.restoreSnapshot(Bad, Err)) {
      ++Refused;
      EXPECT_FALSE(Err.empty()) << "offset " << At;
      continue;
    }
    for (unsigned H = 0; H != R.config().numHarts(); ++H)
      ASSERT_LE(R.hartState(H), HartState::WaitingJoin) << "offset " << At;
    for (const MachineCheck &MC : R.machineChecks())
      ASSERT_LE(MC.Kind, CheckKind::SchedulePast) << "offset " << At;
  }
  EXPECT_GT(Refused, 0u);
  // The restoring machine is still sound: the untouched blob resumes.
  std::string Err;
  EXPECT_TRUE(R.restoreSnapshot(Blob, Err)) << Err;
}

/// 64-bit FNV-1a over \p B.
uint64_t fnv1a(const std::vector<uint8_t> &B) {
  uint64_t H = 14695981039346656037ull;
  for (uint8_t X : B) {
    H ^= X;
    H *= 1099511628211ull;
  }
  return H;
}

TEST(Snapshot, BlobBytesArePinned) {
  // Format v8 byte for byte: sizes and hashes of blobs saved at fixed
  // points. The save -> restore -> save tests compare two blobs of one
  // build, so only literal values catch a layout change that both
  // directions make alike. A deliberate format change bumps
  // SnapshotFormatVersion and re-records these; a change to the config
  // digest (snapshotConfigDigest) re-records only the hashes.
  struct Pin {
    size_t Size;
    uint64_t Hash;
  };
  auto ExpectPinned = [](const std::vector<uint8_t> &Blob, const Pin &Want,
                         const char *What) {
    EXPECT_EQ(Blob.size(), Want.Size) << What;
    EXPECT_EQ(fnv1a(Blob), Want.Hash) << What;
  };
  ExpectPinned(sectionsBlob(), {14185, 0x5ceae6c8cf62fff2ull}, "sections");

  // The wide machine mid-run. The engines reach the same state by
  // different schedules, and the blob holds none of the fast path's
  // wake bookkeeping, so both save the same bytes.
  assembler::Program Wide = assembleOrDie(test::wideForkJoinProgram());
  for (bool FastPath : {false, true}) {
    SimConfig Cfg = test::wideConfig();
    Cfg.FastPath = FastPath;
    Machine M(Cfg);
    M.load(Wide);
    M.run(2500);
    std::vector<uint8_t> Blob;
    M.saveSnapshot(Blob);
    ExpectPinned(Blob, {164742, 0xe4d8f760752904c7ull},
                 FastPath ? "wide, fast path" : "wide, reference");
  }
}

//===----------------------------------------------------------------------===//
// The delivery wheel section
//===----------------------------------------------------------------------===//

/// Encoded sizes of a delivery and of an overflow-heap entry (its
/// arrival cycle and sequence number, then the delivery).
constexpr size_t DeliveryBytes = 29;
constexpr size_t OverflowEntryBytes = 16 + DeliveryBytes;

/// Where the wheel section and the counters that account for it sit in
/// a machine blob.
struct WheelLayout {
  std::vector<size_t> SlotIndex; ///< Each busy slot's u64 index.
  uint64_t Deliveries = 0;       ///< Deliveries the section holds.
  size_t Cycle = 0;              ///< The machine's u64 Cycle.
  size_t PendingDeliveries = 0;  ///< The checker's u64 pending count.
};

/// Reads the wheel section at \p At: the busy-slot count, each slot's
/// ascending index and deliveries, then the overflow heap and its
/// sequence counter, which the machine's cycle \p Cycle must follow.
/// False if the bytes there are not all of that.
bool readWheelAt(const std::vector<uint8_t> &B, size_t At, uint64_t Cycle,
                 WheelLayout &L) {
  auto Fits = [&](size_t N) { return At <= B.size() && B.size() - At >= N; };
  if (!Fits(8))
    return false;
  uint64_t Busy = readU64(B, At);
  if (Busy == 0 || Busy > 1u << 14)
    return false;
  L = WheelLayout();
  At += 8;
  for (uint64_t I = 0; I != Busy; ++I) {
    if (!Fits(16))
      return false;
    uint64_t Slot = readU64(B, At), N = readU64(B, At + 8);
    if (Slot >= 1u << 14 || N == 0 || N > B.size() ||
        (I != 0 && Slot <= readU64(B, L.SlotIndex.back())))
      return false;
    L.SlotIndex.push_back(At);
    L.Deliveries += N;
    At += 16 + N * DeliveryBytes;
  }
  if (!Fits(8) || readU64(B, At) > B.size())
    return false;
  At += 8 + readU64(B, At) * OverflowEntryBytes + 8; // heap, OverflowSeq
  if (!Fits(8) || readU64(B, At) != Cycle)
    return false;
  L.Cycle = At;
  return true;
}

/// Finds the one offset of \p M's blob \p B that reads as its wheel
/// section, then walks the machine fields from the Cycle on
/// (SnapshotAccess::machine in sim/Snapshot.cpp) to the checker's
/// pending-delivery count. False unless exactly one offset reads as a
/// wheel section and the walk stays inside the blob.
bool locateWheel(const std::vector<uint8_t> &B, const Machine &M,
                 WheelLayout &Found) {
  WheelLayout L;
  unsigned Matches = 0;
  for (size_t At = 0; At != B.size(); ++At)
    if (readWheelAt(B, At, M.cycles(), L)) {
      Found = L;
      ++Matches;
    }
  if (Matches != 1)
    return false;
  size_t At = Found.Cycle;
  auto Skip = [&](uint64_t N) {
    At = N <= B.size() - At ? At + N : B.size();
    return At + 8 <= B.size();
  };
  // Cycle, LastProgress, Status and Halted; FaultMsg; TotalRetired,
  // JoinEpoch, Hart0InTeam, RemoteAccesses and LocalAccesses; then the
  // stall tallies, the memory log and the fault plan cursor, each a u64
  // count of fixed-size entries.
  if (!Skip(8 + 8 + 1 + 1) || !Skip(8 + readU64(B, At)) ||
      !Skip(8 + 8 + 1 + 8 + 8) || !Skip(8 + 8 * readU64(B, At)) ||
      !Skip(8 + 25 * readU64(B, At)) || !Skip(8 + 9 * readU64(B, At)))
    return false;
  uint64_t Checks = readU64(B, At);
  if (!Skip(8))
    return false;
  for (uint64_t I = 0; I != Checks; ++I) // cycle, core, hart, kind, message
    if (!Skip(8 + 4 + 4 + 1) || !Skip(8 + readU64(B, At)))
      return false;
  Found.PendingDeliveries = At;
  return true;
}

void writeU64(std::vector<uint8_t> &B, size_t At, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    B[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Expects a 4-core machine to refuse \p Blob with a diagnostic
/// containing \p Want.
void expectWheelRejected(const std::vector<uint8_t> &Blob,
                         const std::string &Want) {
  Machine R(SimConfig::lbp(4));
  std::string Err;
  EXPECT_FALSE(R.restoreSnapshot(Blob, Err));
  EXPECT_NE(Err.find(Want), std::string::npos) << Err;
}

/// A 4-core phases blob saved at \p Cycle, and its wheel layout.
std::vector<uint8_t> phasesWheelBlob(uint64_t Cycle, WheelLayout &L) {
  Machine M(SimConfig::lbp(4));
  M.load(assembleOrDie(phasesSrc()));
  EXPECT_EQ(M.run(Cycle), RunStatus::MaxCycles);
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  EXPECT_TRUE(locateWheel(Blob, M, L));
  return Blob;
}

TEST(Snapshot, RejectsWheelSlotsNotStrictlyAscending) {
  // A slot listed twice used to replace the deliveries restored for it
  // first. Saved blobs list busy slots in ascending order, so restore
  // accepts no other. At cycle 379, three slots are busy.
  WheelLayout L;
  std::vector<uint8_t> Blob = phasesWheelBlob(379, L);
  ASSERT_GE(L.SlotIndex.size(), 2u);
  uint64_t First = readU64(Blob, L.SlotIndex[0]);
  uint64_t Second = readU64(Blob, L.SlotIndex[1]);
  { // Swapped.
    std::vector<uint8_t> B = Blob;
    writeU64(B, L.SlotIndex[0], Second);
    writeU64(B, L.SlotIndex[1], First);
    expectWheelRejected(B, "wheel slot indices not strictly ascending");
  }
  { // Repeated.
    std::vector<uint8_t> B = Blob;
    writeU64(B, L.SlotIndex[1], First);
    expectWheelRejected(B, "wheel slot indices not strictly ascending");
  }
}

/// One hart loads a word, then exits once the load's value is back.
std::string delayedLoadSrc() {
  return "main:\n  li t1, 0x20000000\n  lw a0, 0(t1)\n  addi a0, a0, 1\n"
         "  p_ret\nhang:\n  j hang\n";
}

TEST(Snapshot, WheelAuditFiresAtTheSameCycleOnBothEngines) {
  // The checker recounts the wheel every 64th sweep (every 4096 cycles
  // at the default interval). A blob whose checker accounts one delivery
  // more than its wheel holds must fail that audit, at the same cycle
  // and with the same message on both engines. The load's rb-fill is
  // delayed by 4911 cycles (seed 23), so the machine sits idle across
  // the audit at cycle 4096, its one core asleep on the fast path; both
  // engines must still sweep at every interval boundary to audit there.
  SimConfig Cfg = SimConfig::lbp(1);
  Cfg.Faults.Seed = 23;
  Cfg.Faults.Delays = 1;
  Cfg.Faults.MaxDelay = 8000;
  Cfg.Faults.WindowBegin = 1;
  Cfg.Faults.WindowEnd = 2;
  assembler::Program Prog = assembleOrDie(delayedLoadSrc());
  Machine M(Cfg);
  M.load(Prog);
  ASSERT_EQ(M.faultPlan().events().at(0).Param, 4911u);
  ASSERT_EQ(M.faultPlan().events().at(0).ClassMask, FaultClassRbFill);
  ASSERT_EQ(M.run(100), RunStatus::MaxCycles) << M.faultMessage();
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  WheelLayout L;
  ASSERT_TRUE(locateWheel(Blob, M, L));
  ASSERT_EQ(L.Deliveries, 1u);
  ASSERT_EQ(readU64(Blob, L.PendingDeliveries), 1u);

  // Untouched, the run passes the audit and exits after the delay.
  for (const EngineCell &C : Cells) {
    Cfg.FastPath = C.FastPath;
    Machine R(Cfg);
    std::string Err;
    ASSERT_TRUE(R.restoreSnapshot(Blob, Err)) << Err;
    EXPECT_EQ(R.run(), RunStatus::Exited) << C.Name << ": " << R.faultMessage();
    EXPECT_GT(R.cycles(), 4096u) << C.Name;
  }

  writeU64(Blob, L.PendingDeliveries, 2);
  std::vector<std::pair<MachineCheck, std::string>> Reports;
  for (const EngineCell &C : Cells) {
    Cfg.FastPath = C.FastPath;
    Machine R(Cfg);
    std::string Err;
    ASSERT_TRUE(R.restoreSnapshot(Blob, Err)) << Err;
    EXPECT_EQ(R.run(), RunStatus::Fault) << C.Name;
    ASSERT_EQ(R.machineChecks().size(), 1u) << C.Name;
    Reports.emplace_back(R.machineChecks()[0], R.faultMessage());
    EXPECT_EQ(R.cycles(), 4096u) << C.Name;
  }
  const MachineCheck &Ref = Reports[0].first, &Fast = Reports[1].first;
  EXPECT_EQ(Ref.Kind, CheckKind::WheelImbalance);
  EXPECT_EQ(Ref.Cycle, 4096u);
  EXPECT_EQ(Ref.Message,
            "delivery wheel holds 1 entries but 2 are accounted");
  EXPECT_EQ(Fast.Kind, Ref.Kind);
  EXPECT_EQ(Fast.Cycle, Ref.Cycle);
  EXPECT_EQ(Fast.Message, Ref.Message);
  EXPECT_EQ(Reports[1].second, Reports[0].second);
}

} // namespace
