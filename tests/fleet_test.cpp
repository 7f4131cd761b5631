//===- tests/fleet_test.cpp - Fleet runner robustness -----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The fleet contract (fleet/Fleet.h; docs/ROBUSTNESS.md "Fleet failure
// taxonomy"): a campaign with crashing and hanging workers terminates,
// retries per policy, resumes from checkpoints bit-identically, and
// emits a canonical aggregate report that is byte-identical across
// repeat invocations. Worker death is real here — children fork() and
// abort() — so this test also exercises the reaping, pipe-drain and
// watchdog paths end to end.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "fleet/Fleet.h"
#include "workloads/Phases.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace lbp;
using namespace lbp::fleet;

namespace {

/// A private checkpoint directory per test, so parallel test processes
/// can never reap each other's checkpoints.
std::string makeCheckpointDir() {
  std::string Templ = ::testing::TempDir() + "lbp-fleet-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr);
  return Dir ? std::string(Dir) : ::testing::TempDir();
}

/// Counts *.ckpt (and .ckpt.tmp) entries left behind in \p Dir.
unsigned countCheckpointFiles(const std::string &Dir) {
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return 0;
  unsigned N = 0;
  while (dirent *E = readdir(D))
    if (std::strstr(E->d_name, ".ckpt"))
      ++N;
  closedir(D);
  return N;
}

std::vector<assembler::Program> sharedImages() {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  assembler::AsmResult R =
      assembler::assemble(workloads::buildPhasesProgram(Spec));
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  std::vector<assembler::Program> Images;
  Images.push_back(std::move(R.Prog));
  return Images;
}

std::vector<RunSpec> seedSweep(unsigned Runs, unsigned Delays = 1) {
  std::vector<RunSpec> Specs;
  for (unsigned I = 0; I != Runs; ++I) {
    RunSpec S;
    S.Name = "phases-seed" + std::to_string(I + 1);
    S.Cfg = sim::SimConfig::lbp(4);
    S.Cfg.Faults.Seed = I + 1;
    S.Cfg.Faults.Delays = Delays;
    S.Cfg.Faults.WindowBegin = 1;
    S.Cfg.Faults.WindowEnd = 2000;
    S.DeadlineCycles = 2000000;
    Specs.push_back(std::move(S));
  }
  return Specs;
}

/// User plus system CPU time of this process so far, in seconds.
double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

TEST(Fleet, CleanCampaignAllPass) {
  auto Images = sharedImages();
  auto Specs = seedSweep(4);
  FleetConfig FC;
  FC.Workers = 4;

  CampaignResult R = runCampaign(Images, Specs, FC);
  ASSERT_EQ(R.Runs.size(), 4u);
  EXPECT_TRUE(R.Complete);
  for (const RunResult &Run : R.Runs) {
    EXPECT_EQ(static_cast<int>(Run.V), static_cast<int>(Verdict::Pass))
        << Run.Name << ": " << Run.Message;
    EXPECT_GT(Run.Cycles, 0u);
    EXPECT_NE(Run.TraceHash, 0u);
    ASSERT_EQ(Run.Attempts.size(), 1u);
    EXPECT_EQ(static_cast<int>(Run.Attempts[0]),
              static_cast<int>(AttemptOutcome::Completed));
  }
  // Identical config + program => per-run results are a pure function
  // of the seed; spot-check two different seeds diverge in hash or not
  // at all deterministically (reports below pin the exact bytes).
  std::string Json = campaignToJson(R);
  EXPECT_NE(Json.find("\"schema\": \"lbp-fleet-report-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"complete\": true"), std::string::npos);
}

TEST(Fleet, CrashedWorkerRetriesFromCheckpointBitIdentically) {
  auto Images = sharedImages();
  auto Specs = seedSweep(3);

  // Baseline: no injection, no checkpointing.
  FleetConfig Clean;
  Clean.Workers = 3;
  CampaignResult Want = runCampaign(Images, Specs, Clean);
  ASSERT_TRUE(Want.Complete);

  // Run 1's first attempt aborts right after its first checkpoint; the
  // retry restores it and must land on the uninterrupted trace hash.
  FleetConfig FC;
  FC.Workers = 3;
  FC.MaxAttempts = 2;
  FC.CheckpointInterval = 500;
  FC.CheckpointDir = makeCheckpointDir();
  FC.InjectCrashRun = 1;
  CampaignResult Got = runCampaign(Images, Specs, FC);

  ASSERT_TRUE(Got.Complete);
  for (size_t I = 0; I != Got.Runs.size(); ++I) {
    EXPECT_EQ(Got.Runs[I].TraceHash, Want.Runs[I].TraceHash)
        << Got.Runs[I].Name;
    EXPECT_EQ(Got.Runs[I].Cycles, Want.Runs[I].Cycles);
    EXPECT_EQ(Got.Runs[I].Retired, Want.Runs[I].Retired);
  }
  const RunResult &Crashed = Got.Runs[1];
  ASSERT_EQ(Crashed.Attempts.size(), 2u);
  EXPECT_EQ(static_cast<int>(Crashed.Attempts[0]),
            static_cast<int>(AttemptOutcome::Crashed));
  EXPECT_EQ(static_cast<int>(Crashed.Attempts[1]),
            static_cast<int>(AttemptOutcome::Completed));
  EXPECT_TRUE(Crashed.ResumedFromCheckpoint);
  // No checkpoint survives a resolved campaign.
  EXPECT_EQ(countCheckpointFiles(FC.CheckpointDir), 0u)
      << "stale checkpoint in " << FC.CheckpointDir;
  rmdir(FC.CheckpointDir.c_str());
}

TEST(Fleet, HungWorkerIsKilledAndRetried) {
  auto Images = sharedImages();
  auto Specs = seedSweep(2);
  FleetConfig FC;
  FC.Workers = 2;
  FC.MaxAttempts = 2;
  FC.WallTimeoutMs = 300; // host backstop; the retry is uninjected
  FC.InjectHangRun = 0;
  CampaignResult R = runCampaign(Images, Specs, FC);

  ASSERT_TRUE(R.Complete);
  const RunResult &Hung = R.Runs[0];
  EXPECT_EQ(static_cast<int>(Hung.V), static_cast<int>(Verdict::Pass))
      << Hung.Message;
  ASSERT_EQ(Hung.Attempts.size(), 2u);
  EXPECT_EQ(static_cast<int>(Hung.Attempts[0]),
            static_cast<int>(AttemptOutcome::Hung));
  EXPECT_EQ(static_cast<int>(Hung.Attempts[1]),
            static_cast<int>(AttemptOutcome::Completed));
}

TEST(Fleet, HugeWallTimeoutNeverFiresAndParentSleeps) {
  // A budget too large for the clock's nanoseconds must saturate: the
  // watchdog never fires, and the parent still sleeps in poll() rather
  // than spinning on a deadline that overflowed into the past. The
  // workers' time is not counted in RUSAGE_SELF, so the parent's own
  // CPU time stays a small share of the campaign's wall time.
  auto Images = sharedImages();
  auto Specs = seedSweep(4);
  for (uint64_t Budget : {uint64_t{INT64_MAX}, UINT64_MAX}) {
    FleetConfig FC;
    FC.Workers = 2;
    FC.WallTimeoutMs = Budget;
    double Cpu0 = processCpuSeconds();
    auto Wall0 = std::chrono::steady_clock::now();
    CampaignResult R = runCampaign(Images, Specs, FC);
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Wall0)
                      .count();
    double Cpu = processCpuSeconds() - Cpu0;

    ASSERT_TRUE(R.Complete) << Budget;
    for (const RunResult &Run : R.Runs) {
      ASSERT_EQ(Run.Attempts.size(), 1u) << Run.Name;
      EXPECT_EQ(static_cast<int>(Run.Attempts[0]),
                static_cast<int>(AttemptOutcome::Completed))
          << Run.Name;
    }
    EXPECT_LT(Cpu, Wall / 4) << "budget " << Budget << ": parent used "
                             << Cpu << " s of CPU in " << Wall << " s";
  }
}

TEST(Fleet, ExhaustedRetriesDegradeToIncomplete) {
  auto Images = sharedImages();
  auto Specs = seedSweep(2);
  FleetConfig FC;
  FC.Workers = 2;
  FC.MaxAttempts = 1; // the injected crash has no retry to recover in
  FC.InjectCrashRun = 0;
  CampaignResult R = runCampaign(Images, Specs, FC);

  EXPECT_FALSE(R.Complete);
  EXPECT_EQ(static_cast<int>(R.Runs[0].V),
            static_cast<int>(Verdict::Incomplete));
  ASSERT_EQ(R.Runs[0].Attempts.size(), 1u);
  EXPECT_EQ(static_cast<int>(R.Runs[0].Attempts[0]),
            static_cast<int>(AttemptOutcome::Crashed));
  // The other run is unaffected: crash isolation.
  EXPECT_EQ(static_cast<int>(R.Runs[1].V),
            static_cast<int>(Verdict::Pass));
  std::string Json = campaignToJson(R);
  EXPECT_NE(Json.find("\"verdict\": \"incomplete\""), std::string::npos);
  EXPECT_NE(Json.find("\"status\": null"), std::string::npos);
  EXPECT_NE(Json.find("\"complete\": false"), std::string::npos);
}

TEST(Fleet, DeadlineIsDeterministicTimeoutDistinctFromLivelock) {
  auto Images = sharedImages();
  auto Specs = seedSweep(1, /*Delays=*/0);
  Specs[0].DeadlineCycles = 64; // far too few cycles to finish
  FleetConfig FC;
  FC.Workers = 1;
  CampaignResult R = runCampaign(Images, Specs, FC);

  ASSERT_TRUE(R.Complete);
  EXPECT_EQ(static_cast<int>(R.Runs[0].V),
            static_cast<int>(Verdict::Deadline));
  EXPECT_EQ(static_cast<int>(R.Runs[0].Status),
            static_cast<int>(sim::RunStatus::Deadline));
  EXPECT_EQ(R.Runs[0].Cycles, 64u);
  std::string Json = campaignToJson(R);
  EXPECT_NE(Json.find("\"verdict\": \"deadline\""), std::string::npos);
}

TEST(Fleet, RepeatCampaignsEmitByteIdenticalReports) {
  auto Images = sharedImages();
  auto Specs = seedSweep(3);
  FleetConfig FC;
  FC.Workers = 3;
  FC.MaxAttempts = 2;
  FC.CheckpointInterval = 700;
  FC.CheckpointDir = makeCheckpointDir();
  FC.InjectCrashRun = 2;

  std::string First = campaignToJson(runCampaign(Images, Specs, FC));
  std::string Second = campaignToJson(runCampaign(Images, Specs, FC));
  EXPECT_EQ(First, Second)
      << "aggregate report not deterministic across invocations";
  rmdir(FC.CheckpointDir.c_str());
}

} // namespace
