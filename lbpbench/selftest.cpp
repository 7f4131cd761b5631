//===- lbpbench/selftest.cpp - Tests of the benchmark's own code ----------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The benchmark's numbers are only comparable across commits if its
// generators are pure functions of the seed, its statistics match the
// definitions the acceptance checks use, and its fleet campaign really
// reproduces the in-process runs. Run with `python3 lbpbench/run.py
// --selftest`.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Harness.h"
#include "HostProbe.h"
#include "Stats.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include <unistd.h>

using namespace lbp;
using namespace lbpbench;

namespace {

BenchProgram syncImage(uint64_t Seed, const std::string &Name,
                       bool DetC = false) {
  SpanLog Log(false);
  BenchProgram P;
  EXPECT_TRUE(buildSync(Name, makeSyncSchedule(Seed), DetC, Log, 0, P));
  return P;
}

BenchProgram matmulImage(uint64_t Seed, workloads::MatMulVersion V) {
  SpanLog Log(false);
  BenchProgram P;
  EXPECT_TRUE(buildMatMul(
      V, std::make_shared<const MatMulInputs>(makeMatMulInputs(Seed)), Log, 0,
      P));
  return P;
}

TEST(Generators, SameSeedSameProgramAndInputs) {
  EXPECT_EQ(emitSyncAsm(makeSyncSchedule(7)),
            emitSyncAsm(makeSyncSchedule(7)));
  EXPECT_EQ(emitSyncDetC(makeSyncSchedule(7)),
            emitSyncDetC(makeSyncSchedule(7)));
  EXPECT_EQ(makeSyncSchedule(7).expected(), makeSyncSchedule(7).expected());
  MatMulInputs A = makeMatMulInputs(7), B = makeMatMulInputs(7);
  EXPECT_EQ(A.X, B.X);
  EXPECT_EQ(A.Y, B.Y);
  EXPECT_EQ(A.Z, B.Z);
}

TEST(Generators, DifferentSeedsDifferentInputs) {
  EXPECT_NE(makeMatMulInputs(1).X, makeMatMulInputs(2).X);
  EXPECT_NE(makeMatMulInputs(1).Y, makeMatMulInputs(2).Y);
  EXPECT_NE(emitSyncAsm(makeSyncSchedule(1)),
            emitSyncAsm(makeSyncSchedule(2)));
  EXPECT_NE(makeSyncSchedule(1).expected(), makeSyncSchedule(2).expected());
}

TEST(Generators, TeamSizesAreAPermutationOfTheFixedSpread) {
  std::vector<unsigned> A, B;
  for (const SyncRegion &R : makeSyncSchedule(1).Regions)
    A.push_back(R.Team);
  for (const SyncRegion &R : makeSyncSchedule(2).Regions)
    B.push_back(R.Team);
  EXPECT_NE(A, B);
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.front(), 1u);
  EXPECT_EQ(A.back(), SyncHarts);
}

TEST(Generators, MatMulCyclesDoNotDependOnTheSeed) {
  SpanLog Log(false);
  for (workloads::MatMulVersion V :
       {workloads::MatMulVersion::Tiled, workloads::MatMulVersion::Base}) {
    OpSample A = runOp(matmulImage(1, V), Log, 0);
    OpSample B = runOp(matmulImage(2, V), Log, 0);
    ASSERT_TRUE(A.Ok);
    ASSERT_TRUE(B.Ok);
    EXPECT_EQ(A.Fp.Cycles, B.Fp.Cycles);
    EXPECT_EQ(A.Fp.Retired, B.Fp.Retired);
    EXPECT_NE(A.Fp.Hash, B.Fp.Hash); // the values are in the trace
  }
}

TEST(Generators, SyncBarrierCyclesDoNotDependOnTheSeed) {
  SpanLog Log(false);
  OpSample A = runOp(syncImage(1, "a"), Log, 0);
  OpSample B = runOp(syncImage(2, "b"), Log, 0);
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.Fp.Cycles, B.Fp.Cycles);
  EXPECT_EQ(A.Fp.Retired, B.Fp.Retired);
  EXPECT_NE(A.Fp.Hash, B.Fp.Hash);
}

TEST(Generators, DetCRenderingLeavesTheSameWords) {
  SpanLog Log(false);
  EXPECT_TRUE(runOp(syncImage(3, "detc", /*DetC=*/true), Log, 0).Ok);
}

TEST(Stats, MedianAndQuartilesMatchPython) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  // Reference values from statistics.quantiles(data, n=4).
  std::array<double, 3> Q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(Q[0], 2.75);
  EXPECT_DOUBLE_EQ(Q[1], 5.5);
  EXPECT_DOUBLE_EQ(Q[2], 8.25);
  Q = quartiles({2.5, 0.5, 9, 4, 7.25});
  EXPECT_DOUBLE_EQ(Q[0], 1.5);
  EXPECT_DOUBLE_EQ(Q[1], 4.0);
  EXPECT_DOUBLE_EQ(Q[2], 8.125);
  Q = quartiles({5, 1});
  EXPECT_DOUBLE_EQ(Q[0], 0.0);
  EXPECT_DOUBLE_EQ(Q[1], 3.0);
  EXPECT_DOUBLE_EQ(Q[2], 6.0);
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  std::vector<double> V;
  for (int I = 1; I <= 19; ++I)
    V.push_back(I);
  // 19 samples: even p50 (rank 10) leaves only 9 beyond it.
  Tail T = tailPercentile(V);
  EXPECT_EQ(T.Percentile, 50.0);
  EXPECT_EQ(T.Value, 10.0);
  EXPECT_EQ(T.Samples, 19u);
  V.push_back(20);
  T = tailPercentile(V); // 20: p50 at rank 10 leaves 10 beyond
  EXPECT_EQ(T.Percentile, 50.0);
  EXPECT_EQ(T.Value, 10.0);
  for (int I = 21; I <= 200; ++I)
    V.push_back(I);
  T = tailPercentile(V); // 200: p95 at rank 190 leaves 10; p99 only 2
  EXPECT_EQ(T.Percentile, 95.0);
  EXPECT_EQ(T.Value, 190.0);
}

TEST(HostProbe, SamplesAtMostEvery250ms) {
  HostProbe P;
  EXPECT_EQ(P.latest(), 1.0);
  EXPECT_EQ(P.slowdown(), 1.0);
  P.sample();
  ASSERT_EQ(P.samples().size(), 4u);
  P.sample(); // too soon: no new passes
  EXPECT_EQ(P.samples().size(), 4u);
  usleep(260000);
  P.sample();
  ASSERT_EQ(P.samples().size(), 8u);
  std::vector<double> Second(P.samples().begin() + 4, P.samples().end());
  EXPECT_EQ(P.latest(), median(Second) / HostProbe::ReferenceSeconds);
  EXPECT_EQ(P.slowdown(),
            median(P.samples()) / HostProbe::ReferenceSeconds);
  EXPECT_GT(P.slowdown(), 0.0);
}

TEST(Fleet, MiniCampaignMatchesInProcessRuns) {
  std::string Templ = ::testing::TempDir() + "lbpbench-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  ASSERT_NE(mkdtemp(Buf.data()), nullptr);
  std::string Dir = Buf.data();

  std::vector<BenchProgram> Progs;
  Progs.push_back(syncImage(11, "sb0"));
  Progs.push_back(syncImage(12, "sb1"));
  SpanLog Log(true);
  std::vector<assembler::Program> Images;
  for (BenchProgram &P : Progs) {
    OpSample S = runOp(P, Log, 0);
    ASSERT_TRUE(S.Ok);
    P.Ref = S.Fp;
    Images.push_back(P.Image);
  }
  fleet::FleetConfig FC = fleetConfig(Dir, /*CrashRun=*/1);
  fleet::CampaignResult C = fleet::runCampaign(Images, fleetSpecs(Progs), FC);
  ASSERT_EQ(C.Runs.size(), 2u);
  for (unsigned I = 0; I != 2; ++I) {
    const fleet::RunResult &R = C.Runs[I];
    EXPECT_EQ(R.V, fleet::Verdict::Pass);
    EXPECT_EQ((Fingerprint{R.Status, R.Cycles, R.Retired, R.TraceHash}),
              Progs[I].Ref);
    EXPECT_EQ(R.ResumedFromCheckpoint, I == 1);
    EXPECT_EQ(R.Attempts.size(), I == 1 ? 2u : 1u);

    ReplayResult Rp =
        replayFleetRun(Progs[I], FC, Dir + "/replay.ckpt", I == 1, Log, 1,
                       /*Counters=*/I == 1);
    EXPECT_TRUE(Rp.Ok);
    EXPECT_EQ(Rp.Fp, Progs[I].Ref);
    EXPECT_EQ(Rp.Resumed, I == 1);
    EXPECT_GT(Rp.Saves, 0u);
  }
  EXPECT_FALSE(Log.durations("snapshot.restore").empty());
  rmdir(Dir.c_str());
}

} // namespace
