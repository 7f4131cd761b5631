//===- tests/triage_test.cpp - Divergence triage invariants ------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Interval trace digests and the bisecting divergence triager
// (docs/OBSERVABILITY.md "Divergence triage"): digesting must be
// hash-neutral and boundary-exact, the bounded ring must keep the
// newest entries across wraparound, digest/perturb state must survive
// snapshot round trips, and on a seeded divergence the triager must
// isolate the exact first divergent event with a byte-identical report.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Triage.h"
#include "sim/Machine.h"
#include "workloads/Phases.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::sim;

namespace {

std::string phasesSrc(unsigned Cores = 4) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = Cores * HartsPerCore;
  return workloads::buildPhasesProgram(Spec);
}

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

} // namespace

TEST(Triage, DigestsAreHashNeutralAndBoundaryExact) {
  std::string Src = phasesSrc();

  SimConfig Off = SimConfig::lbp(4);
  Off.DigestInterval = 0;
  Machine A(Off);
  ASSERT_EQ(runOn(A, Src), RunStatus::Exited);
  EXPECT_EQ(A.trace().digestCount(), 0u);

  SimConfig On = Off;
  On.DigestInterval = 512;
  Machine B(On);
  ASSERT_EQ(runOn(B, Src), RunStatus::Exited);

  // Hash-neutral: digesting only reads the hash accumulator.
  EXPECT_EQ(A.traceHash(), B.traceHash());
  EXPECT_EQ(A.cycles(), B.cycles());
  EXPECT_EQ(A.retired(), B.retired());

  // Boundary-exact: one digest per whole interval the run crossed,
  // each at a multiple of the stride, strictly increasing.
  EXPECT_EQ(B.trace().digestCount(), B.cycles() / 512);
  std::vector<TraceDigest> Ring = B.trace().digestEntries();
  for (size_t I = 0; I != Ring.size(); ++I)
    EXPECT_EQ(Ring[I].Boundary, 512 * (I + 1));
}

TEST(Triage, InterruptedRunDigestsMatchStraightRun) {
  std::string Src = phasesSrc();
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.DigestInterval = 512;

  Machine Straight(Cfg);
  ASSERT_EQ(runOn(Straight, Src), RunStatus::Exited);

  // A budget expiry mid-interval must not fabricate or skip a
  // boundary: the resumed run's digest sequence is the same bytes.
  Machine Chunked(Cfg);
  Chunked.load(assembleOrDie(Src));
  ASSERT_EQ(Chunked.run(1300), RunStatus::MaxCycles);
  ASSERT_EQ(Chunked.run(2000000), RunStatus::Exited);

  EXPECT_EQ(Straight.traceHash(), Chunked.traceHash());
  std::vector<TraceDigest> SR = Straight.trace().digestEntries();
  std::vector<TraceDigest> CR = Chunked.trace().digestEntries();
  ASSERT_EQ(SR.size(), CR.size());
  for (size_t I = 0; I != SR.size(); ++I) {
    EXPECT_EQ(SR[I].Boundary, CR[I].Boundary);
    EXPECT_EQ(SR[I].Hash, CR[I].Hash);
  }
}

TEST(Triage, DigestRingWrapsKeepingNewest) {
  std::string Src = phasesSrc();
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.DigestInterval = 32;
  Machine M(Cfg);
  ASSERT_EQ(runOn(M, Src), RunStatus::Exited);

  uint64_t Total = M.trace().digestCount();
  ASSERT_GT(Total, DigestRingCap) << "workload too short to wrap the ring";

  // The ring holds exactly the newest cap entries, oldest first.
  std::vector<TraceDigest> Ring = M.trace().digestEntries();
  ASSERT_EQ(Ring.size(), DigestRingCap);
  for (size_t I = 0; I != Ring.size(); ++I)
    EXPECT_EQ(Ring[I].Boundary, 32 * (Total - DigestRingCap + 1 + I));
}

TEST(Triage, PerturbSeedsReproducibleDivergence) {
  std::string Src = phasesSrc();
  SimConfig Ref = SimConfig::lbp(4);
  Ref.FastPath = false;
  Ref.PerturbForTest = 2000;
  SimConfig Fast = Ref;
  Fast.FastPath = true;

  Machine A1(Ref), A2(Ref), B(Fast);
  ASSERT_EQ(runOn(A1, Src), RunStatus::Exited);
  ASSERT_EQ(runOn(A2, Src), RunStatus::Exited);
  ASSERT_EQ(runOn(B, Src), RunStatus::Exited);

  // Deterministic per config, divergent across engine payloads.
  EXPECT_EQ(A1.traceHash(), A2.traceHash());
  EXPECT_NE(A1.traceHash(), B.traceHash());

  // And with the seed off the engines still agree.
  SimConfig RefOff = Ref, FastOff = Fast;
  RefOff.PerturbForTest = FastOff.PerturbForTest = 0;
  Machine C(RefOff), D(FastOff);
  ASSERT_EQ(runOn(C, Src), RunStatus::Exited);
  ASSERT_EQ(runOn(D, Src), RunStatus::Exited);
  EXPECT_EQ(C.traceHash(), D.traceHash());
}

TEST(Triage, SnapshotRoundTripsDigestAndPerturbState) {
  std::string Src = phasesSrc();
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.DigestInterval = 16; // 81 boundaries wrap the ring by cycle 1300
  Cfg.PerturbForTest = 700; // fires before the snapshot point

  Machine M(Cfg);
  M.load(assembleOrDie(Src));
  ASSERT_EQ(M.run(1300), RunStatus::MaxCycles);
  ASSERT_TRUE(M.trace().perturbFired());

  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);

  // The blob carries the code image: the restore target is not loaded.
  Machine R(Cfg);
  std::string Err;
  ASSERT_TRUE(R.restoreSnapshot(Blob, Err)) << Err;

  // Restored digest state is bit-equal, including the ring layout: a
  // second save of the restored machine is the same bytes.
  std::vector<uint8_t> Blob2;
  R.saveSnapshot(Blob2);
  EXPECT_EQ(Blob, Blob2);

  // And both continuations finish with identical fingerprints and
  // digest sequences — the perturb must not fire a second time.
  ASSERT_EQ(M.run(2000000), RunStatus::Exited);
  ASSERT_EQ(R.run(2000000), RunStatus::Exited);
  EXPECT_EQ(M.traceHash(), R.traceHash());
  EXPECT_EQ(M.trace().digestCount(), R.trace().digestCount());
  std::vector<TraceDigest> MR = M.trace().digestEntries();
  std::vector<TraceDigest> RR = R.trace().digestEntries();
  ASSERT_EQ(MR.size(), RR.size());
  for (size_t I = 0; I != MR.size(); ++I) {
    EXPECT_EQ(MR[I].Boundary, RR[I].Boundary);
    EXPECT_EQ(MR[I].Hash, RR[I].Hash);
  }
}

TEST(Triage, FindsSeededFirstDivergentEvent) {
  assembler::Program Prog = assembleOrDie(phasesSrc());

  sim::SimConfig Base = SimConfig::lbp(4);
  Base.DigestInterval = 512;
  Base.PerturbForTest = 2000;

  obs::TriageRunSpec A{"reference", Base}, B{"fast", Base};
  A.Cfg.FastPath = false;
  B.Cfg.FastPath = true;

  obs::TriageResult R = obs::triageDivergence(Prog, A, B);
  ASSERT_TRUE(R.Ran) << R.Error;
  EXPECT_TRUE(R.Diverged);
  ASSERT_TRUE(R.Found);

  // The replay window is bounded by the digest stride.
  EXPECT_LE(R.WindowCycles, 2 * 512u);
  EXPECT_LE(R.SnapshotCycle, 2000u);

  // Both sides' first divergent event is the seeded perturb marker:
  // same cycle and hart, engine-distinct payload.
  for (int S = 0; S != 2; ++S) {
    const obs::TriageSideResult &Side = R.Side[S];
    uint64_t Rel = R.FirstIndex - Side.ContextBase;
    ASSERT_LT(Rel, Side.Context.size());
    const obs::TriageEvent &E = Side.Context[Rel];
    EXPECT_EQ(E.Cycle, 2000u);
    EXPECT_EQ(E.Kind, EventKind::Perturb);
    EXPECT_EQ(obs::triageEventHart(E), 0);
  }
  uint64_t RelA = R.FirstIndex - R.Side[0].ContextBase;
  uint64_t RelB = R.FirstIndex - R.Side[1].ContextBase;
  EXPECT_NE(R.Side[0].Context[RelA].B, R.Side[1].Context[RelB].B);

  // The canonical report is byte-identical across independent runs.
  obs::TriageResult R2 = obs::triageDivergence(Prog, A, B);
  EXPECT_EQ(obs::triageReportToJson(R, "phases"),
            obs::triageReportToJson(R2, "phases"));
}

TEST(Triage, FaultPlanDivergenceIsTriaged) {
  // Same engine on both sides, different fault plans: triage pins the
  // divergence on the fault side's first injected fault.
  assembler::Program Prog = assembleOrDie(phasesSrc());

  sim::SimConfig Base = SimConfig::lbp(4);
  Base.DigestInterval = 512;
  obs::TriageRunSpec A{"clean", Base}, B{"delayed", Base};
  B.Cfg.Faults.Seed = 7;
  B.Cfg.Faults.Delays = 1;
  B.Cfg.Faults.WindowBegin = 100;
  B.Cfg.Faults.WindowEnd = 1500;

  obs::TriageResult R = obs::triageDivergence(Prog, A, B);
  ASSERT_TRUE(R.Ran) << R.Error;
  EXPECT_TRUE(R.Diverged);
  ASSERT_TRUE(R.Found);
  uint64_t Rel = R.FirstIndex - R.Side[1].ContextBase;
  ASSERT_LT(Rel, R.Side[1].Context.size());
  const obs::TriageEvent &E = R.Side[1].Context[Rel];
  EXPECT_EQ(E.Kind, EventKind::FaultInject);
  EXPECT_GE(E.Cycle, 100u);
  EXPECT_LT(E.Cycle, 1500u);
}

TEST(Triage, CleanPairReportsNoDivergence) {
  assembler::Program Prog = assembleOrDie(phasesSrc());

  sim::SimConfig Base = SimConfig::lbp(4);
  obs::TriageRunSpec A{"reference", Base}, B{"fast", Base};
  A.Cfg.FastPath = false;
  B.Cfg.FastPath = true;

  obs::TriageResult R = obs::triageDivergence(Prog, A, B);
  ASSERT_TRUE(R.Ran) << R.Error;
  EXPECT_FALSE(R.Diverged);
  EXPECT_EQ(R.Side[0].TraceHash, R.Side[1].TraceHash);

  std::string Json = obs::triageReportToJson(R, "phases");
  EXPECT_NE(Json.find("\"diverged\":false"), std::string::npos);
  EXPECT_EQ(Json.find("first_divergence"), std::string::npos);
}
