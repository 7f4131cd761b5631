//===- tests/triage_test.cpp - Divergence triage invariants ------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Interval trace digests and the bisecting divergence triager
// (docs/OBSERVABILITY.md "Interval digests", "Divergence triage"): the
// digest sink must be hash-neutral and boundary-exact, a run in chunks
// and a restored run must continue the straight run's digests, the
// perturb state must survive snapshot round trips, and on a seeded
// divergence the triager must isolate the exact first divergent event
// with a byte-identical report.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Triage.h"
#include "sim/Machine.h"
#include "workloads/Phases.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

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

using Digests = std::vector<obs::DigestSink::Digest>;

void expectSameDigests(const Digests &Want, const Digests &Got) {
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    EXPECT_EQ(Want[I].Boundary, Got[I].Boundary) << "digest " << I;
    EXPECT_EQ(Want[I].Hash, Got[I].Hash) << "digest " << I;
  }
}

} // namespace

TEST(Triage, DigestsAreHashNeutralAndBoundaryExact) {
  std::string Src = phasesSrc();
  SimConfig Cfg = SimConfig::lbp(4);

  Machine A(Cfg);
  ASSERT_EQ(runOn(A, Src), RunStatus::Exited);

  Machine B(Cfg);
  obs::DigestSink Sink(B, 512);
  ASSERT_EQ(runOn(B, Src), RunStatus::Exited);
  Sink.finish(B.cycles());

  // Hash-neutral: the sink only reads the hash accumulator.
  EXPECT_EQ(A.traceHash(), B.traceHash());
  EXPECT_EQ(A.cycles(), B.cycles());
  EXPECT_EQ(A.retired(), B.retired());

  // Boundary-exact: one digest per whole interval the run crossed,
  // each at a multiple of the stride, strictly increasing.
  const Digests &D = Sink.digests();
  EXPECT_EQ(D.size(), B.cycles() / 512);
  for (size_t I = 0; I != D.size(); ++I)
    EXPECT_EQ(D[I].Boundary, 512 * (I + 1));

  // Each digest is the hash before the first event at or past its
  // boundary: a run cut just before a boundary ends on that value.
  ASSERT_GE(D.size(), 3u);
  Machine C(Cfg);
  ASSERT_EQ(runOn(C, Src, 3 * 512 - 1), RunStatus::MaxCycles);
  EXPECT_EQ(C.traceHash(), D[2].Hash);

  // finish() records a boundary that no event reached: stop a run on a
  // cycle in which nothing happens, with that cycle as the interval.
  struct CycleLog : TraceSink {
    std::vector<uint64_t> Cycles; // nondecreasing, like the stream
    void onEvent(uint64_t Cycle, EventKind, uint64_t, uint64_t) override {
      Cycles.push_back(Cycle);
    }
  } Log;
  Machine Logged(Cfg);
  Logged.addTraceSink(&Log);
  ASSERT_EQ(runOn(Logged, Src), RunStatus::Exited);
  uint64_t Quiet = 1;
  while (std::binary_search(Log.Cycles.begin(), Log.Cycles.end(), Quiet))
    ++Quiet;
  ASSERT_LT(Quiet, Logged.cycles());

  Machine Cut(Cfg), Whole(Cfg);
  obs::DigestSink CutSink(Cut, Quiet), WholeSink(Whole, Quiet);
  ASSERT_EQ(runOn(Cut, Src, Quiet), RunStatus::MaxCycles);
  CutSink.finish(Cut.cycles());
  ASSERT_EQ(runOn(Whole, Src), RunStatus::Exited);
  ASSERT_EQ(CutSink.digests().size(), 1u);
  EXPECT_EQ(CutSink.digests()[0].Boundary, Quiet);
  EXPECT_EQ(CutSink.digests()[0].Hash, WholeSink.digests().at(0).Hash);
}

TEST(Triage, InterruptedRunDigestsMatchStraightRun) {
  std::string Src = phasesSrc();
  SimConfig Cfg = SimConfig::lbp(4);

  Machine Straight(Cfg);
  obs::DigestSink StraightSink(Straight, 512);
  ASSERT_EQ(runOn(Straight, Src), RunStatus::Exited);
  StraightSink.finish(Straight.cycles());

  // A budget expiry mid-interval must not fabricate or skip a
  // boundary: the resumed run's digest sequence is the same bytes.
  Machine Chunked(Cfg);
  obs::DigestSink ChunkedSink(Chunked, 512);
  Chunked.load(assembleOrDie(Src));
  for (uint64_t Budget : {1300, 236, 1}) { // 1536 is a boundary
    ASSERT_EQ(Chunked.run(Budget), RunStatus::MaxCycles);
    ChunkedSink.finish(Chunked.cycles());
  }
  ASSERT_EQ(Chunked.run(2000000), RunStatus::Exited);
  ChunkedSink.finish(Chunked.cycles());

  EXPECT_EQ(Straight.traceHash(), Chunked.traceHash());
  expectSameDigests(StraightSink.digests(), ChunkedSink.digests());
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
  Cfg.PerturbForTest = 700; // fires before the snapshot point

  Machine Straight(Cfg);
  obs::DigestSink StraightSink(Straight, 16);
  ASSERT_EQ(runOn(Straight, Src), RunStatus::Exited);
  StraightSink.finish(Straight.cycles());

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
  EXPECT_TRUE(R.trace().perturbFired());

  // A second save of the restored machine is the same bytes.
  std::vector<uint8_t> Blob2;
  R.saveSnapshot(Blob2);
  EXPECT_EQ(Blob, Blob2);

  // A sink attached to the restored machine continues the straight
  // run's digests past the snapshot cycle, and the perturb event does
  // not fire a second time.
  obs::DigestSink Sink(R, 16);
  ASSERT_EQ(R.run(2000000), RunStatus::Exited);
  Sink.finish(R.cycles());
  EXPECT_EQ(R.traceHash(), Straight.traceHash());
  Digests After;
  for (const obs::DigestSink::Digest &D : StraightSink.digests())
    if (D.Boundary > 1300)
      After.push_back(D);
  ASSERT_FALSE(After.empty());
  expectSameDigests(After, Sink.digests());
}

TEST(Triage, FindsSeededFirstDivergentEvent) {
  assembler::Program Prog = assembleOrDie(phasesSrc());

  sim::SimConfig Base = SimConfig::lbp(4);
  Base.PerturbForTest = 2000;

  obs::TriageRunSpec A{"reference", Base}, B{"fast", Base};
  A.Cfg.FastPath = false;
  B.Cfg.FastPath = true;
  obs::TriageOptions Opts;
  Opts.DigestInterval = 512;

  obs::TriageResult R = obs::triageDivergence(Prog, A, B, Opts);
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
  obs::TriageResult R2 = obs::triageDivergence(Prog, A, B, Opts);
  EXPECT_EQ(obs::triageReportToJson(R, "phases"),
            obs::triageReportToJson(R2, "phases"));
}

TEST(Triage, ReportBytesArePinned) {
  // The lbp-triage-report-v1 document of CI's seeded pair (lbp_triage
  // --workload phases --perturb 2000 --digest-interval 512 --side-a
  // reference --side-b fast) keeps the bytes recorded in the data file:
  // CI diffs reports and the benches embed them, so a change to how the
  // digests are gathered must not move one byte.
  std::ifstream In(LBP_SOURCE_DIR "/tests/data/triage_report_phases.json");
  ASSERT_TRUE(In.good());
  std::stringstream Want;
  Want << In.rdbuf();

  assembler::Program Prog = assembleOrDie(phasesSrc());
  sim::SimConfig Base = SimConfig::lbp(4);
  Base.PerturbForTest = 2000;
  obs::TriageRunSpec A{"reference", Base}, B{"fast", Base};
  A.Cfg.FastPath = false;
  obs::TriageOptions Opts;
  Opts.DigestInterval = 512;
  EXPECT_EQ(obs::triageReportToJson(obs::triageDivergence(Prog, A, B, Opts),
                                    "phases") +
                "\n",
            Want.str());
}

TEST(Triage, FaultPlanDivergenceIsTriaged) {
  // Same engine on both sides, different fault plans: triage pins the
  // divergence on the fault side's first injected fault.
  assembler::Program Prog = assembleOrDie(phasesSrc());

  sim::SimConfig Base = SimConfig::lbp(4);
  obs::TriageRunSpec A{"clean", Base}, B{"delayed", Base};
  B.Cfg.Faults.Seed = 7;
  B.Cfg.Faults.Delays = 1;
  B.Cfg.Faults.WindowBegin = 100;
  B.Cfg.Faults.WindowEnd = 1500;
  obs::TriageOptions Opts;
  Opts.DigestInterval = 512;

  obs::TriageResult R = obs::triageDivergence(Prog, A, B, Opts);
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
