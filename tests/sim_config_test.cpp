//===- tests/sim_config_test.cpp - Configuration-space invariants ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Properties that must hold across the configuration space: observing a
// run through a trace sink never changes it, latencies move cycle counts
// in the right direction, stall collection is observation-only, and
// machine sizes leave results (not timings) invariant.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Perfetto.h"
#include "obs/Triage.h"
#include "sim/Machine.h"
#include "workloads/MatMul.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace lbp;
using namespace lbp::sim;
using namespace lbp::workloads;

namespace {

struct Outcome {
  uint64_t Cycles;
  uint64_t Retired;
  uint64_t Hash;
  uint32_t Z00;
  std::vector<obs::DigestSink::Digest> Digests;
};

/// Runs the matmul under \p Cfg, with \p Sink attached when given, and
/// collects its interval digests every 4096 cycles.
Outcome run(const MatMulSpec &Spec, SimConfig Cfg,
            TraceSink *Sink = nullptr) {
  assembler::AsmResult R = assembler::assemble(buildMatMulProgram(Spec));
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  Machine M(Cfg);
  if (Sink)
    M.addTraceSink(Sink);
  obs::DigestSink Digests(M, 4096);
  M.load(R.Prog);
  EXPECT_EQ(M.run(100000000), RunStatus::Exited) << M.faultMessage();
  Digests.finish(M.cycles());
  return {M.cycles(), M.retired(), M.traceHash(),
          M.debugReadWord(zElementAddress(Spec, 0, 0)), Digests.digests()};
}

SimConfig cfgFor(const MatMulSpec &Spec) {
  SimConfig C = SimConfig::lbp(Spec.cores());
  C.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  return C;
}

TEST(SimConfig_, ObservationKnobsDoNotPerturbTheRun) {
  // A sink writing every event and the stall tallies move neither the
  // fingerprint nor the interval digests.
  MatMulSpec Spec = MatMulSpec::paper(16, MatMulVersion::Base);
  SimConfig Plain = cfgFor(Spec);
  SimConfig Observed = Plain;
  Observed.CollectStallStats = true;
  std::ostringstream Lines;
  obs::JsonlSink Sink(Lines);
  Outcome A = run(Spec, Plain);
  Outcome B = run(Spec, Observed, &Sink);
  EXPECT_NE(Lines.str().find("\"kind\":\"commit\""), std::string::npos);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Hash, B.Hash) << "observation must not change the machine";
  ASSERT_FALSE(A.Digests.empty());
  ASSERT_EQ(A.Digests.size(), B.Digests.size());
  for (size_t I = 0; I != A.Digests.size(); ++I) {
    EXPECT_EQ(A.Digests[I].Boundary, B.Digests[I].Boundary);
    EXPECT_EQ(A.Digests[I].Hash, B.Digests[I].Hash);
  }
}

TEST(SimConfig_, SlowerMemoryMeansMoreCyclesNeverFewer) {
  MatMulSpec Spec = MatMulSpec::paper(16, MatMulVersion::Base);
  SimConfig Fast = cfgFor(Spec);
  SimConfig Slow = Fast;
  Slow.RouterHopLatency = 4;
  Outcome A = run(Spec, Fast);
  Outcome B = run(Spec, Slow);
  EXPECT_GT(B.Cycles, A.Cycles);
  EXPECT_EQ(A.Retired, B.Retired)
      << "latency changes timing, never the instruction stream";
  EXPECT_EQ(A.Z00, B.Z00) << "and never the results";
}

TEST(SimConfig_, NarrowerLinksMeanMoreCyclesNeverFewer) {
  MatMulSpec Spec = MatMulSpec::paper(64, MatMulVersion::Copy);
  SimConfig Wide = cfgFor(Spec);
  Wide.RouterLinkCapacity = 4;
  SimConfig Narrow = cfgFor(Spec);
  Narrow.RouterLinkCapacity = 1;
  Outcome A = run(Spec, Wide);
  Outcome B = run(Spec, Narrow);
  EXPECT_GE(B.Cycles, A.Cycles);
}

TEST(SimConfig_, ResultsAreMachineSizeInvariant) {
  // The same 16-hart program computes the same Z on machines with spare
  // cores (the team just does not use them).
  MatMulSpec Spec = MatMulSpec::paper(16, MatMulVersion::Base);
  for (unsigned Cores : {4u, 8u, 16u}) {
    SimConfig C = SimConfig::lbp(Cores);
    C.GlobalBankSizeLog2 = Spec.BankSizeLog2;
    Outcome O = run(Spec, C);
    EXPECT_EQ(O.Z00, 8u) << Cores << " cores";
  }
}

} // namespace
