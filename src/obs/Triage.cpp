//===- obs/Triage.cpp - Divergence triage pipeline --------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obs/Triage.h"
#include "asm/Assembler.h"
#include "isa/AddressMap.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace lbp;
using namespace lbp::obs;
using sim::EventKind;
using sim::Machine;
using sim::SimConfig;

DigestSink::DigestSink(Machine &M, uint64_t Interval)
    : Tr(M.trace()), Interval(Interval),
      Next(Interval == 0 ? UINT64_MAX : (M.cycles() / Interval + 1) * Interval),
      Before(M.trace().hash()) {
  M.addTraceSink(this);
}

void DigestSink::record(uint64_t Cycle, uint64_t Hash) {
  for (; Next <= Cycle; Next += Interval)
    All.push_back({Next, Hash});
}

void DigestSink::onEvent(uint64_t Cycle, EventKind, uint64_t, uint64_t) {
  // The trace has folded this event already: the boundaries it crosses
  // take the hash from before it.
  record(Cycle, Before);
  Before = Tr.hash();
}

void DigestSink::finish(uint64_t Cycle) { record(Cycle, Tr.hash()); }

namespace {

/// Captures the canonical event stream of a replayed window.
struct EventCaptureSink : sim::TraceSink {
  std::vector<TriageEvent> Events;
  void onEvent(uint64_t Cycle, EventKind Kind, uint64_t A,
               uint64_t B) override {
    Events.push_back({Cycle, Kind, A, B});
  }
};

void fillSide(TriageSideResult &Out, const TriageRunSpec &Spec,
              const Machine &M, sim::RunStatus St) {
  Out.Name = Spec.Name;
  Out.EngineName = M.engineName();
  Out.Status = St;
  Out.Cycles = M.cycles();
  Out.Retired = M.retired();
  Out.TraceHash = M.traceHash();
}

} // namespace

int obs::triageEventHart(const TriageEvent &E) {
  // Operand conventions from sim/Trace.h (mirrors obs/Perfetto.cpp).
  switch (E.Kind) {
  case EventKind::Commit:
  case EventKind::HartStart:
  case EventKind::HartEnd:
  case EventKind::HartReserve:
  case EventKind::TokenPass:
  case EventKind::Join:
  case EventKind::Exit:
  case EventKind::Perturb:
    return static_cast<int>(E.A);
  case EventKind::FaultInject:
  case EventKind::MachineCheck:
    return static_cast<int>(E.B);
  case EventKind::BankRead:
  case EventKind::BankWrite:
  case EventKind::IoRead:
  case EventKind::IoWrite:
    return -1;
  }
  return -1;
}

int obs::triageEventCore(const TriageEvent &E, unsigned BankSizeLog2) {
  switch (E.Kind) {
  case EventKind::BankRead:
  case EventKind::BankWrite: {
    uint32_t Addr = static_cast<uint32_t>(E.A);
    if (isa::isGlobalAddr(Addr))
      return static_cast<int>((Addr - isa::GlobalBase) >> BankSizeLog2);
    return -1;
  }
  default: {
    int Hart = triageEventHart(E);
    return Hart < 0 ? -1 : Hart / static_cast<int>(sim::HartsPerCore);
  }
  }
}

TriageResult obs::triageDivergence(const assembler::Program &Prog,
                                   const TriageRunSpec &A,
                                   const TriageRunSpec &B,
                                   const TriageOptions &Opts) {
  TriageResult R;
  const TriageRunSpec *Sides[2] = {&A, &B};
  const uint64_t D = Opts.DigestInterval;
  R.DigestInterval = D;
  R.BankSizeLog2 = A.Cfg.GlobalBankSizeLog2;

  // -- Phase 1: full runs with complete digest capture -----------------
  std::vector<DigestSink::Digest> Digests[2];
  for (int S = 0; S != 2; ++S) {
    Machine M(Sides[S]->Cfg);
    DigestSink DS(M, D);
    M.load(Prog);
    sim::RunStatus St = M.run(Opts.MaxCycles);
    DS.finish(M.cycles());
    fillSide(R.Side[S], *Sides[S], M, St);
    R.Side[S].DigestCount = DS.digests().size();
    Digests[S] = DS.digests();
  }

  R.Diverged = R.Side[0].TraceHash != R.Side[1].TraceHash ||
               R.Side[0].Cycles != R.Side[1].Cycles ||
               R.Side[0].Status != R.Side[1].Status;
  if (!R.Diverged) {
    R.Ran = true;
    return R;
  }

  // -- Phase 2: last agreeing digest boundary --------------------------
  size_t Common = std::min(Digests[0].size(), Digests[1].size());
  size_t Agree = 0; // boundaries agreed on so far
  while (Agree != Common &&
         Digests[0][Agree].Boundary == Digests[1][Agree].Boundary &&
         Digests[0][Agree].Hash == Digests[1][Agree].Hash)
    ++Agree;
  if (Agree != 0) {
    R.LastAgreeBoundary = Digests[0][Agree - 1].Boundary;
    R.LastAgreeHash = Digests[0][Agree - 1].Hash;
  }

  // The first divergent event lies at a cycle >= LastAgreeBoundary and
  // (when the next boundary's digests disagree) < LastAgreeBoundary + D.
  // Anchor one cycle earlier so events at the boundary cycle itself
  // are still replayed, and give the window 2 * D so there is up to an
  // interval of trailing context.
  R.SnapshotCycle = R.LastAgreeBoundary == 0 ? 0 : R.LastAgreeBoundary - 1;
  R.WindowCycles = 2 * D;

  // -- Phase 3: anchored replay with event capture --------------------
  std::vector<TriageEvent> Streams[2];
  for (int S = 0; S != 2; ++S) {
    Machine M(Sides[S]->Cfg);
    M.load(Prog);
    if (R.SnapshotCycle != 0) {
      sim::RunStatus St = M.run(R.SnapshotCycle);
      if (St != sim::RunStatus::MaxCycles || M.cycles() != R.SnapshotCycle) {
        R.Error = formatString(
            "side '%s' could not reach the snapshot anchor (cycle %llu): "
            "run stopped at %llu (%s)",
            Sides[S]->Name.c_str(),
            static_cast<unsigned long long>(R.SnapshotCycle),
            static_cast<unsigned long long>(M.cycles()),
            sim::runStatusName(St));
        return R;
      }
    }
    // Attached at the anchor, the capture sink sees exactly the
    // post-anchor stream.
    EventCaptureSink Cap;
    M.addTraceSink(&Cap);
    M.run(R.WindowCycles);
    Streams[S] = std::move(Cap.Events);
  }
  R.Ran = true;

  // -- Phase 4: first divergent event + context ------------------------
  size_t N = std::min(Streams[0].size(), Streams[1].size());
  size_t I = 0;
  while (I != N && Streams[0][I] == Streams[1][I])
    ++I;
  R.FirstIndex = I;
  R.Found = I < std::max(Streams[0].size(), Streams[1].size());

  uint64_t K = Opts.ContextEvents;
  for (int S = 0; S != 2; ++S) {
    const std::vector<TriageEvent> &Ev = Streams[S];
    uint64_t Lo = I > K ? I - K : 0;
    uint64_t Hi = std::min<uint64_t>(Ev.size(), I + K + 1);
    R.Side[S].ContextBase = Lo;
    for (uint64_t J = Lo; J < Hi; ++J)
      R.Side[S].Context.push_back(Ev[J]);
  }
  return R;
}

namespace {

void appendEventJson(std::string &J, const TriageEvent &E,
                     unsigned BankSizeLog2) {
  J += formatString("{\"cycle\":%llu,\"kind\":\"%s\",\"core\":%d,"
                    "\"hart\":%d,\"a\":%llu,\"b\":%llu}",
                    static_cast<unsigned long long>(E.Cycle),
                    sim::eventKindName(E.Kind),
                    triageEventCore(E, BankSizeLog2), triageEventHart(E),
                    static_cast<unsigned long long>(E.A),
                    static_cast<unsigned long long>(E.B));
}

void appendSideJson(std::string &J, const TriageSideResult &S) {
  J += formatString(
      "{\"name\":\"%s\",\"engine\":\"%s\","
      "\"status\":\"%s\",\"cycles\":%llu,\"retired\":%llu,"
      "\"trace_hash\":\"0x%016llx\",\"digest_count\":%llu}",
      jsonEscape(S.Name).c_str(), jsonEscape(S.EngineName).c_str(),
      sim::runStatusName(S.Status),
      static_cast<unsigned long long>(S.Cycles),
      static_cast<unsigned long long>(S.Retired),
      static_cast<unsigned long long>(S.TraceHash),
      static_cast<unsigned long long>(S.DigestCount));
}

} // namespace

std::string obs::triageReportToJson(const TriageResult &R,
                                    const std::string &Workload) {
  // The report derives only from deterministic run state, so identical
  // inputs render a byte-identical document (CI diffs it across runs).
  unsigned BankLog2 = R.BankSizeLog2;
  std::string J = "{\"schema\":\"lbp-triage-report-v1\"";
  J += formatString(",\"workload\":\"%s\"", jsonEscape(Workload).c_str());
  J += formatString(",\"ran\":%s", R.Ran ? "true" : "false");
  if (!R.Error.empty())
    J += formatString(",\"error\":\"%s\"", jsonEscape(R.Error).c_str());
  J += formatString(",\"digest_interval\":%llu",
                    static_cast<unsigned long long>(R.DigestInterval));
  J += ",\"sides\":[";
  appendSideJson(J, R.Side[0]);
  J += ',';
  appendSideJson(J, R.Side[1]);
  J += ']';
  J += formatString(",\"diverged\":%s", R.Diverged ? "true" : "false");
  if (R.Diverged) {
    J += formatString(
        ",\"last_agree\":{\"boundary\":%llu,\"hash\":\"0x%016llx\"}",
        static_cast<unsigned long long>(R.LastAgreeBoundary),
        static_cast<unsigned long long>(R.LastAgreeHash));
    J += formatString(
        ",\"replay\":{\"snapshot_cycle\":%llu,\"window_cycles\":%llu}",
        static_cast<unsigned long long>(R.SnapshotCycle),
        static_cast<unsigned long long>(R.WindowCycles));
    J += formatString(",\"found\":%s", R.Found ? "true" : "false");
    J += formatString(",\"first_divergence\":{\"index\":%llu",
                      static_cast<unsigned long long>(R.FirstIndex));
    for (int S = 0; S != 2; ++S) {
      const TriageSideResult &Side = R.Side[S];
      J += formatString(",\"%s\":", S == 0 ? "a" : "b");
      uint64_t Rel = R.FirstIndex - Side.ContextBase;
      if (R.Found && Rel < Side.Context.size())
        appendEventJson(J, Side.Context[Rel], BankLog2);
      else
        J += "null"; // this side's stream ended before the divergence
    }
    J += '}';
    J += ",\"context\":{";
    for (int S = 0; S != 2; ++S) {
      const TriageSideResult &Side = R.Side[S];
      J += formatString("%s\"%s\":{\"base\":%llu,\"events\":[",
                        S == 0 ? "" : ",", S == 0 ? "a" : "b",
                        static_cast<unsigned long long>(Side.ContextBase));
      for (size_t I = 0; I != Side.Context.size(); ++I) {
        if (I)
          J += ',';
        appendEventJson(J, Side.Context[I], BankLog2);
      }
      J += "]}";
    }
    J += '}';
  }
  J += '}';
  return J;
}
