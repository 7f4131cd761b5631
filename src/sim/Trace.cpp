//===- sim/Trace.cpp - Cycle-deterministic event stream ---------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Trace.h"
#include "sim/Config.h"

#include <cstddef>

using namespace lbp;
using namespace lbp::sim;

const char *lbp::sim::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Commit:
    return "commit";
  case EventKind::BankRead:
    return "bank-read";
  case EventKind::BankWrite:
    return "bank-write";
  case EventKind::HartStart:
    return "hart-start";
  case EventKind::HartEnd:
    return "hart-end";
  case EventKind::HartReserve:
    return "hart-reserve";
  case EventKind::TokenPass:
    return "token-pass";
  case EventKind::Join:
    return "join";
  case EventKind::IoRead:
    return "io-read";
  case EventKind::IoWrite:
    return "io-write";
  case EventKind::Exit:
    return "exit";
  case EventKind::FaultInject:
    return "fault-inject";
  case EventKind::MachineCheck:
    return "machine-check";
  case EventKind::Perturb:
    return "perturb";
  }
  return "?";
}

void Trace::configureDigests(uint64_t IntervalCycles) {
  Interval = IntervalCycles;
  RingCap = Interval != 0 ? DigestRingCap : 0;
  Ring.clear();
  Ring.reserve(RingCap);
  DigestTotal = 0;
  NextBoundary = Interval != 0 ? Interval : UINT64_MAX;
  updateWatermark();
}

void Trace::setPerturb(uint64_t Cycle, uint64_t Payload) {
  PerturbAt = Cycle;
  PerturbPayload = Payload;
  updateWatermark();
}

void Trace::recordDigest(uint64_t Boundary) {
  uint64_t H = Hash.value();
  if (RingCap != 0) {
    if (Ring.size() < RingCap)
      Ring.push_back({Boundary, H});
    else
      Ring[DigestTotal % RingCap] = {Boundary, H};
  }
  ++DigestTotal;
  for (TraceSink *S : Sinks)
    S->onDigest(Boundary, H);
}

void Trace::crossWatermark(uint64_t Cycle) {
  if (Cycle >= PerturbAt) {
    uint64_t At = PerturbAt;
    PerturbAt = UINT64_MAX;
    PerturbFiredFlag = true;
    updateWatermark();
    // Recurse so boundaries <= At are recorded before the synthetic
    // event is folded — exactly as if the stream really contained it.
    event(At, EventKind::Perturb, 0, PerturbPayload);
  }
  while (Cycle >= NextBoundary) {
    recordDigest(NextBoundary);
    NextBoundary += Interval;
  }
  updateWatermark();
}

void Trace::flushDigests(uint64_t FinalCycle) {
  while (NextBoundary <= FinalCycle) {
    recordDigest(NextBoundary);
    NextBoundary += Interval;
  }
  updateWatermark();
}

std::vector<TraceDigest> Trace::digestEntries() const {
  std::vector<TraceDigest> Out;
  Out.reserve(Ring.size());
  // Before wraparound the ring is in order; after, the oldest retained
  // entry sits at the next overwrite position. With digests off the
  // ring is empty and has no capacity to take a residue by.
  size_t Start =
      Ring.size() < RingCap || RingCap == 0 ? 0 : DigestTotal % RingCap;
  for (size_t I = 0; I != Ring.size(); ++I)
    Out.push_back(Ring[(Start + I) % Ring.size()]);
  return Out;
}

void Trace::restoreDigestState(uint64_t SavedNextBoundary, uint64_t Total,
                               const std::vector<TraceDigest> &Entries,
                               bool SavedPerturbFired) {
  NextBoundary = SavedNextBoundary;
  DigestTotal = Total;
  Ring.clear();
  Ring.reserve(RingCap);
  // Replace the ring with the saved tail, laid out so the next
  // overwrite position (DigestTotal % RingCap) stays consistent.
  if (RingCap != 0 && !Entries.empty()) {
    size_t N = Entries.size() < RingCap ? Entries.size() : RingCap;
    if (DigestTotal <= RingCap) {
      for (size_t I = 0; I != N; ++I)
        Ring.push_back(Entries[Entries.size() - N + I]);
    } else {
      Ring.resize(RingCap);
      size_t Start = DigestTotal % RingCap;
      for (size_t I = 0; I != N; ++I)
        Ring[(Start + I) % RingCap] = Entries[Entries.size() - N + I];
    }
  }
  PerturbFiredFlag = SavedPerturbFired;
  if (SavedPerturbFired)
    PerturbAt = UINT64_MAX;
  updateWatermark();
}

void Trace::notify(uint64_t Cycle, EventKind Kind, uint64_t A, uint64_t B) {
  // Sinks observe the exact hashed sequence and never feed back into it.
  for (TraceSink *S : Sinks)
    S->onEvent(Cycle, Kind, A, B);
}
