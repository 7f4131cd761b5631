//===- sim/Trace.cpp - Cycle-deterministic event stream ---------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Trace.h"

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

void Trace::firePerturb() {
  uint64_t At = PerturbAt;
  PerturbAt = UINT64_MAX;
  PerturbFiredFlag = true;
  // Folded as if the stream really contained it, sinks included.
  event(At, EventKind::Perturb, 0, PerturbPayload);
}

void Trace::notify(uint64_t Cycle, EventKind Kind, uint64_t A, uint64_t B) {
  // Sinks observe the exact hashed sequence and never feed back into it.
  for (TraceSink *S : Sinks)
    S->onEvent(Cycle, Kind, A, B);
}
