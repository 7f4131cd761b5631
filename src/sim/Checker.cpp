//===- sim/Checker.cpp - Machine-check invariant checkers -------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Checker.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"

using namespace lbp;
using namespace lbp::sim;

const char *lbp::sim::checkKindName(CheckKind K) {
  switch (K) {
  case CheckKind::LinkParity:
    return "link-parity";
  case CheckKind::TokenLost:
    return "token-lost";
  case CheckKind::TokenDuplicated:
    return "token-duplicated";
  case CheckKind::BadDeliveryTarget:
    return "bad-delivery-target";
  case CheckKind::RbFillWithoutBuffer:
    return "rb-fill-without-buffer";
  case CheckKind::MemAckUnderflow:
    return "mem-ack-underflow";
  case CheckKind::SlotBacklogOverflow:
    return "slot-backlog-overflow";
  case CheckKind::HartLeak:
    return "hart-leak";
  case CheckKind::WheelImbalance:
    return "wheel-imbalance";
  case CheckKind::SchedulePast:
    return "schedule-past";
  }
  return "?";
}

std::string MachineCheck::format() const {
  return formatString("machine check [%s] at cycle %llu (core %u, hart "
                      "%u): %s",
                      checkKindName(Kind),
                      static_cast<unsigned long long>(Cycle), Core, Hart,
                      Message.c_str());
}

static const char *deliveryKindName(Delivery::Kind K) {
  switch (K) {
  case Delivery::Kind::RbFill:
    return "rb-fill";
  case Delivery::Kind::MemAck:
    return "mem-ack";
  case Delivery::Kind::BankAccess:
    return "bank-access";
  case Delivery::Kind::IoAccess:
    return "io-access";
  case Delivery::Kind::StartHart:
    return "start-hart";
  case Delivery::Kind::Token:
    return "token";
  case Delivery::Kind::JoinMsg:
    return "join";
  case Delivery::Kind::SlotFill:
    return "slot-fill";
  }
  return "?";
}

void Checker::report(Machine &M, CheckKind Kind, unsigned HartId,
                     std::string Message) {
  MachineCheck C;
  C.Cycle = M.Cycle;
  C.Core = HartId / HartsPerCore;
  C.Hart = HartId;
  C.Kind = Kind;
  C.Message = std::move(Message);
  M.Tr.event(M.Cycle, EventKind::MachineCheck,
             static_cast<uint64_t>(Kind), HartId);
  M.fault(C.format());
  Checks.push_back(std::move(C));
}

void Checker::onScheduled(Machine &M, uint64_t At, const Delivery &D) {
  if (At <= M.Cycle) {
    report(M, CheckKind::SchedulePast, D.HartId,
           formatString("delivery scheduled for cycle %llu which is not "
                        "in the future",
                        static_cast<unsigned long long>(At)));
    return;
  }
  if (D.HartId >= M.Cfg.numHarts()) {
    report(M, CheckKind::BadDeliveryTarget, 0,
           formatString("delivery targets nonexistent hart %u",
                        static_cast<unsigned>(D.HartId)));
    return;
  }
  ++PendingDeliveries;
  if (D.K == Delivery::Kind::Token || D.K == Delivery::Kind::JoinMsg)
    ++TokensInFlight;
}

void Checker::onDelivered(Machine &M, const Delivery &D) {
  // Accounting first: even a faulting delivery left its link.
  if (PendingDeliveries == 0)
    report(M, CheckKind::WheelImbalance, D.HartId,
           "a delivery arrived that was never scheduled");
  else
    --PendingDeliveries;
  if (D.K == Delivery::Kind::Token || D.K == Delivery::Kind::JoinMsg) {
    if (TokensInFlight)
      --TokensInFlight;
  }

  // The link parity computed at injection must survive the flight.
  if (deliveryParity(D) != D.Parity) {
    report(M, CheckKind::LinkParity, D.HartId,
           formatString("payload of a %s delivery (value 0x%08x, addr "
                        "0x%08x) was corrupted in flight",
                        deliveryKindName(D.K), D.Value, D.Addr));
    return;
  }

  const Hart &H = M.hart(D.HartId);
  switch (D.K) {
  case Delivery::Kind::Token:
    if (H.State == HartState::Free)
      report(M, CheckKind::BadDeliveryTarget, D.HartId,
             "ending-signal token reached a free hart");
    else if (H.Token)
      report(M, CheckKind::TokenDuplicated, D.HartId,
             "hart received the ending-signal token twice");
    return;

  case Delivery::Kind::RbFill:
    if (!H.RbBusy)
      report(M, CheckKind::RbFillWithoutBuffer, D.HartId,
             "result arrived with no result buffer allocated");
    else if (D.CountsMem && H.OutstandingMem == 0)
      report(M, CheckKind::MemAckUnderflow, D.HartId,
             "memory result arrived with no outstanding access");
    return;

  case Delivery::Kind::MemAck:
    if (H.OutstandingMem == 0)
      report(M, CheckKind::MemAckUnderflow, D.HartId,
             "store acknowledgement arrived with no outstanding access");
    return;

  case Delivery::Kind::SlotFill:
    if (H.State == HartState::Free)
      report(M, CheckKind::BadDeliveryTarget, D.HartId,
             formatString("remote result for slot %u reached a free hart",
                          static_cast<unsigned>(D.Slot)));
    else if (H.SlotBacklog.size() > 8 * M.Cfg.numHarts())
      report(M, CheckKind::SlotBacklogOverflow, D.HartId,
             formatString("slot backlog reached %zu entries",
                          H.SlotBacklog.size()));
    return;

  default:
    // StartHart/JoinMsg state mismatches and Bank/IoAccess address
    // errors already fault with precise messages in the delivery path.
    return;
  }
}

void Checker::sweep(Machine &M) {
  ++SweepCount;

  // One pass over the harts, in hart order, gathers the inputs of both
  // per-hart invariants below.
  //
  // Allocation-leak detection: a hart must leave Reserved once its start
  // message arrives; the reserve-to-start gap is bounded by the forking
  // hart's code path, so a Reserved hart older than half the progress
  // guard means the start was lost.
  uint64_t LeakThreshold = M.Cfg.ProgressGuard / 2;
  if (LeakThreshold < CheckInterval)
    LeakThreshold = CheckInterval;
  uint64_t Held = 0;
  bool Live = TokensInFlight != 0;
  const Hart *Leaked = nullptr; // the lowest-numbered leaking hart
  unsigned LeakedId = 0, HartId = 0;
  for (const Core &C : M.Cores) {
    for (const Hart &H : C.Harts) {
      Held += H.Token;
      if (H.State != HartState::Free) {
        Live = true;
        if (!Leaked && H.State == HartState::Reserved &&
            M.Cycle - H.StateSince > LeakThreshold) {
          Leaked = &H;
          LeakedId = HartId;
        }
      }
      ++HartId;
    }
  }

  // Ending-token conservation: while the machine is live, exactly one
  // token exists — held by a hart or in flight on a link. A dropped
  // token or join message shows up here as a lost token; a protocol bug
  // that forges one shows up as a duplicate.
  if (Live) {
    uint64_t Total = Held + TokensInFlight;
    if (Total == 0) {
      report(M, CheckKind::TokenLost, 0,
             "the ending-signal token vanished (no hart holds it and "
             "none is in flight)");
      return;
    }
    if (Total > 1) {
      report(M, CheckKind::TokenDuplicated, 0,
             formatString("%llu ending-signal tokens exist (%llu held, "
                          "%llu in flight)",
                          static_cast<unsigned long long>(Total),
                          static_cast<unsigned long long>(Held),
                          static_cast<unsigned long long>(TokensInFlight)));
      return;
    }
  }

  if (Leaked) {
    report(M, CheckKind::HartLeak, LeakedId,
           formatString("hart reserved at cycle %llu never received "
                        "its start message",
                        static_cast<unsigned long long>(Leaked->StateSince)));
    return;
  }

  // Delivery-wheel audit (amortized: a full wheel recount every 64
  // sweeps): the incremental pending counter must match the wheel plus
  // the far-future overflow heap, recounted by walking the busy slots'
  // lists.
  if (SweepCount % 64 == 0) {
    uint64_t OnWheel = M.Overflow.size();
    M.forEachBusySlot([&](uint64_t Slot) {
      M.forEachInSlot(Slot, [&](const Delivery &) { ++OnWheel; });
    });
    if (OnWheel != PendingDeliveries)
      report(M, CheckKind::WheelImbalance, 0,
             formatString("delivery wheel holds %llu entries but %llu "
                          "are accounted",
                          static_cast<unsigned long long>(OnWheel),
                          static_cast<unsigned long long>(
                              PendingDeliveries)));

    // Derived-state audit: the ROB scheduling summary each hart keeps
    // incrementally (ready and result-buffer masks, consumer masks, the
    // head's done cycle) must equal a recount from its ROB. A mismatch
    // is a simulator bug rather than a fault of the simulated machine,
    // so it asserts instead of reporting a machine check.
    for (const Core &C : M.Cores)
      for (const Hart &H : C.Harts)
        assert(H.Sched == H.summarizeRob() &&
               "hart scheduling summary drifted from its ROB");
  }
}
