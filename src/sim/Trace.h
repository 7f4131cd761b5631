//===- sim/Trace.h - Cycle-deterministic event stream ----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every observable machine event is folded into an order-sensitive hash;
/// two runs of the same program on the same configuration are
/// cycle-deterministic exactly when their hashes match (the paper's
/// headline property). Sinks see the same events, for timelines,
/// counters and the "at cycle C, core X, hart H ..." statements of the
/// paper's Section 1 (obs::JsonlSink).
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_TRACE_H
#define LBP_SIM_TRACE_H

#include "support/EventHash.h"

#include <cstdint>
#include <vector>

namespace lbp {
namespace sim {

/// Everything the trace distinguishes.
enum class EventKind : uint8_t {
  Commit,       ///< Instruction retired: (hart, pc).
  BankRead,     ///< Data-bank read served: (addr, value).
  BankWrite,    ///< Data-bank write served: (addr, storedValue).
  HartStart,    ///< Hart began fetching: (hart, pc).
  HartEnd,      ///< Hart was freed: (hart).
  HartReserve,  ///< Hart allocated by p_fc/p_fn: (hart, byHart).
  TokenPass,    ///< Ending-hart signal moved: (fromHart, toHart).
  Join,         ///< Join message delivered: (toHart, resumePc).
  IoRead,       ///< Device register read: (addr, value).
  IoWrite,      ///< Device register write: (addr, value).
  Exit,         ///< Process exited: (hart).
  FaultInject,  ///< Planned fault fired: (kind, target). Only emitted
                ///< on perturbed runs, so fault-free hashes are
                ///< unchanged.
  MachineCheck, ///< Invariant checker tripped: (kind, hart).
  Perturb,      ///< SimConfig::PerturbForTest fired: (hart = 0,
                ///< engine payload). Only emitted when the test knob is
                ///< armed, so normal hashes are unchanged.
};

/// Observer of the canonical event stream (docs/OBSERVABILITY.md).
/// Sinks see exactly the sequence the hash sees — both engines funnel
/// their events through Trace::event() in the same order — and they
/// run *after* hashing, so a sink can never perturb
/// the fingerprint. Implementations: obs::PerfCounters, the Perfetto /
/// JSONL timeline exporters, obs::PhaseProfiler, obs::DigestSink.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void onEvent(uint64_t Cycle, EventKind Kind, uint64_t A,
                       uint64_t B) = 0;
};

/// Event sink: always hashes, fans out to registered TraceSinks, and
/// injects the PerturbForTest event when it is armed.
class Trace {
  EventHash Hash;
  std::vector<TraceSink *> Sinks;

  // PerturbForTest (setPerturb). UINT64_MAX when unarmed or fired, so
  // the hot path pays one compare per event for it.
  uint64_t PerturbAt = UINT64_MAX;
  uint64_t PerturbPayload = 0;
  bool PerturbFiredFlag = false;

  /// True when a sink is registered: the only case in which event()
  /// leaves its inline hash path.
  bool Observed = false;

  /// Cold path of event(): folds the pending perturb event ahead of the
  /// first event at or after its cycle.
  void firePerturb();

  /// Sink fan-out for one already-hashed event.
  void notify(uint64_t Cycle, EventKind Kind, uint64_t A, uint64_t B);

public:
  /// Registers \p S as an observer of every subsequent event. The sink
  /// must outlive the Trace; ownership stays with the caller.
  void addSink(TraceSink *S) {
    Sinks.push_back(S);
    Observed = true;
  }

  /// Arms the PerturbForTest divergence seed: the first event at cycle
  /// >= \p Cycle is preceded by a synthetic Perturb event
  /// (cycle = \p Cycle, A = 0, B = \p Payload). Fires at most once per
  /// run chain (see perturbFired()); arming with UINT64_MAX disarms.
  void setPerturb(uint64_t Cycle, uint64_t Payload) {
    PerturbAt = Cycle;
    PerturbPayload = Payload;
  }

  /// True once the armed perturb event has been emitted. Part of the
  /// checkpointed run state: a restored run must not re-fire.
  bool perturbFired() const { return PerturbFiredFlag; }

  /// Folds one event into the hash, then hands it to the sinks. Inline:
  /// every commit, bank access and protocol message passes through
  /// here, and without sinks the whole call is one compare plus the
  /// hash fold.
  void event(uint64_t Cycle, EventKind Kind, uint64_t A, uint64_t B = 0) {
    if (Cycle >= PerturbAt)
      firePerturb();
    Hash.addEvent(Cycle, static_cast<uint64_t>(Kind), A, B);
    if (Observed)
      notify(Cycle, Kind, A, B);
  }

  /// Order-sensitive fingerprint of everything seen so far.
  uint64_t hash() const { return Hash.value(); }

  /// Checkpoint restore (sim/Snapshot.h): resets the accumulator to a
  /// captured value so the chain continues exactly where the snapshot
  /// left it, and restores whether the perturb event already fired.
  /// What sinks saw before the snapshot is not part of the checkpoint —
  /// the hash chain is the identity of the prefix.
  void restore(uint64_t SavedHash, bool SavedPerturbFired) {
    Hash.restore(SavedHash);
    PerturbFiredFlag = SavedPerturbFired;
    if (SavedPerturbFired)
      PerturbAt = UINT64_MAX;
  }
};

/// Stable lower-case name of an event kind ("commit", "bank-read", ...),
/// shared by the timeline exporters.
const char *eventKindName(EventKind K);

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_TRACE_H
