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
/// JSONL timeline exporters, obs::PhaseProfiler.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void onEvent(uint64_t Cycle, EventKind Kind, uint64_t A,
                       uint64_t B) = 0;

  /// Interval digest recorded (docs/OBSERVABILITY.md "Divergence
  /// triage"): \p Hash is the accumulator value after every event with
  /// cycle < \p Boundary and before any event with cycle >= \p
  /// Boundary. The bounded ring keeps only the newest entries; a sink
  /// sees every boundary, which is how the triage replayer captures the
  /// full digest sequence of a run.
  virtual void onDigest(uint64_t Boundary, uint64_t Hash) {
    (void)Boundary;
    (void)Hash;
  }
};

/// One recorded interval digest: the running hash at an interval
/// boundary (see TraceSink::onDigest for the exact cut semantics).
struct TraceDigest {
  uint64_t Boundary = 0;
  uint64_t Hash = 0;
};

/// Event sink: always hashes, fans out to registered TraceSinks,
/// optionally records interval digests of the running hash (bounded
/// ring; see configureDigests).
class Trace {
  EventHash Hash;
  std::vector<TraceSink *> Sinks;

  // Interval digests (configureDigests). NextBoundary is the smallest
  // boundary not yet recorded, UINT64_MAX when digesting is off;
  // invariant: every folded event's cycle is < NextBoundary, so the
  // accumulator value is always the correct digest for any unrecorded
  // boundary (which is what makes flushDigests() exact).
  uint64_t Interval = 0;
  unsigned RingCap = 0;
  std::vector<TraceDigest> Ring; ///< Preallocated; never grows hot.
  uint64_t DigestTotal = 0;      ///< Boundaries recorded, incl. evicted.
  uint64_t NextBoundary = UINT64_MAX;

  // PerturbForTest (setPerturb). UINT64_MAX when unarmed or fired.
  uint64_t PerturbAt = UINT64_MAX;
  uint64_t PerturbPayload = 0;
  bool PerturbFiredFlag = false;

  /// min(NextBoundary, PerturbAt): the hot path pays one compare per
  /// event for both features combined.
  uint64_t Watermark = UINT64_MAX;

  void updateWatermark() {
    Watermark = NextBoundary < PerturbAt ? NextBoundary : PerturbAt;
  }

  /// Cold path of event(): fires the pending perturb event and records
  /// every digest boundary <= \p Cycle, in order.
  void crossWatermark(uint64_t Cycle);

  void recordDigest(uint64_t Boundary);

  /// True when a sink is registered: the only case in which event()
  /// leaves its inline hash path.
  bool Observed = false;

  /// Sink fan-out for one already-hashed event.
  void notify(uint64_t Cycle, EventKind Kind, uint64_t A, uint64_t B);

public:
  /// Registers \p S as an observer of every subsequent event. The sink
  /// must outlive the Trace; ownership stays with the caller.
  void addSink(TraceSink *S) {
    Sinks.push_back(S);
    Observed = true;
  }

  /// Enables interval digests: at every multiple of \p IntervalCycles
  /// the running hash is recorded into a ring of DigestRingCap entries
  /// (and offered to sinks via onDigest). \p IntervalCycles == 0
  /// disables. Digesting only *reads* the accumulator, so it is
  /// hash-neutral by construction, like the sink fan-out.
  void configureDigests(uint64_t IntervalCycles);

  /// Arms the PerturbForTest divergence seed: the first event at cycle
  /// >= \p Cycle is preceded by a synthetic Perturb event
  /// (cycle = \p Cycle, A = 0, B = \p Payload). Fires at most once per
  /// run chain (see perturbFired()); arming with UINT64_MAX disarms.
  void setPerturb(uint64_t Cycle, uint64_t Payload);

  /// True once the armed perturb event has been emitted. Part of the
  /// checkpointed run state: a restored run must not re-fire.
  bool perturbFired() const { return PerturbFiredFlag; }

  /// Folds one event into the hash, then hands it to the sinks. Inline:
  /// every commit, bank access and protocol message passes through
  /// here, and without sinks the whole call is one compare plus the
  /// hash fold.
  void event(uint64_t Cycle, EventKind Kind, uint64_t A, uint64_t B = 0) {
    // One compare covers both cold features (digests + perturb); with
    // neither armed the watermark is UINT64_MAX and this never takes.
    if (Cycle >= Watermark)
      crossWatermark(Cycle);
    Hash.addEvent(Cycle, static_cast<uint64_t>(Kind), A, B);
    if (Observed)
      notify(Cycle, Kind, A, B);
  }

  /// Records every not-yet-recorded digest boundary <= \p FinalCycle
  /// with the current hash. Called at the end of a run: by the
  /// NextBoundary invariant every folded event's cycle is below any
  /// unrecorded boundary, so the values recorded here are exactly the
  /// ones a longer run would have recorded lazily at its next events —
  /// interrupted-and-resumed runs produce the identical digest
  /// sequence.
  void flushDigests(uint64_t FinalCycle);

  uint64_t digestInterval() const { return Interval; }
  unsigned digestRingCap() const { return RingCap; }

  /// Total digests recorded so far, including entries evicted from the
  /// bounded ring.
  uint64_t digestCount() const { return DigestTotal; }

  /// Smallest boundary not yet recorded (UINT64_MAX when digesting is
  /// off); checkpointed so a resumed run continues the same sequence.
  uint64_t digestNextBoundary() const { return NextBoundary; }

  /// The retained ring contents, oldest first (at most digestRingCap()
  /// entries — the newest ones when the ring has wrapped).
  std::vector<TraceDigest> digestEntries() const;

  /// Checkpoint restore of the digest/perturb run state
  /// (sim/Snapshot.cpp); \p Entries is a digestEntries()-shaped tail.
  void restoreDigestState(uint64_t SavedNextBoundary, uint64_t Total,
                          const std::vector<TraceDigest> &Entries,
                          bool SavedPerturbFired);

  /// Order-sensitive fingerprint of everything seen so far.
  uint64_t hash() const { return Hash.value(); }

  /// Checkpoint restore (sim/Snapshot.h): resets the accumulator to a
  /// captured value so the chain continues exactly where the snapshot
  /// left it. What sinks saw before the snapshot is not part of the
  /// checkpoint — the hash chain is the identity of the prefix.
  void restoreHash(uint64_t V) { Hash.restore(V); }
};

/// Stable lower-case name of an event kind ("commit", "bank-read", ...),
/// shared by the timeline exporters.
const char *eventKindName(EventKind K);

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_TRACE_H
