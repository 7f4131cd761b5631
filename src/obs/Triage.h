//===- obs/Triage.h - Divergence triage: bisect to the first bad event -----===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Localizes a determinism violation to its first observable cause
/// (docs/OBSERVABILITY.md "Divergence triage"). Given two run
/// configurations of the same program whose fingerprints diverge —
/// engine or fault plan may differ — the triager:
///
///   1. runs both sides once, capturing the full interval-digest
///      sequence through a DigestSink;
///   2. compares the digest sequences to find the last boundary at
///      which the hash chains still agree;
///   3. re-runs each side to one cycle before that boundary, attaches
///      full event capture there, and runs on for a window of at most
///      2 * TriageOptions::DigestInterval cycles;
///   4. compares the captured canonical event streams index by index
///      and reports the first divergent trace event — cycle, core,
///      hart, kind, operands — plus a K-event context window from each
///      side.
///
/// The report (triageReportToJson) is canonical: the same two configs
/// on the same program produce a byte-identical document, which is what
/// lets CI diff reports across runs. bench_simspeed and lbp_fleet embed
/// it in their own JSON payloads when a divergence gate trips.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_OBS_TRIAGE_H
#define LBP_OBS_TRIAGE_H

#include "sim/Config.h"
#include "sim/Machine.h"
#include "sim/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lbp {
namespace assembler {
class Program;
}

namespace obs {

/// Interval digests of a run (docs/OBSERVABILITY.md "Interval
/// digests"): at every multiple of the interval, the running trace hash
/// after every event before that cycle and before any event at or past
/// it. Like every sink it only reads, so it is hash-neutral; it keeps
/// every boundary.
class DigestSink : public sim::TraceSink {
public:
  struct Digest {
    uint64_t Boundary = 0;
    uint64_t Hash = 0;
  };

  /// Attaches to \p M and records the multiples of \p Interval past the
  /// machine's current cycle, so a sink attached after a snapshot
  /// restore continues the run's sequence. \p Interval == 0 records
  /// nothing.
  DigestSink(sim::Machine &M, uint64_t Interval);
  DigestSink(const DigestSink &) = delete;
  DigestSink &operator=(const DigestSink &) = delete;

  void onEvent(uint64_t Cycle, sim::EventKind Kind, uint64_t A,
               uint64_t B) override;

  /// Records every boundary <= \p Cycle not recorded yet; call it with
  /// cycles() after each run(). Every event the machine folds later is
  /// past \p Cycle, so these are the values a longer run records when
  /// its next event arrives, and a run in chunks records the same
  /// sequence as a straight one.
  void finish(uint64_t Cycle);

  uint64_t interval() const { return Interval; }
  const std::vector<Digest> &digests() const { return All; }

private:
  void record(uint64_t Cycle, uint64_t Hash);

  const sim::Trace &Tr;
  uint64_t Interval;
  uint64_t Next;   ///< Smallest boundary not recorded yet.
  uint64_t Before; ///< The hash before the event being delivered.
  std::vector<Digest> All;
};

/// One side of a divergence: a label plus the full machine config.
/// The host-side engine choice (FastPath) is the usual suspect;
/// behavior knobs (fault plan, PerturbForTest) are allowed to differ
/// too — triage then explains what the difference did.
struct TriageRunSpec {
  std::string Name; ///< e.g. "reference", "fast".
  sim::SimConfig Cfg;
};

struct TriageOptions {
  /// Digest stride in cycles, >= 1: the bisection's resolution and half
  /// the replay window.
  uint64_t DigestInterval = 4096;

  /// Events of leading and trailing context captured around the first
  /// divergent event, per side.
  unsigned ContextEvents = 8;

  /// Cycle budget for the phase-1 full runs.
  uint64_t MaxCycles = 20000000;
};

/// One canonical trace event as captured during replay.
struct TriageEvent {
  uint64_t Cycle = 0;
  sim::EventKind Kind = sim::EventKind::Commit;
  uint64_t A = 0;
  uint64_t B = 0;

  bool operator==(const TriageEvent &O) const {
    return Cycle == O.Cycle && Kind == O.Kind && A == O.A && B == O.B;
  }
};

/// Hart an event is attributed to, from the operand conventions in
/// sim/Trace.h; -1 when the kind carries no hart (bank/io traffic).
int triageEventHart(const TriageEvent &E);

/// Core an event is attributed to: the hart's core, the owning bank's
/// core for bank traffic (derived with \p BankSizeLog2), -1 otherwise.
int triageEventCore(const TriageEvent &E, unsigned BankSizeLog2);

/// Phase-1 outcome of one side.
struct TriageSideResult {
  std::string Name;
  std::string EngineName;
  sim::RunStatus Status = sim::RunStatus::MaxCycles;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t TraceHash = 0;
  uint64_t DigestCount = 0;

  /// Replay capture: events from the replayed window, and the slice
  /// around the first divergent index kept for the report.
  std::vector<TriageEvent> Context;
  /// Index (into the replayed stream) of the first context event.
  uint64_t ContextBase = 0;
};

struct TriageResult {
  /// False only when a side stopped before the replay anchor; see
  /// Error. A clean "no divergence" outcome still has Ran == true.
  bool Ran = false;
  std::string Error;

  /// Final fingerprints (hash, cycles, status) differ between sides.
  bool Diverged = false;

  /// The replay isolated a first divergent event (FirstIndex valid).
  bool Found = false;

  uint64_t DigestInterval = 0;

  /// Bank geometry used for core attribution of bank events in the
  /// report (side 0's GlobalBankSizeLog2; the same on both sides of a
  /// comparable pair).
  unsigned BankSizeLog2 = 16;

  /// Last digest boundary at which both hash chains agreed; 0 when the
  /// sides disagree from the very first interval.
  uint64_t LastAgreeBoundary = 0;
  uint64_t LastAgreeHash = 0;

  /// Replay anchoring: each side ran to SnapshotCycle (the report's
  /// "snapshot_cycle"; no checkpoint is taken) and was then captured for
  /// WindowCycles (2 * DigestInterval).
  uint64_t SnapshotCycle = 0;
  uint64_t WindowCycles = 0;

  /// Index into the replayed event streams of the first divergence.
  uint64_t FirstIndex = 0;

  TriageSideResult Side[2];
};

/// Runs the whole pipeline. \p Prog must already be assembled; both
/// sides load it unmodified and digest at Opts.DigestInterval.
TriageResult triageDivergence(const assembler::Program &Prog,
                              const TriageRunSpec &A,
                              const TriageRunSpec &B,
                              const TriageOptions &Opts = TriageOptions());

/// Canonical lbp-triage-report-v1 JSON document; byte-identical for
/// identical inputs. \p Workload is an arbitrary label echoed into the
/// report.
std::string triageReportToJson(const TriageResult &R,
                               const std::string &Workload);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_TRIAGE_H
