//===- fleet/Fleet.h - Crash-isolated simulation campaigns -------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet runner (docs/ROBUSTNESS.md "Fleet failure taxonomy"): a
/// work queue of N independent simulations — seed sweeps, fault
/// campaigns, config sweeps — executed across host worker *processes*
/// and aggregated into one canonical JSON report. Robust by
/// construction:
///
///  * Crash isolation. Each run executes in a fork()ed child; the
///    parent-assembled program images are shared read-only through
///    copy-on-write. A SIGSEGV, SIGKILL or OOM kill takes down exactly
///    one attempt of one run, never the campaign.
///  * Deterministic timeout. Every run carries a cycle deadline; a run
///    that exhausts it is classified RunStatus::Deadline — a property
///    of the simulated machine, reproducible on every host, and
///    distinct from Livelock (the machine stopped making progress) and
///    from the wall-clock watchdog below.
///  * Watchdog. A wall-clock timeout (host backstop, e.g. against a
///    wedged worker) SIGKILLs the child. The *attempt* is recorded as
///    hung; the run itself is retried and, thanks to checkpointing,
///    classified by its deterministic outcome.
///  * Bounded retry. Crashed and hung attempts are retried up to
///    MaxAttempts with capped exponential backoff. A retried run
///    resumes from its last checkpoint (Machine::saveSnapshot) and
///    still produces the exact trace hash and counter snapshot of an
///    uninterrupted run.
///  * Graceful degradation. When retries are exhausted the run is
///    reported with Verdict::Incomplete — the campaign still
///    terminates, still emits the full report, and says exactly what
///    is missing. Never a hang, never a silent drop.
///
/// The aggregate report contains no wall-clock data and is ordered by
/// queue index, so two invocations of the same campaign emit
/// byte-identical JSON (given the same injection flags; see
/// FleetConfig::InjectCrashRun).
///
//===----------------------------------------------------------------------===//

#ifndef LBP_FLEET_FLEET_H
#define LBP_FLEET_FLEET_H

#include "asm/Program.h"
#include "sim/Config.h"
#include "sim/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lbp {
namespace fleet {

/// One queued simulation.
struct RunSpec {
  std::string Name;          ///< Stable identifier in the report.
  unsigned ProgramIndex = 0; ///< Into the shared images vector.
  sim::SimConfig Cfg;

  /// The run's deterministic deadline: a run still unfinished after
  /// this many simulated cycles is classified RunStatus::Deadline.
  uint64_t DeadlineCycles = 100000000;
};

/// Final classification of one run.
enum class Verdict : uint8_t {
  Pass,       ///< RunStatus::Exited.
  Fault,      ///< Machine check / invalid instruction / protocol fault.
  Livelock,   ///< The machine stopped making progress.
  Deadline,   ///< The cycle deadline expired (deterministic timeout).
  Incomplete, ///< Every attempt crashed or hung; no verdict exists.
};

const char *verdictName(Verdict V);

/// How one attempt of a run ended, in attempt order.
enum class AttemptOutcome : uint8_t {
  Completed, ///< The worker delivered a result.
  Crashed,   ///< The worker died (signal / nonzero exit / bad result).
  Hung,      ///< The wall-clock watchdog killed the worker.
};

const char *attemptOutcomeName(AttemptOutcome O);

/// Everything the report records about one run.
struct RunResult {
  std::string Name;
  Verdict V = Verdict::Incomplete;
  sim::RunStatus Status = sim::RunStatus::MaxCycles;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t TraceHash = 0;
  /// Fault message or the livelock per-hart wait report.
  std::string Message;
  std::string Engine; ///< Engine the run's config selects.
  unsigned FaultsFired = 0;
  std::vector<AttemptOutcome> Attempts;
  bool ResumedFromCheckpoint = false;
};

/// Campaign-level policy.
struct FleetConfig {
  unsigned Workers = 4;     ///< Concurrent worker processes.
  unsigned MaxAttempts = 2; ///< Attempts per run before Incomplete.

  /// Wall-clock watchdog per attempt in milliseconds; 0 disables it.
  /// A host backstop only — deterministic timeouts are cycle deadlines.
  uint64_t WallTimeoutMs = 0;

  /// Checkpoint cadence in simulated cycles (0 disables). Workers write
  /// atomically (tmp + rename) into CheckpointDir; a retry restores the
  /// newest checkpoint and resumes bit-identically.
  uint64_t CheckpointInterval = 0;
  std::string CheckpointDir = ".";

  /// Failure injection for the CI smoke campaign: the worker for run
  /// index InjectCrashRun aborts on its first attempt (after its first
  /// checkpoint when checkpointing is on); InjectHangRun sleeps forever
  /// on its first attempt until the watchdog fires. -1 disables.
  /// Retries are not injected, which keeps the campaign deterministic.
  int InjectCrashRun = -1;
  int InjectHangRun = -1;
};

struct CampaignResult {
  std::vector<RunResult> Runs; ///< In queue (spec) order.
  bool Complete = true;        ///< No Verdict::Incomplete present.
};

/// Executes \p Specs over the shared \p Images per \p FC. Blocks until
/// every run has a verdict; always returns (degraded, never hung).
CampaignResult runCampaign(const std::vector<assembler::Program> &Images,
                           const std::vector<RunSpec> &Specs,
                           const FleetConfig &FC);

/// Canonical aggregate report: fixed field order, runs in queue order,
/// no wall-clock data — byte-identical across repeat invocations of a
/// deterministic campaign.
std::string campaignToJson(const CampaignResult &R);

/// Same report with caller-supplied extra top-level members spliced in
/// before "complete". \p ExtraJson must be zero or more pre-rendered
/// `"key": value` members, each terminated by ",\n" and indented two
/// spaces — e.g. the "divergence_triage" array lbp_fleet embeds when a
/// cross-check campaign diverges. Canonical iff the extra bytes are.
std::string campaignToJson(const CampaignResult &R,
                           const std::string &ExtraJson);

} // namespace fleet
} // namespace lbp

#endif // LBP_FLEET_FLEET_H
