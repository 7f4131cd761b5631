//===- obs/Report.h - Profiling reports and counter snapshots --------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a finished Machine into observability artifacts
/// (docs/OBSERVABILITY.md):
///
///  * countersToJson() — the canonical counter snapshot. Every field in
///    it is deterministic across engines, which is exactly why the
///    snapshot exists: the differential tests compare the string
///    byte-for-byte between the reference loop and the fast path.
///    Host-only observables (engine choice, the local/remote access
///    tallies) are deliberately *not* in it.
///  * PhaseProfiler — a TraceSink that splits the run into barrier
///    phases: a Join delivered to hart 0 ends a phase (hart 0 resuming
///    is the paper's `p_syncm`-then-join barrier completion).
///  * buildReport() — the human-readable profile lbp_prof prints:
///    occupancy, stall breakdown, hottest banks and links, protocol
///    traffic, per-phase summary.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_OBS_REPORT_H
#define LBP_OBS_REPORT_H

#include "sim/Machine.h"

#include <string>
#include <vector>

namespace lbp {
namespace obs {

/// Canonical JSON snapshot of everything deterministic a run counted.
/// Field order and formatting are fixed (integers only, no floats), so
/// equal runs produce byte-equal strings.
std::string countersToJson(const sim::Machine &M);

/// Splits a run into barrier phases on the canonical event stream. A
/// phase ends when a Join reaches hart 0 (the fork/join barrier hands
/// control back to the team leader); the tail after the last join is
/// its own phase.
class PhaseProfiler : public sim::TraceSink {
public:
  struct Phase {
    uint64_t BeginCycle = 0;
    uint64_t EndCycle = 0; ///< Cycle of the closing join (or run end).
    uint64_t Commits = 0;
    uint64_t Forks = 0;
    uint64_t BankAccesses = 0;
  };

  void onEvent(uint64_t Cycle, sim::EventKind Kind, uint64_t A,
               uint64_t B) override;

  /// Closes the tail phase at \p FinalCycle and returns the list. The
  /// tail is kept only if anything happened in it.
  std::vector<Phase> phases(uint64_t FinalCycle) const;

private:
  std::vector<Phase> Done;
  Phase Cur;
};

struct ReportOptions {
  unsigned TopN = 8; ///< Rows in the "hottest" tables.
};

/// The human-readable profile. \p Prof may be null (no per-phase
/// section). Stall and occupancy sections appear when the run collected
/// them (SimConfig::CollectStallStats / CollectCounters).
std::string buildReport(const sim::Machine &M, const PhaseProfiler *Prof,
                        const ReportOptions &Opts);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_REPORT_H
