//===- sim/Config.h - LBP machine configuration ----------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and timing parameters of a simulated LBP machine. The
/// paper's three evaluation sizes are 4, 16 and 64 cores (16/64/256
/// harts); the router tree instantiates r1 per 4 cores, r2 per 4 r1 and
/// r3 per 4 r2 exactly as its Figs. 13-14. Latencies are our calibration
/// (the paper does not publish them) and are constants, except the two
/// router-tree link parameters, which stay SimConfig fields because the
/// ablation bench sweeps them.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_CONFIG_H
#define LBP_SIM_CONFIG_H

#include <cstdint>

namespace lbp {
namespace sim {

/// Harts per core is fixed by the LBP design (Fig. 11/12).
constexpr unsigned HartsPerCore = 4;

/// Per-hart reorder buffer entries (the paper keeps the out-of-order
/// window minimal; 8 entries is enough to expose distant ILP through
/// multithreading without acting like a big OoO core).
constexpr unsigned RobEntries = 8;

/// Remote-result buffer slots per hart (p_swre/p_lwre targets).
constexpr unsigned ResultSlots = 8;

/// Cycle stride of the machine-check layer's periodic sweep
/// (SimConfig::EnableCheckers; docs/ROBUSTNESS.md).
constexpr uint64_t CheckInterval = 64;

// Timing calibration, in cycles, the same for every machine. The router
// tree's hop latency and link capacity are SimConfig fields instead.

/// Functional-unit latencies (issue to result-ready).
constexpr unsigned AluLatency = 1;
constexpr unsigned MulLatency = 3;
constexpr unsigned DivLatency = 16;

/// Local scratchpad access latency (issue to result-ready).
constexpr unsigned LocalMemLatency = 2;

/// Own-core shared-bank access through the bank's local port; also the
/// each-way latency of the I/O device path.
constexpr unsigned GlobalLocalPortLatency = 3;

/// Bank service occupancy per router-side request (1 request/cycle).
constexpr unsigned BankServiceLatency = 1;

/// Direct forward link to the next core (forks, p_swcv, tokens).
constexpr unsigned ForwardLinkLatency = 1;

/// Per-core-hop latency on the backward line (joins, p_swre).
constexpr unsigned BackwardHopLatency = 1;

/// Deterministic transient-fault injection (docs/ROBUSTNESS.md). Every
/// fault is drawn from a SplitMix64 stream seeded with \c Seed, so the
/// same seed on the same configuration reproduces the same fault at the
/// same cycle — which is what makes injected failures replayable.
struct FaultPlanConfig {
  uint64_t Seed = 0;

  // How many events of each class the plan draws.
  unsigned Drops = 0;      ///< Deliveries that vanish on a link
                           ///< (token / join / start / rb-fill /
                           ///< slot-fill).
  unsigned Delays = 0;     ///< Deliveries that arrive late (only the
                           ///< classes for which lateness cannot reorder
                           ///< same-target messages; see
                           ///< docs/ROBUSTNESS.md).
  unsigned BitFlips = 0;   ///< Single-bit payload corruptions on a link.
  unsigned StuckBanks = 0; ///< Global-bank ports that stop serving for a
                           ///< window of cycles.

  /// Trigger cycles are drawn uniformly from [WindowBegin, WindowEnd).
  uint64_t WindowBegin = 1;
  uint64_t WindowEnd = 100000;

  /// Delay faults add 1..MaxDelay cycles to the arrival.
  unsigned MaxDelay = 64;

  /// Length of a stuck-bank window in cycles.
  uint64_t StuckDuration = 64;

  bool enabled() const {
    return Drops + Delays + BitFlips + StuckBanks != 0;
  }
};

struct SimConfig {
  /// Number of cores on the line; must be a power of 4 between 1 and 64
  /// for a full router tree (other values are allowed, the tree is then
  /// partially populated).
  unsigned NumCores = 4;

  /// log2 of the per-core shared global bank size in bytes.
  unsigned GlobalBankSizeLog2 = 16; // 64 KiB

  /// Per-hop link traversal latency in the router tree, in cycles (the
  /// ablation bench sweeps this).
  unsigned RouterHopLatency = 1;

  /// Transactions each router-tree link moves per cycle per direction.
  /// The calibration that reproduces the paper's Fig. 21 ratios is 2
  /// (request + response channels per link pair); the ablation bench
  /// sweeps this.
  unsigned RouterLinkCapacity = 2;

  /// Abort threshold: cycles without any commit, delivery or hart start
  /// before the machine reports a livelock.
  uint64_t ProgressGuard = 1000000;

  /// Fast simulation path (docs/PERFORMANCE.md): the loop still steps
  /// through every cycle, but per-core sleep/wake scheduling runs the
  /// pipeline stages only on awake cores and skips the sleeping ones,
  /// and the text segment is pre-decoded. The event stream is
  /// bit-identical with the flag on or off — same traceHash(), cycles(),
  /// RunStatus and counters, stall tallies included — which the
  /// differential tests enforce; the reference path survives as the
  /// oracle. This flag alone selects the cycle loop.
  bool FastPath = true;

  /// Classify why each core issued nothing in a cycle (adds a scan per
  /// visited core-cycle; a sleeping core's cycles are credited in bulk
  /// to the cause of its last visit; off by default).
  bool CollectStallStats = false;

  /// Deterministic performance counters (docs/OBSERVABILITY.md):
  /// attaches the obs::PerfCounters sink to the trace and arms the
  /// ROB/result-slot high-water hooks. Bit-identical across engines,
  /// and provably hash-neutral (sinks run after hashing). Off by default; the disabled guard is one inlined
  /// branch per hook site, so disabled runs pay nothing.
  bool CollectCounters = false;

  /// Record every shared-global bank access (hart, address, width,
  /// read/write, barrier epoch) in Machine::memLog(). Off by default:
  /// the log grows with every access and exists for the static
  /// analyzer's dynamic race oracle (docs/ANALYSIS.md), not for normal
  /// simulation.
  bool CollectMemLog = false;

  /// Machine-check invariant checkers (docs/ROBUSTNESS.md): checks on
  /// every delivery plus a sweep every CheckInterval cycles. They are
  /// read-only observers of the machine state: a fault-free run produces
  /// the same trace hash with them on or off.
  bool EnableCheckers = true;

  /// Deliberate divergence seed for tests and CI (docs/OBSERVABILITY.md
  /// "Divergence triage"): when nonzero, the first event at or after
  /// this cycle is preceded by a synthetic EventKind::Perturb event
  /// whose payload encodes the engine — so two runs that differ only in
  /// the engine choice produce hash chains that diverge at exactly this
  /// cycle. Never set outside
  /// divergence-triage testing: it deliberately breaks the
  /// engine-bit-identity guarantee.
  uint64_t PerturbForTest = 0;

  /// Transient-fault injection plan; inactive by default.
  FaultPlanConfig Faults;

  unsigned numHarts() const { return NumCores * HartsPerCore; }
  uint32_t globalBankSize() const { return 1u << GlobalBankSizeLog2; }

  /// The paper's machine sizes.
  static SimConfig lbp(unsigned NumCores) {
    SimConfig C;
    C.NumCores = NumCores;
    return C;
  }
};

/// Stable display name of the cycle loop \p Cfg selects: "fastpath", or
/// "reference" for the oracle loop (SimConfig::FastPath off).
inline const char *engineName(const SimConfig &Cfg) {
  return Cfg.FastPath ? "fastpath" : "reference";
}

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_CONFIG_H
