//===- obs/PerfCounters.h - Deterministic performance counters --------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter pillar of the observability layer (docs/OBSERVABILITY.md).
/// Almost every counter here is derived from the canonical trace-event
/// stream through the sim::TraceSink interface: the reference loop and
/// the fast path both hand the sink the exact event sequence the trace
/// hash sees, so the values are bit-identical across engines *by
/// construction*. The ROB and result-slot high-water marks are not
/// events; the Machine raises them directly from decode and slot fill,
/// which run at the same cycles on both engines.
///
/// Nothing in this header feeds back into the event hash: sinks run
/// after hashing, so enabling counters provably leaves every trace hash
/// unchanged (asserted by tests/obs_test.cpp).
///
/// This header is intentionally self-contained (no .cpp in lbp_sim):
/// sim/Machine.h owns a PerfCounters through a unique_ptr, while the
/// report / export code that needs the full Machine lives in lbp_obs,
/// which links lbp_sim — the dependency stays acyclic.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_OBS_PERFCOUNTERS_H
#define LBP_OBS_PERFCOUNTERS_H

#include "isa/AddressMap.h"
#include "sim/Config.h"
#include "sim/Trace.h"

#include <cstdint>
#include <vector>

namespace lbp {
namespace sim {
struct SnapshotAccess; // checkpoint serializer (sim/Snapshot.cpp)
} // namespace sim
namespace obs {

/// Log-scaled latency histogram: bucket B counts samples whose latency
/// lies in [2^B, 2^(B+1)) cycles (bucket 0 also takes latency 0).
struct LatencyHistogram {
  static constexpr unsigned NumBuckets = 16;
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;

  void add(uint64_t Lat) {
    unsigned B = 0;
    for (uint64_t V = Lat; V > 1 && B + 1 < NumBuckets; V >>= 1)
      ++B;
    ++Buckets[B];
    ++Count;
    Sum += Lat;
    if (Lat > Max)
      Max = Lat;
  }
  double mean() const {
    return Count == 0 ? 0.0
                      : static_cast<double>(Sum) / static_cast<double>(Count);
  }
};

/// The deterministic counter set. Disabled instances (the default) cost
/// one inlined boolean test at each hook site and are never registered
/// as a trace sink, so a run with SimConfig::CollectCounters off pays
/// nothing on the event path.
class PerfCounters : public sim::TraceSink {
public:
  // -- Commits ---------------------------------------------------------
  std::vector<uint64_t> CommitsPerCore;
  std::vector<uint64_t> CommitsPerHart;

  // -- Memory traffic --------------------------------------------------
  // Global banks are attributed individually (the event carries the
  // address); local-bank events carry a per-core-relative address, so
  // local traffic aggregates.
  std::vector<uint64_t> BankReads;  ///< Per global bank.
  std::vector<uint64_t> BankWrites; ///< Per global bank.
  uint64_t LocalReads = 0;
  uint64_t LocalWrites = 0;
  uint64_t IoReads = 0;
  uint64_t IoWrites = 0;

  // -- X_PAR protocol --------------------------------------------------
  uint64_t Forks = 0; ///< HartReserve events (p_fc / p_fn allocations).
  uint64_t HartStarts = 0;
  uint64_t HartEnds = 0;
  uint64_t TokenPasses = 0;
  uint64_t Joins = 0;
  /// Token injection (Machine::schedule) to TokenPass arrival. Dropped
  /// tokens never complete a measurement; fault delays are included.
  LatencyHistogram TokenLatency;

  // -- Robustness ------------------------------------------------------
  uint64_t FaultsInjected = 0;
  uint64_t MachineChecks = 0;

  // -- High-water marks (per hart; the Machine raises them directly) --
  std::vector<uint32_t> RobHigh;  ///< Peak ROB occupancy.
  std::vector<uint32_t> SlotHigh; ///< Peak result-slot occupancy
                                  ///< (full slots + backlog).

  bool enabled() const { return En; }

  void init(const sim::SimConfig &Cfg) {
    En = true;
    unsigned Harts = Cfg.numHarts();
    CommitsPerCore.assign(Cfg.NumCores, 0);
    CommitsPerHart.assign(Harts, 0);
    BankReads.assign(Cfg.NumCores, 0);
    BankWrites.assign(Cfg.NumCores, 0);
    RobHigh.assign(Harts, 0);
    SlotHigh.assign(Harts, 0);
    TokenSendCycle.assign(Harts, UINT64_MAX);
    BankShift = Cfg.GlobalBankSizeLog2;
  }

  /// Machine::schedule() records the injection cycle of a token so the
  /// TokenPass arrival event can close the latency measurement.
  void noteTokenSend(unsigned TargetHart, uint64_t Cycle) {
    TokenSendCycle[TargetHart] = Cycle;
  }

  uint32_t robHighWater(unsigned HartId) const { return RobHigh[HartId]; }
  void raiseRobHighWater(unsigned HartId, uint32_t Depth) {
    if (Depth > RobHigh[HartId])
      RobHigh[HartId] = Depth;
  }
  uint32_t slotHighWater(unsigned HartId) const { return SlotHigh[HartId]; }
  void raiseSlotHighWater(unsigned HartId, uint32_t Depth) {
    if (Depth > SlotHigh[HartId])
      SlotHigh[HartId] = Depth;
  }

  void onEvent(uint64_t Cycle, sim::EventKind Kind, uint64_t A,
               uint64_t B) override;

private:
  friend struct sim::SnapshotAccess;
  bool En = false;
  unsigned BankShift = 16;
  /// Per target hart: cycle of the last token injection, UINT64_MAX
  /// when no measurement is open.
  std::vector<uint64_t> TokenSendCycle;
};

inline void PerfCounters::onEvent(uint64_t Cycle, sim::EventKind Kind,
                                  uint64_t A, uint64_t B) {
  using sim::EventKind;
  switch (Kind) {
  case EventKind::Commit:
    ++CommitsPerHart[A];
    ++CommitsPerCore[A / sim::HartsPerCore];
    return;
  case EventKind::BankRead:
  case EventKind::BankWrite: {
    bool W = Kind == EventKind::BankWrite;
    uint32_t Addr = static_cast<uint32_t>(A);
    if (isa::isGlobalAddr(Addr)) {
      unsigned Bank = (Addr - isa::GlobalBase) >> BankShift;
      ++(W ? BankWrites : BankReads)[Bank];
    } else {
      ++(W ? LocalWrites : LocalReads);
    }
    return;
  }
  case EventKind::HartStart:
    ++HartStarts;
    return;
  case EventKind::HartEnd:
    ++HartEnds;
    return;
  case EventKind::HartReserve:
    ++Forks;
    return;
  case EventKind::TokenPass: {
    ++TokenPasses;
    uint64_t &Sent = TokenSendCycle[B];
    if (Sent != UINT64_MAX && Cycle >= Sent)
      TokenLatency.add(Cycle - Sent);
    Sent = UINT64_MAX;
    return;
  }
  case EventKind::Join:
    ++Joins;
    return;
  case EventKind::IoRead:
    ++IoReads;
    return;
  case EventKind::IoWrite:
    ++IoWrites;
    return;
  case EventKind::Exit:
    return;
  case EventKind::FaultInject:
    ++FaultsInjected;
    return;
  case EventKind::MachineCheck:
    ++MachineChecks;
    return;
  case EventKind::Perturb:
    return; // Test-only divergence seed; nothing to count.
  }
}

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_PERFCOUNTERS_H
