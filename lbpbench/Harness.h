//===- lbpbench/Harness.h - Timed calls into the simulator ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's one way of running a program: construct a Machine,
/// load the image, fill the inputs, run, verify, each step inside a
/// span. Also the fleet-ckpt campaign settings and the in-process
/// replay of one campaign run, which does what a fleet worker does
/// (chunked run, snapshot save, checkpoint write, and for the crashed
/// run a restore and resume) where its steps can be timed.
///
/// Nothing here sets SimConfig::HostThreads, OversubscribeHost or
/// EpochOverride, or reads Machine::engineStats(): the benchmark runs
/// the serial engines only.
///
//===----------------------------------------------------------------------===//

#ifndef LBPBENCH_HARNESS_H
#define LBPBENCH_HARNESS_H

#include "Gen.h"
#include "Spans.h"

#include "asm/Program.h"
#include "fleet/Fleet.h"
#include "sim/Machine.h"
#include "workloads/MatMul.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lbpbench {

/// What must repeat exactly for the same program on every engine.
struct Fingerprint {
  lbp::sim::RunStatus Status = lbp::sim::RunStatus::MaxCycles;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t Hash = 0;

  bool operator==(const Fingerprint &O) const {
    return Status == O.Status && Cycles == O.Cycles &&
           Retired == O.Retired && Hash == O.Hash;
  }
};

Fingerprint fingerprintOf(const lbp::sim::Machine &M);

/// One assembled program with everything needed to run and check it.
struct BenchProgram {
  std::string Name;
  lbp::assembler::Program Image;
  lbp::sim::SimConfig Cfg;
  /// Matmul: the seeded X/Y written after load, and the Z to expect.
  std::shared_ptr<const MatMulInputs> Inputs;
  lbp::workloads::MatMulSpec Spec{};
  /// Sync-barrier: every (address, value) the run must leave.
  std::vector<std::pair<uint32_t, uint32_t>> Expected;
  /// The first in-process run's fingerprint; every later run of the
  /// program must reproduce it.
  Fingerprint Ref;
};

/// The matmul program of version \p V over the inputs \p In: dsl
/// codegen and assembly, each in a span. False, with a message on
/// stderr, when it does not build.
bool buildMatMul(lbp::workloads::MatMulVersion V,
                 std::shared_ptr<const MatMulInputs> In, SpanLog &Log,
                 int64_t Op, BenchProgram &P);

/// The sync-barrier program of schedule \p S, emitted with romp, or
/// through the Det-C translator when \p DetC; then assembled. Each step
/// is in a span. False, with a message on stderr, when it does not
/// build.
bool buildSync(const std::string &Name, const SyncSchedule &S, bool DetC,
               SpanLog &Log, int64_t Op, BenchProgram &P);

/// Deterministic counts of simulated work (counter-enabled runs).
struct SimCounts {
  uint64_t Events = 0, Commits = 0, Forks = 0, TokenPasses = 0, Joins = 0,
           BankAccesses = 0, LocalAccesses = 0, RemoteAccesses = 0,
           ContentionCycles = 0;

  void add(const SimCounts &O);
};

/// One verified simulation: the host time of its run call and of the
/// whole op (the per-step times are in the span log).
struct OpSample {
  double Run = 0, Total = 0;
  Fingerprint Fp;
  bool Ok = false; ///< Exited, and every output word right.
  bool Counted = false;
  SimCounts Counts; ///< Filled when the op ran with counters on.
};

/// Runs \p P once: construct + load, fill, run, verify. With
/// \p Counters the run collects obs::PerfCounters and counts trace
/// events (the traced variant; its run span is "sim.run+counters").
OpSample runOp(const BenchProgram &P, SpanLog &Log, int64_t Op,
               bool FastPath = true, bool Counters = false);

/// fleet-ckpt campaign policy: 2 workers, a checkpoint every 100,000
/// cycles into \p CheckpointDir, and run \p CrashRun aborting once
/// after its first checkpoint.
///
/// A sync-barrier run takes 176,572 cycles, so each run writes exactly
/// one checkpoint. The fleet rewrites a run's checkpoint by renaming a
/// new file over the old one, and on ext4 that rename forces the data
/// to disk: at 20,000 cycles a campaign wrote about 1 GB to the disk
/// and its timings swung by a third between runs.
constexpr unsigned FleetWorkers = 2;
constexpr uint64_t CheckpointInterval = 100000;
lbp::fleet::FleetConfig fleetConfig(const std::string &CheckpointDir,
                                    int CrashRun);
std::vector<lbp::fleet::RunSpec>
fleetSpecs(const std::vector<BenchProgram> &Images);

struct ReplayResult {
  Fingerprint Fp;
  unsigned Saves = 0;
  size_t BlobBytes = 0;
  bool Resumed = false;
  bool Ok = false; ///< Every step succeeded and outputs are right.
  double Seconds = 0; ///< Host time of the whole replay.
  SimCounts Counts;
};

/// Replays one campaign run in-process the way a fleet worker runs it,
/// with checkpoints written to \p CheckpointPath; \p Crash makes it
/// drop the machine after the first checkpoint and resume from the
/// file, like the retry of the injected crash.
ReplayResult replayFleetRun(const BenchProgram &P,
                            const lbp::fleet::FleetConfig &FC,
                            const std::string &CheckpointPath, bool Crash,
                            SpanLog &Log, int64_t Op, bool Counters);

} // namespace lbpbench

#endif // LBPBENCH_HARNESS_H
