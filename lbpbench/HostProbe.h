//===- lbpbench/HostProbe.h - The host's memory-system speed --------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed probe of the host's speed, sampled between the timed ops so
/// the host-time metrics can be given at a reference host speed: each
/// in-process round's rate is multiplied by, and each set-up time
/// divided by, the slowdown the probe measured next to it. Fleet
/// campaigns run in worker processes the probe does not see, so their
/// rates stay as measured.
///
/// On a shared 4-vCPU VM the simulator's host speed drifts by up to 40%
/// in phases of ten seconds to minutes. Steal and system time stay near
/// zero and pinning to one vCPU does not help: other tenants load the
/// shared L3 and memory. Medians inside a 30 s run cannot remove a phase
/// that lasts the whole run. The probe is a loop of independent random
/// loads from an 8 MiB table (four times a core's L2), timed after one
/// untimed pass, so it measures the L3 the simulator shares. Over ten
/// seeds of 55 s runs it cut the spread (IQR over median) of
/// matmul-dense's mips from 17% to 6%. Pairing each round with the
/// sample next to it did better than scaling a whole run by its median
/// slowdown: over five seeds in a noisy period, 12% against 21% on
/// matmul-dense and 19% against 25% on sync-barrier.
///
/// The probe is the benchmark's own code, so a change to the simulator
/// cannot move it: dividing by its slowdown removes the host's drift
/// and keeps every change to the simulator.
///
//===----------------------------------------------------------------------===//

#ifndef LBPBENCH_HOSTPROBE_H
#define LBPBENCH_HOSTPROBE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lbpbench {

class HostProbe {
public:
  /// The table's size; peak_rss_mb leaves it out.
  static constexpr size_t TableBytes = size_t(8) << 20;
  /// Loads per timed pass, about 1 ms on the reference host.
  static constexpr uint64_t PassLoads = 400000;
  /// The median pass time on the reference host (4-vCPU Xeon VM, 2 MiB
  /// L2 per core) in a quiet period. It only scales the reported values;
  /// it has no effect on their spread.
  static constexpr double ReferenceSeconds = 1.1e-3;

  /// Maps and fills the table. The mapping is not inherited by forked
  /// children, so fleet workers neither copy nor count it.
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe &) = delete;
  HostProbe &operator=(const HostProbe &) = delete;

  /// Unless the last sample is less than 250 ms old: one untimed pass,
  /// so that what ran before (a simulation evicts the table from the TLB
  /// and L2) does not matter, then PassesPerSample timed passes.
  void sample();

  /// The last sample's median pass time over ReferenceSeconds: 1.3 when
  /// the host ran 30% slower than the reference. 1 before any sample.
  double latest() const;

  /// The same over every pass of the run.
  double slowdown() const;

  /// Every timed pass, in seconds.
  const std::vector<double> &samples() const { return Samples; }

private:
  static constexpr unsigned PassesPerSample = 4;

  double pass();

  uint32_t *Table = nullptr;
  uint64_t State = 7;
  std::vector<double> Samples;
  std::chrono::steady_clock::time_point Last;
};

} // namespace lbpbench

#endif // LBPBENCH_HOSTPROBE_H
