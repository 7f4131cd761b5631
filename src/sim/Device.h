//===- sim/Device.h - Memory-mapped I/O devices ------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 6 I/O model: LBP is non-interruptible, so devices
/// are memory-mapped registers that harts poll (active wait). Devices may
/// respond after *non-deterministic* (seeded) latencies — the point of the
/// sensor-fusion experiment is that the program's result stays
/// deterministic even then, because the static code order fixes the
/// evaluation order.
///
/// Register layout convention (word offsets from the device base):
///   +0  STATUS  read: 1 when a value is ready, else 0
///               write: arm / trigger the device
///   +4  DATA    read: the current value; write: output a value
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_DEVICE_H
#define LBP_SIM_DEVICE_H

#include "support/Serialize.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace lbp {
namespace sim {

/// Offsets of the two device registers.
constexpr uint32_t DevStatusReg = 0;
constexpr uint32_t DevDataReg = 4;

/// Interface of everything mapped into the I/O address range.
class IoDevice {
public:
  virtual ~IoDevice();

  /// Register read at \p Offset served at \p Cycle.
  virtual uint32_t read(uint32_t Offset, uint64_t Cycle) = 0;

  /// Register write at \p Offset served at \p Cycle.
  virtual void write(uint32_t Offset, uint32_t Value, uint64_t Cycle) = 0;

  /// Checkpoint hooks (sim/Snapshot.h): the device's mutable state
  /// (not its construction parameters — a restore targets a machine
  /// whose devices were constructed identically), one overload per
  /// archive direction. A device implements both with one description
  /// (support/Serialize.h). The defaults cover stateless devices.
  virtual void state(ArchiveWriter &A) const { (void)A; }
  virtual void state(ArchiveReader &A) { (void)A; }
};

/// An input sensor: arming it (a STATUS write) schedules the next sample
/// after a seeded pseudo-random latency in [MinLatency, MaxLatency].
/// Samples come from a caller-provided sequence (repeating its last value
/// when exhausted).
class SensorDevice : public IoDevice {
  std::vector<uint32_t> Samples;
  size_t NextSample = 0;
  SplitMix64 Rng;
  uint64_t MinLatency, MaxLatency;
  uint64_t ReadyCycle = 0;
  uint32_t Current = 0;
  bool Armed = false;

  template <class Ar, class Self> static void describe(Ar &A, Self &D);

public:
  SensorDevice(std::vector<uint32_t> Samples, uint64_t Seed,
               uint64_t MinLatency, uint64_t MaxLatency);

  uint32_t read(uint32_t Offset, uint64_t Cycle) override;
  void write(uint32_t Offset, uint32_t Value, uint64_t Cycle) override;
  void state(ArchiveWriter &A) const override;
  void state(ArchiveReader &A) override;
};

/// An output actuator: DATA writes are recorded with their service cycle.
class ActuatorDevice : public IoDevice {
public:
  struct Record {
    uint64_t Cycle;
    uint32_t Value;
  };

  uint32_t read(uint32_t Offset, uint64_t Cycle) override;
  void write(uint32_t Offset, uint32_t Value, uint64_t Cycle) override;
  void state(ArchiveWriter &A) const override;
  void state(ArchiveReader &A) override;

  const std::vector<Record> &records() const { return Log; }

private:
  std::vector<Record> Log;

  template <class Ar, class Self> static void describe(Ar &A, Self &D);
};

/// A free-running cycle counter readable as an external timer.
class TimerDevice : public IoDevice {
public:
  uint32_t read(uint32_t Offset, uint64_t Cycle) override;
  void write(uint32_t Offset, uint32_t Value, uint64_t Cycle) override;
};

/// A stream source for DMA-style input: STATUS reads 1 while data
/// remains; each DATA read pops the next element.
class StreamInDevice : public IoDevice {
  std::vector<uint32_t> Data;
  size_t Next = 0;

  template <class Ar, class Self> static void describe(Ar &A, Self &D);

public:
  explicit StreamInDevice(std::vector<uint32_t> Data)
      : Data(std::move(Data)) {}

  uint32_t read(uint32_t Offset, uint64_t Cycle) override;
  void write(uint32_t Offset, uint32_t Value, uint64_t Cycle) override;
  void state(ArchiveWriter &A) const override;
  void state(ArchiveReader &A) override;
};

/// A stream sink: DATA writes append to a buffer readable by the host.
class StreamOutDevice : public IoDevice {
  std::vector<uint32_t> Data;

  template <class Ar, class Self> static void describe(Ar &A, Self &D);

public:
  uint32_t read(uint32_t Offset, uint64_t Cycle) override;
  void write(uint32_t Offset, uint32_t Value, uint64_t Cycle) override;
  void state(ArchiveWriter &A) const override;
  void state(ArchiveReader &A) override;

  const std::vector<uint32_t> &data() const { return Data; }
};

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_DEVICE_H
