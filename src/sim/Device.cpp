//===- sim/Device.cpp - Memory-mapped I/O devices ----------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Device.h"

using namespace lbp;
using namespace lbp::sim;

IoDevice::~IoDevice() = default;

//===----------------------------------------------------------------------===//
// SensorDevice
//===----------------------------------------------------------------------===//

SensorDevice::SensorDevice(std::vector<uint32_t> Samples, uint64_t Seed,
                           uint64_t MinLatency, uint64_t MaxLatency)
    : Samples(std::move(Samples)), Rng(Seed), MinLatency(MinLatency),
      MaxLatency(MaxLatency) {}

uint32_t SensorDevice::read(uint32_t Offset, uint64_t Cycle) {
  if (Offset == DevStatusReg)
    return (Armed && Cycle >= ReadyCycle) ? 1 : 0;
  if (Offset == DevDataReg)
    return Current;
  return 0;
}

void SensorDevice::write(uint32_t Offset, uint32_t Value, uint64_t Cycle) {
  (void)Value;
  if (Offset != DevStatusReg)
    return;
  // Arm: pick the next sample and a fresh pseudo-random response delay.
  if (!Samples.empty()) {
    Current = Samples[NextSample];
    if (NextSample + 1 < Samples.size())
      ++NextSample;
  }
  ReadyCycle = Cycle + Rng.nextInRange(MinLatency, MaxLatency);
  Armed = true;
}

template <class Ar, class Self>
void SensorDevice::describe(Ar &A, Self &D) {
  A.u64(D.NextSample);
  A.check(D.NextSample == 0 || D.NextSample < D.Samples.size(),
          "sensor sample index out of range");
  uint64_t RngState = D.Rng.state();
  A.u64(RngState);
  if constexpr (Ar::Loading)
    D.Rng.setState(RngState);
  A.u64(D.ReadyCycle);
  A.u32(D.Current);
  A.u8(D.Armed);
}

void SensorDevice::state(ArchiveWriter &A) const { describe(A, *this); }
void SensorDevice::state(ArchiveReader &A) { describe(A, *this); }

//===----------------------------------------------------------------------===//
// ActuatorDevice
//===----------------------------------------------------------------------===//

uint32_t ActuatorDevice::read(uint32_t Offset, uint64_t Cycle) {
  (void)Cycle;
  // STATUS always reports ready; DATA reads back the last value.
  if (Offset == DevStatusReg)
    return 1;
  if (Offset == DevDataReg && !Log.empty())
    return Log.back().Value;
  return 0;
}

void ActuatorDevice::write(uint32_t Offset, uint32_t Value, uint64_t Cycle) {
  if (Offset == DevDataReg)
    Log.push_back({Cycle, Value});
}

template <class Ar, class Self>
void ActuatorDevice::describe(Ar &A, Self &D) {
  A.seq(D.Log, [](auto &A, auto &Rec) {
    A.u64(Rec.Cycle);
    A.u32(Rec.Value);
  });
}

void ActuatorDevice::state(ArchiveWriter &A) const { describe(A, *this); }
void ActuatorDevice::state(ArchiveReader &A) { describe(A, *this); }

//===----------------------------------------------------------------------===//
// TimerDevice
//===----------------------------------------------------------------------===//

uint32_t TimerDevice::read(uint32_t Offset, uint64_t Cycle) {
  if (Offset == DevStatusReg)
    return 1;
  if (Offset == DevDataReg)
    return static_cast<uint32_t>(Cycle);
  return 0;
}

void TimerDevice::write(uint32_t Offset, uint32_t Value, uint64_t Cycle) {
  (void)Offset;
  (void)Value;
  (void)Cycle;
}

//===----------------------------------------------------------------------===//
// Stream devices
//===----------------------------------------------------------------------===//

uint32_t StreamInDevice::read(uint32_t Offset, uint64_t Cycle) {
  (void)Cycle;
  if (Offset == DevStatusReg)
    return Next < Data.size() ? 1 : 0;
  if (Offset == DevDataReg && Next < Data.size())
    return Data[Next++];
  return 0;
}

void StreamInDevice::write(uint32_t Offset, uint32_t Value, uint64_t Cycle) {
  (void)Offset;
  (void)Value;
  (void)Cycle;
}

template <class Ar, class Self>
void StreamInDevice::describe(Ar &A, Self &D) {
  A.u64(D.Next);
}

void StreamInDevice::state(ArchiveWriter &A) const { describe(A, *this); }
void StreamInDevice::state(ArchiveReader &A) { describe(A, *this); }

uint32_t StreamOutDevice::read(uint32_t Offset, uint64_t Cycle) {
  (void)Cycle;
  if (Offset == DevStatusReg)
    return 1;
  return 0;
}

void StreamOutDevice::write(uint32_t Offset, uint32_t Value, uint64_t Cycle) {
  (void)Cycle;
  if (Offset == DevDataReg)
    Data.push_back(Value);
}

template <class Ar, class Self>
void StreamOutDevice::describe(Ar &A, Self &D) {
  A.seq(D.Data, AsU32);
}

void StreamOutDevice::state(ArchiveWriter &A) const { describe(A, *this); }
void StreamOutDevice::state(ArchiveReader &A) { describe(A, *this); }
