//===- lbpbench/HostProbe.cpp - The host's memory-system speed ------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "HostProbe.h"

#include "Stats.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <sys/mman.h>

using namespace lbpbench;

namespace {
volatile uint64_t Sink;
} // namespace

HostProbe::HostProbe() {
  void *P = mmap(nullptr, TableBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED) {
    std::perror("lbpbench: host probe mmap");
    std::exit(2);
  }
  madvise(P, TableBytes, MADV_DONTFORK);
  Table = static_cast<uint32_t *>(P);
  for (size_t I = 0; I != TableBytes / sizeof(uint32_t); ++I)
    Table[I] = static_cast<uint32_t>(I * 2654435761u);
}

HostProbe::~HostProbe() { munmap(Table, TableBytes); }

double HostProbe::pass() {
  const uint64_t Mask = TableBytes / sizeof(uint32_t) - 1;
  uint64_t X = State, S = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != PassLoads; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    S += Table[(X >> 33) & Mask];
  }
  State = X;
  Sink = S;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

void HostProbe::sample() {
  auto Now = std::chrono::steady_clock::now();
  if (!Samples.empty() && Now - Last < std::chrono::milliseconds(250))
    return;
  pass(); // brings the table's pages back into the TLB and caches
  for (unsigned I = 0; I != PassesPerSample; ++I)
    Samples.push_back(pass());
  Last = std::chrono::steady_clock::now();
}

double HostProbe::latest() const {
  if (Samples.empty())
    return 1.0;
  std::vector<double> Recent(Samples.end() - PassesPerSample, Samples.end());
  return median(Recent) / ReferenceSeconds;
}

double HostProbe::slowdown() const {
  return Samples.empty() ? 1.0 : median(Samples) / ReferenceSeconds;
}
