//===- tests/sim_memory_test.cpp - Banks and interconnect tests ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Unit tests of the bank storage and of the link-reservation timing
// model: latencies, per-link bandwidth, router-tree path lengths and
// determinism of the arbitration.
//
//===----------------------------------------------------------------------===//

#include "sim/Memory.h"

#include <gtest/gtest.h>

using namespace lbp;
using namespace lbp::sim;

namespace {

//===----------------------------------------------------------------------===//
// MemorySystem
//===----------------------------------------------------------------------===//

TEST(MemorySystem, ByteHalfWordAccess) {
  MemorySystem M(SimConfig::lbp(4));
  M.writeGlobal(1, 0x100, 0xDEADBEEF, 4);
  EXPECT_EQ(M.readGlobal(1, 0x100, 4), 0xDEADBEEFu);
  EXPECT_EQ(M.readGlobal(1, 0x100, 2), 0xBEEFu);
  EXPECT_EQ(M.readGlobal(1, 0x102, 2), 0xDEADu);
  EXPECT_EQ(M.readGlobal(1, 0x103, 1), 0xDEu);
  M.writeGlobal(1, 0x101, 0x42, 1);
  EXPECT_EQ(M.readGlobal(1, 0x100, 4), 0xDEAD42EFu);
}

TEST(MemorySystem, BanksAreIndependent) {
  MemorySystem M(SimConfig::lbp(4));
  M.writeGlobal(0, 0, 1, 4);
  M.writeGlobal(1, 0, 2, 4);
  M.writeLocal(0, 0, 3, 4);
  M.writeLocal(1, 0, 4, 4);
  EXPECT_EQ(M.readGlobal(0, 0, 4), 1u);
  EXPECT_EQ(M.readGlobal(1, 0, 4), 2u);
  EXPECT_EQ(M.readLocal(0, 0, 4), 3u);
  EXPECT_EQ(M.readLocal(1, 0, 4), 4u);
}

TEST(MemorySystem, CodeImageGrowsAndReadsBack) {
  MemorySystem M(SimConfig::lbp(1));
  M.writeCode(0, 0x13);
  M.writeCode(1, 0x01);
  EXPECT_EQ(M.fetchWord(0), 0x113u);
  EXPECT_EQ(M.fetchWord(100), 0u) << "reads beyond the image are zero";
}

//===----------------------------------------------------------------------===//
// Interconnect timing
//===----------------------------------------------------------------------===//

SimConfig cfg(unsigned Cores) {
  SimConfig C = SimConfig::lbp(Cores);
  return C;
}

TEST(Interconnect, OwnBankUsesTheLocalPort) {
  Interconnect N(cfg(4));
  auto P = N.routeGlobal(2, 2, 100);
  EXPECT_EQ(P.BankCycle, 100 + GlobalLocalPortLatency);
  EXPECT_EQ(P.ResponseCycle, P.BankCycle);
  EXPECT_EQ(N.contentionCycles(), 0u);
}

TEST(Interconnect, PathLengthGrowsWithTreeDistance) {
  SimConfig C = cfg(64);
  Interconnect N(C);
  // Same r1 group (core 0 -> bank 2).
  uint64_t SameGroup = N.routeGlobal(0, 2, 1000).ResponseCycle - 1000;
  // Same r2 quad, different group (core 0 -> bank 6).
  uint64_t SameQuad = N.routeGlobal(0, 6, 2000).ResponseCycle - 2000;
  // Cross r3 (core 0 -> bank 63).
  uint64_t CrossR3 = N.routeGlobal(0, 63, 3000).ResponseCycle - 3000;
  EXPECT_LT(SameGroup, SameQuad);
  EXPECT_LT(SameQuad, CrossR3);
}

TEST(Interconnect, BankPortServesOneRequestPerCycle) {
  SimConfig C = cfg(16);
  Interconnect N(C);
  // Eight different cores hit bank 9's port at the same cycle.
  uint64_t Last = 0;
  std::vector<uint64_t> ServeCycles;
  for (unsigned Core = 0; Core != 8; ++Core) {
    if (Core == 9)
      continue;
    ServeCycles.push_back(N.routeGlobal(Core, 9, 500).BankCycle);
  }
  std::sort(ServeCycles.begin(), ServeCycles.end());
  for (size_t I = 1; I != ServeCycles.size(); ++I) {
    EXPECT_GE(ServeCycles[I], ServeCycles[I - 1] + 1)
        << "bank port double-booked";
    Last = ServeCycles[I];
  }
  (void)Last;
}

TEST(Interconnect, LinkCapacityBoundsConcurrentTraffic) {
  // With capacity 1 the same-cycle requests through one down-link
  // serialize fully; with capacity 4 they pack four per cycle.
  for (unsigned Cap : {1u, 4u}) {
    SimConfig C = cfg(16);
    C.RouterLinkCapacity = Cap;
    Interconnect N(C);
    // Cores 0..3 (group 0) all target bank 8 (group 2): every request
    // crosses the r2 and descends into group 2 through one link.
    std::vector<uint64_t> Served;
    for (unsigned Core = 0; Core != 4; ++Core)
      Served.push_back(N.routeGlobal(Core, 8, 100).BankCycle);
    std::sort(Served.begin(), Served.end());
    uint64_t Spread = Served.back() - Served.front();
    if (Cap == 1)
      EXPECT_GE(Spread, 3u);
    else
      EXPECT_LE(Spread, 3u);
  }
}

TEST(Interconnect, ForwardLinkIsOnePerCycle) {
  Interconnect N(cfg(4));
  uint64_t A = N.routeForward(1, 2, 50);
  uint64_t B = N.routeForward(1, 2, 50);
  uint64_t C = N.routeForward(1, 2, 50);
  EXPECT_EQ(B, A + 1);
  EXPECT_EQ(C, B + 1);
  // Same-core "hop" does not use the link.
  EXPECT_EQ(N.routeForward(3, 3, 50), 51u);
}

TEST(Interconnect, BackwardLineAccumulatesPerHop) {
  Interconnect N(cfg(8));
  uint64_t OneHop = N.routeBackward(3, 2, 100) - 100;
  uint64_t FiveHops = N.routeBackward(7, 2, 200) - 200;
  EXPECT_EQ(OneHop, BackwardHopLatency);
  EXPECT_EQ(FiveHops, 5 * BackwardHopLatency);
}

TEST(Interconnect, IdenticalRequestSequencesTimeIdentically) {
  auto Run = [] {
    Interconnect N(cfg(16));
    std::vector<uint64_t> Times;
    for (unsigned I = 0; I != 100; ++I)
      Times.push_back(
          N.routeGlobal(I % 16, (I * 7) % 16, 10 + I / 3).ResponseCycle);
    return Times;
  };
  EXPECT_EQ(Run(), Run());
}

TEST(Interconnect, ContentionCounterTracksQueueing) {
  SimConfig C = cfg(16);
  Interconnect N(C);
  EXPECT_EQ(N.contentionCycles(), 0u);
  for (unsigned I = 0; I != 32; ++I)
    N.routeGlobal(0, 9, 1000);
  EXPECT_GT(N.contentionCycles(), 0u);
}

} // namespace
