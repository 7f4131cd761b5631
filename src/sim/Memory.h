//===- sim/Memory.h - Banks and the hierarchical interconnect --------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LBP memory organization of paper Figs. 13-14:
///
///  * per-core code bank (every core holds the program image; modeled as
///    one shared read-only copy since the content is identical),
///  * per-core private local bank (hart stacks + continuation frames),
///  * per-core shared global bank with a local port (own-core accesses)
///    and a router-side port reached through the r1/r2/r3 tree.
///
/// The interconnect is modeled as bandwidth-limited links: each
/// unidirectional link moves one packet per cycle. Packets reserve their
/// whole path at injection time (age-based arbitration): for each hop,
/// departure = max(arrival, link's next-free cycle), which is then
/// advanced. This preserves per-link bandwidth and FIFO order and is
/// fully deterministic; see DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_MEMORY_H
#define LBP_SIM_MEMORY_H

#include "sim/Config.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lbp {
namespace sim {

struct SnapshotAccess; // checkpoint serializer (sim/Snapshot.cpp)

/// Raw storage behind the address map.
///
/// Every local bank, then every global bank, lives back to back in one
/// zero-filled anonymous mapping (the bank store), so the host faults
/// in only the pages a run actually writes: a 64-core machine costs
/// what its program touches, not 8 MiB of zero fill. The write paths
/// keep a bitmap of written pages, which is how checkpoints find the
/// nonzero part of the store and how restore clears what a machine had
/// written before.
class MemorySystem {
  friend struct SnapshotAccess;

  /// Releases the bank store's mapping.
  struct Unmap {
    size_t Bytes;
    void operator()(uint8_t *P) const;
  };

  std::vector<uint8_t> Code;
  std::unique_ptr<uint8_t[], Unmap> Store;
  /// Bit P set: page P of the store (PageBytes each) has been written.
  std::vector<uint64_t> Written;
  unsigned NumCores;
  uint32_t BankSize;

  size_t localAt(unsigned Core, uint32_t Offset, unsigned Width) const;
  size_t globalAt(unsigned Bank, uint32_t Offset, unsigned Width) const;
  uint32_t load(size_t At, unsigned Width) const;
  void store(size_t At, uint32_t Value, unsigned Width);
  void markWritten(size_t At) {
    size_t Page = At / PageBytes;
    Written[Page / 64] |= uint64_t(1) << (Page % 64);
  }

public:
  /// Granularity of the written-page bitmap.
  static constexpr size_t PageBytes = 4096;

  explicit MemorySystem(const SimConfig &Config);

  uint32_t bankSize() const { return BankSize; }
  unsigned numBanks() const { return NumCores; }
  /// Mapped bytes of the bank store: every bank, rounded up to a whole
  /// page.
  size_t storeBytes() const { return Store.get_deleter().Bytes; }

  /// Code image accessors (word granularity; reads beyond the image
  /// return zero, which decodes as an invalid instruction).
  void writeCode(uint32_t Addr, uint8_t Byte);
  uint32_t fetchWord(uint32_t Addr) const;
  uint32_t codeSize() const { return static_cast<uint32_t>(Code.size()); }

  /// Local scratchpad of \p Core; \p Offset is relative to LocalBase.
  uint32_t readLocal(unsigned Core, uint32_t Offset, unsigned Width) const;
  void writeLocal(unsigned Core, uint32_t Offset, uint32_t Value,
                  unsigned Width);

  /// Shared global bank \p Bank; \p Offset is relative to the bank base.
  uint32_t readGlobal(unsigned Bank, uint32_t Offset, unsigned Width) const;
  void writeGlobal(unsigned Bank, uint32_t Offset, uint32_t Value,
                   unsigned Width);
};

/// Path timing through the router tree and the direct core-to-core
/// links. Owns every link's next-free reservation cycle.
class Interconnect {
public:
  explicit Interconnect(const SimConfig &Config);

  /// Outcome of routing one shared-memory request.
  struct GlobalPath {
    uint64_t BankCycle;    ///< Cycle the bank port serves the access.
    uint64_t ResponseCycle; ///< Cycle the response reaches the core.
  };

  /// Reserves the round trip for a request from \p Core to global bank
  /// \p Bank injected at \p Now. Handles the own-bank local-port case.
  GlobalPath routeGlobal(unsigned Core, unsigned Bank, uint64_t Now);

  /// Reserves the forward link from \p Core to \p Core + 1; returns the
  /// arrival cycle of a message injected at \p Now. Same-core messages
  /// simply take one cycle.
  uint64_t routeForward(unsigned FromCore, unsigned ToCore, uint64_t Now);

  /// Reserves backward-line segments from \p FromCore down to \p ToCore
  /// (ToCore <= FromCore); returns the arrival cycle.
  uint64_t routeBackward(unsigned FromCore, unsigned ToCore, uint64_t Now);

  /// Constant-latency device access (request + response), no contention
  /// beyond the device port itself.
  GlobalPath routeIo(uint64_t Now);

  /// Total queueing delay accumulated by all routed packets (cycles
  /// spent waiting for busy links); exposed for the ablation benches.
  uint64_t contentionCycles() const { return Contention; }

  /// Resource classes for the contention breakdown.
  enum class LinkClass : uint8_t {
    CoreUp,
    CoreDown,
    BankIn,
    BankOut,
    BankPort,
    R1Up,
    R1Down,
    R2Up,
    R2Down,
    Forward,
    Backward,
    NumClasses
  };

  /// Queueing delay accumulated on one resource class.
  uint64_t contentionOn(LinkClass C) const {
    return ContByClass[static_cast<unsigned>(C)];
  }

  // Per-resource traffic counters (docs/OBSERVABILITY.md). They are
  // always on because the routing work dwarfs one add.

  /// Packets injected on the forward link out of \p FromCore (cross-core
  /// forks, p_swcv, tokens; the same-core shortcut is not link traffic).
  uint64_t forwardPackets(unsigned FromCore) const {
    return FwdCount[FromCore];
  }

  /// Backward-line hops departing \p Core (a multi-hop join counts once
  /// per segment it occupies).
  uint64_t backwardPackets(unsigned Core) const { return BwdCount[Core]; }

  /// Requests served by \p Bank's router-side port (own-core accesses
  /// use the private local port and are not counted here).
  uint64_t bankPortRequests(unsigned Bank) const { return BankReqs[Bank]; }

  /// Cycles requests spent queued at \p Bank's router-side port.
  uint64_t bankPortWaitCycles(unsigned Bank) const {
    return BankWait[Bank];
  }

private:
  friend struct SnapshotAccess;
  unsigned NumCores;
  unsigned HopLatency;   // SimConfig::RouterHopLatency
  unsigned LinkCapacity; // SimConfig::RouterLinkCapacity

  // One next-free reservation per unidirectional channel. The r1/r2
  // trunks carry requests and results on separate channels (the paper's
  // r2 moves "4 incoming requests" and "4 outgoing request results" per
  // cycle), which also keeps the at-send reservation model honest:
  // within a channel every packet reserves at the same leg of its
  // journey, so reservation order tracks arrival order.
  std::vector<uint64_t> CoreUp;     // core -> its r1 (requests only)
  std::vector<uint64_t> CoreDown;   // r1 -> core (results only)
  std::vector<uint64_t> BankIn;     // r1 -> bank (requests only)
  std::vector<uint64_t> BankOut;    // bank -> r1 (results only)
  std::vector<uint64_t> BankPort;   // bank router-side service port
  std::vector<uint64_t> R1UpReq;    // r1 -> r2, request channel
  std::vector<uint64_t> R1UpResp;   // r1 -> r2, result channel
  std::vector<uint64_t> R1DownReq;  // r2 -> r1, request channel
  std::vector<uint64_t> R1DownResp; // r2 -> r1, result channel
  std::vector<uint64_t> R2UpReq;    // r2 -> r3, request channel
  std::vector<uint64_t> R2UpResp;   // r2 -> r3, result channel
  std::vector<uint64_t> R2DownReq;  // r3 -> r2, request channel
  std::vector<uint64_t> R2DownResp; // r3 -> r2, result channel
  std::vector<uint64_t> Forward;    // core c -> core c+1
  std::vector<uint64_t> Backward;   // core c -> core c-1
  uint64_t IoPort = 0;
  uint64_t Contention = 0;

  // Traffic counters behind the accessors above.
  std::vector<uint64_t> FwdCount;  // per from-core
  std::vector<uint64_t> BwdCount;  // per departing core
  std::vector<uint64_t> BankReqs;  // per bank, router-side port
  std::vector<uint64_t> BankWait;  // per bank, queued cycles

  /// One hop over the tree link at \p Slot (LinkCapacity transactions
  /// per cycle): returns the arrival cycle of a packet presented at \p At.
  uint64_t hop(std::vector<uint64_t> &Links, unsigned Slot, uint64_t At,
               unsigned Latency, LinkClass C);

  /// One hop over a strictly one-per-cycle resource (bank ports, the
  /// direct forward/backward core links).
  uint64_t serialHop(std::vector<uint64_t> &Links, unsigned Slot,
                     uint64_t At, unsigned Latency, LinkClass C);

  uint64_t ContByClass[static_cast<unsigned>(LinkClass::NumClasses)] = {};
};

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_MEMORY_H
