//===- sim/Memory.cpp - Banks and the hierarchical interconnect -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Memory.h"
#include "isa/AddressMap.h"
#include "support/Compiler.h"

#include <cstdio>
#include <new>

#include <sys/mman.h>

using namespace lbp;
using namespace lbp::sim;

//===----------------------------------------------------------------------===//
// MemorySystem
//===----------------------------------------------------------------------===//

/// Bytes of the bank store for \p Config: every local and global bank,
/// rounded up to a whole page. A store beyond 1 TiB is refused like any
/// other allocation that cannot be met; below it, checkpoints can number
/// its blocks with 32 bits.
static size_t storeBytesFor(const SimConfig &Config) {
  uint64_t Bytes = static_cast<uint64_t>(Config.NumCores) *
                   (isa::LocalSize + uint64_t(Config.globalBankSize()));
  if (Bytes > uint64_t(1) << 40)
    throw std::bad_alloc();
  Bytes = (Bytes + MemorySystem::PageBytes - 1) / MemorySystem::PageBytes *
          MemorySystem::PageBytes;
  return Bytes != 0 ? Bytes : MemorySystem::PageBytes;
}

/// A zero-filled anonymous mapping of \p Bytes: the host backs a page
/// only once it is written.
static uint8_t *mapZeroed(size_t Bytes) {
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  return static_cast<uint8_t *>(P);
}

MemorySystem::MemorySystem(const SimConfig &Config)
    : Store(mapZeroed(storeBytesFor(Config)), Unmap{storeBytesFor(Config)}),
      Written((storeBytesFor(Config) / PageBytes + 63) / 64, 0),
      NumCores(Config.NumCores), BankSize(Config.globalBankSize()) {}

void MemorySystem::Unmap::operator()(uint8_t *P) const { munmap(P, Bytes); }

void MemorySystem::writeCode(uint32_t Addr, uint8_t Byte) {
  if (Addr >= Code.size())
    Code.resize(Addr + 1, 0);
  Code[Addr] = Byte;
}

uint32_t MemorySystem::fetchWord(uint32_t Addr) const {
  uint32_t Word = 0;
  for (unsigned B = 0; B != 4; ++B) {
    uint32_t A = Addr + B;
    if (A < Code.size())
      Word |= static_cast<uint32_t>(Code[A]) << (8 * B);
  }
  return Word;
}

// The banks share one mapping, so an access past a bank's end would land
// silently in its neighbour where no sanitizer can see it. Every access
// is therefore range-checked here, reads and writes alike.
[[noreturn]] static void bankRangeError(const char *Kind, unsigned Bank,
                                        unsigned NumBanks, uint32_t Offset,
                                        unsigned Width, uint32_t Size) {
  std::fprintf(stderr,
               "%s bank access out of range: bank %u of %u, offset %u "
               "width %u size %u\n",
               Kind, Bank, NumBanks, Offset, Width, Size);
  std::abort();
}

size_t MemorySystem::localAt(unsigned Core, uint32_t Offset,
                             unsigned Width) const {
  if (Core >= NumCores || Offset > isa::LocalSize ||
      Width > isa::LocalSize - Offset)
    bankRangeError("local", Core, NumCores, Offset, Width, isa::LocalSize);
  return static_cast<size_t>(Core) * isa::LocalSize + Offset;
}

size_t MemorySystem::globalAt(unsigned Bank, uint32_t Offset,
                              unsigned Width) const {
  if (Bank >= NumCores || Offset > BankSize || Width > BankSize - Offset)
    bankRangeError("global", Bank, NumCores, Offset, Width, BankSize);
  return static_cast<size_t>(NumCores) * isa::LocalSize +
         static_cast<size_t>(Bank) * BankSize + Offset;
}

uint32_t MemorySystem::load(size_t At, unsigned Width) const {
  uint32_t Value = 0;
  for (unsigned B = 0; B != Width; ++B)
    Value |= static_cast<uint32_t>(Store[At + B]) << (8 * B);
  return Value;
}

void MemorySystem::store(size_t At, uint32_t Value, unsigned Width) {
  markWritten(At);
  markWritten(At + Width - 1);
  for (unsigned B = 0; B != Width; ++B)
    Store[At + B] = static_cast<uint8_t>(Value >> (8 * B));
}

uint32_t MemorySystem::readLocal(unsigned Core, uint32_t Offset,
                                 unsigned Width) const {
  return load(localAt(Core, Offset, Width), Width);
}

void MemorySystem::writeLocal(unsigned Core, uint32_t Offset, uint32_t Value,
                              unsigned Width) {
  store(localAt(Core, Offset, Width), Value, Width);
}

uint32_t MemorySystem::readGlobal(unsigned Bank, uint32_t Offset,
                                  unsigned Width) const {
  return load(globalAt(Bank, Offset, Width), Width);
}

void MemorySystem::writeGlobal(unsigned Bank, uint32_t Offset, uint32_t Value,
                               unsigned Width) {
  store(globalAt(Bank, Offset, Width), Value, Width);
}

//===----------------------------------------------------------------------===//
// Interconnect
//===----------------------------------------------------------------------===//

Interconnect::Interconnect(const SimConfig &Config)
    : NumCores(Config.NumCores), HopLatency(Config.RouterHopLatency),
      LinkCapacity(Config.RouterLinkCapacity) {
  unsigned NumR1 = (NumCores + 3) / 4;
  unsigned NumR2 = (NumR1 + 3) / 4;
  CoreUp.assign(NumCores, 0);
  CoreDown.assign(NumCores, 0);
  BankIn.assign(NumCores, 0);
  BankOut.assign(NumCores, 0);
  BankPort.assign(NumCores, 0);
  R1UpReq.assign(NumR1, 0);
  R1UpResp.assign(NumR1, 0);
  R1DownReq.assign(NumR1, 0);
  R1DownResp.assign(NumR1, 0);
  R2UpReq.assign(NumR2, 0);
  R2UpResp.assign(NumR2, 0);
  R2DownReq.assign(NumR2, 0);
  R2DownResp.assign(NumR2, 0);
  Forward.assign(NumCores, 0);
  Backward.assign(NumCores, 0);
  FwdCount.assign(NumCores, 0);
  BwdCount.assign(NumCores, 0);
  BankReqs.assign(NumCores, 0);
  BankWait.assign(NumCores, 0);
}

uint64_t Interconnect::hop(std::vector<uint64_t> &Links, unsigned Slot,
                           uint64_t At, unsigned Latency, LinkClass C) {
  // Reservations are kept in sub-cycle "slots": LinkCapacity
  // transactions share each cycle of the link.
  assert(Slot < Links.size() && "link index out of range");
  uint64_t Cap = LinkCapacity;
  uint64_t AtSlot = At * Cap;
  if (AtSlot >= Links[Slot]) {
    // Uncontended: the packet departs in its own slot, whose cycle is
    // At itself, so neither the division below nor a contention charge
    // is needed.
    Links[Slot] = AtSlot + 1;
    return At + Latency;
  }
  uint64_t DepartSlot = Links[Slot];
  Links[Slot] = DepartSlot + 1;
  uint64_t DepartCycle = DepartSlot / Cap;
  Contention += DepartCycle - At;
  ContByClass[static_cast<unsigned>(C)] += DepartCycle - At;
  return DepartCycle + Latency;
}

uint64_t Interconnect::serialHop(std::vector<uint64_t> &Links,
                                 unsigned Slot, uint64_t At,
                                 unsigned Latency, LinkClass C) {
  assert(Slot < Links.size() && "link index out of range");
  uint64_t Depart = At;
  if (Links[Slot] > Depart) {
    Contention += Links[Slot] - Depart;
    ContByClass[static_cast<unsigned>(C)] += Links[Slot] - Depart;
    Depart = Links[Slot];
  }
  Links[Slot] = Depart + 1;
  return Depart + Latency;
}

Interconnect::GlobalPath Interconnect::routeGlobal(unsigned Core,
                                                   unsigned Bank,
                                                   uint64_t Now) {
  assert(Core < NumCores && Bank < NumCores && "route out of range");

  // Own bank: dedicated local port, fixed latency, no contention with
  // router traffic (the port is private to the core and only one
  // instruction issues per core per cycle).
  if (Core == Bank) {
    uint64_t Served = Now + GlobalLocalPortLatency;
    return {Served, Served};
  }

  unsigned G1 = Core / 4, G2 = Bank / 4; // r1 groups
  unsigned Q1 = G1 / 4, Q2 = G2 / 4;     // r2 quads

  // Request path up to the bank (request channels).
  uint64_t T = hop(CoreUp, Core, Now, HopLatency, LinkClass::CoreUp);
  if (G1 != G2) {
    T = hop(R1UpReq, G1, T, HopLatency, LinkClass::R1Up);
    if (Q1 != Q2) {
      T = hop(R2UpReq, Q1, T, HopLatency, LinkClass::R2Up);
      T = hop(R2DownReq, Q2, T, HopLatency, LinkClass::R2Down);
    }
    T = hop(R1DownReq, G2, T, HopLatency, LinkClass::R1Down);
  }
  T = hop(BankIn, Bank, T, HopLatency, LinkClass::BankIn);

  // Bank service through the router-side port (one request per cycle).
  ++BankReqs[Bank];
  uint64_t Served = serialHop(BankPort, Bank, T, BankServiceLatency, LinkClass::BankPort);
  BankWait[Bank] += Served - BankServiceLatency - T;

  // Response path back to the core (result channels).
  T = hop(BankOut, Bank, Served, HopLatency, LinkClass::BankOut);
  if (G1 != G2) {
    T = hop(R1UpResp, G2, T, HopLatency, LinkClass::R1Up);
    if (Q1 != Q2) {
      T = hop(R2UpResp, Q2, T, HopLatency, LinkClass::R2Up);
      T = hop(R2DownResp, Q1, T, HopLatency, LinkClass::R2Down);
    }
    T = hop(R1DownResp, G1, T, HopLatency, LinkClass::R1Down);
  }
  T = hop(CoreDown, Core, T, HopLatency, LinkClass::CoreDown);
  return {Served, T};
}

uint64_t Interconnect::routeForward(unsigned FromCore, unsigned ToCore,
                                    uint64_t Now) {
  if (FromCore == ToCore)
    return Now + 1;
  assert(ToCore == FromCore + 1 && "forward link only reaches the next core");
  ++FwdCount[FromCore];
  return serialHop(Forward, FromCore, Now, ForwardLinkLatency, LinkClass::Forward);
}

uint64_t Interconnect::routeBackward(unsigned FromCore, unsigned ToCore,
                                     uint64_t Now) {
  assert(ToCore <= FromCore && "backward line only reaches prior cores");
  if (FromCore == ToCore)
    return Now + 1;
  uint64_t T = Now;
  for (unsigned C = FromCore; C != ToCore; --C) {
    ++BwdCount[C];
    T = serialHop(Backward, C, T, BackwardHopLatency, LinkClass::Backward);
  }
  return T;
}

Interconnect::GlobalPath Interconnect::routeIo(uint64_t Now) {
  // Device controllers sit behind a constant-latency path; their single
  // shared port serializes concurrent accesses.
  uint64_t Arrive = Now + GlobalLocalPortLatency;
  uint64_t Depart = Arrive;
  if (IoPort > Depart) {
    Contention += IoPort - Depart;
    Depart = IoPort;
  }
  IoPort = Depart + 1;
  uint64_t Served = Depart + 1;
  return {Served, Served + GlobalLocalPortLatency};
}
