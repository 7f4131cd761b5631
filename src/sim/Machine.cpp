//===- sim/Machine.cpp - The LBP manycore machine ----------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"
#include "isa/AddressMap.h"
#include "isa/Disasm.h"
#include "isa/Encoding.h"
#include "isa/HartRef.h"
#include "isa/Reg.h"
#include "sim/Exec.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace lbp;
using namespace lbp::sim;
using namespace lbp::isa;

//===----------------------------------------------------------------------===//
// Construction and loading
//===----------------------------------------------------------------------===//

Machine::Machine(const SimConfig &Config)
    : Cfg(Config), Mem(Config), Net(Config),
      FPlan(Config.Faults, Config.NumCores), Cores(Config.NumCores),
      WheelSlots(std::make_unique_for_overwrite<WheelSlot[]>(WheelSize)) {
  assert(Config.NumCores != 0 && "a machine has at least one core");
  StallByCore.assign(Cfg.NumCores * NumStallSlots, 0);
  LastTally.assign(Cfg.NumCores, {});
  Awake.assign((Cfg.NumCores + 63) / 64, 0);
  for (unsigned CoreId = 0; CoreId != Cfg.NumCores; ++CoreId)
    wakeCore(CoreId);
  if (Cfg.CollectCounters) {
    Obs = std::make_unique<obs::PerfCounters>();
    Obs->init(Cfg);
    Tr.addSink(Obs.get());
  }
  // Pre-size the delivery plumbing for a typical fan-in; both only ever
  // grow to the run's peak and are then reused.
  WheelPool.reserve(64);
  DueBuf.reserve(64);
}

void Machine::load(const assembler::Program &Prog) {
  for (const assembler::Segment &S : Prog.segments()) {
    for (uint32_t Off = 0; Off != S.Bytes.size(); ++Off) {
      uint32_t Addr = S.Base + Off;
      uint8_t Byte = S.Bytes[Off];
      if (isCodeAddr(Addr)) {
        Mem.writeCode(Addr, Byte);
      } else if (isGlobalAddr(Addr)) {
        uint32_t Rel = Addr - GlobalBase;
        uint32_t Bank = Rel >> Cfg.GlobalBankSizeLog2;
        if (Bank >= Cfg.NumCores) {
          fault(formatString("data segment byte at 0x%08x is beyond the "
                             "last global bank",
                             Addr));
          return;
        }
        Mem.writeGlobal(Bank, Rel & (Cfg.globalBankSize() - 1), Byte, 1);
      } else if (isLocalAddr(Addr)) {
        // Local-bank initialized data replicates into every core's
        // private scratchpad.
        uint32_t Rel = Addr - LocalBase;
        if (Rel >= LocalSize) {
          fault(formatString("local data byte at 0x%08x is out of range",
                             Addr));
          return;
        }
        for (unsigned C = 0; C != Cfg.NumCores; ++C)
          Mem.writeLocal(C, Rel, Byte, 1);
      } else {
        fault(formatString("cannot load bytes into the I/O region "
                           "(0x%08x)",
                           Addr));
        return;
      }
    }
  }

  if (Cfg.FastPath)
    predecodeText();

  // Hart 0 of core 0 boots at the entry point holding the token, with
  // ra = 0 and t0 = -1 so a bare `p_ret` in main exits (Fig. 6's
  // convention).
  Hart &H0 = Cores[0].Harts[0];
  H0.State = HartState::Running;
  H0.StateSince = Cycle;
  H0.Pc = Prog.entry();
  H0.PcValid = true;
  H0.Regs[RegSP] = hartStackTop(0);
  H0.Regs[RegT0] = HartRefExit;
  H0.Token = true;
  Tr.event(Cycle, EventKind::HartStart, 0, H0.Pc);
}

/// Decodes one text word into its micro-op, with the p_lwcv operand
/// fixup (sp-relative continuation-frame access) applied before the
/// flags are computed.
static MicroOp decodeMicroOp(uint32_t Word) {
  MicroOp U;
  U.I = decode(Word);
  if (U.I.Op == Opcode::P_LWCV)
    U.I.Rs1 = RegSP;
  U.Flags = microOpFlags(U.I);
  return U;
}

void Machine::predecodeText() {
  // Decode the text segment once: the code banks are read-only after
  // load — stores into the code region fault and debugWriteWord asserts
  // — so the per-fetch decode in stageDecode can become a table lookup
  // keyed by word address. Built from the same fetchWord the fetch
  // stage uses, so table and fallback agree bit for bit (including the
  // trailing partial word and data words in text, which decode as
  // invalid and fault exactly as on the slow path).
  uint32_t Words = (Mem.codeSize() + 3) / 4;
  DecodedText.resize(Words);
  for (uint32_t W = 0; W != Words; ++W)
    DecodedText[W] = decodeMicroOp(Mem.fetchWord(W * 4));
}

void Machine::addDevice(uint32_t Base, uint32_t Size,
                        std::unique_ptr<IoDevice> Device) {
  assert(isIoAddr(Base) && "devices live in the I/O region");
  Devices.push_back({Base, Size, std::move(Device)});
}

IoDevice *Machine::findDevice(uint32_t Addr, uint32_t &Offset) {
  for (DeviceMapping &M : Devices) {
    if (Addr >= M.Base && Addr < M.Base + M.Size) {
      Offset = Addr - M.Base;
      return M.Dev.get();
    }
  }
  return nullptr;
}

void Machine::fault(std::string Msg) {
  if (Status == RunStatus::Fault)
    return; // keep the first message
  Status = RunStatus::Fault;
  Halted = true;
  FaultMsg = std::move(Msg);
}

//===----------------------------------------------------------------------===//
// Delivery machinery
//===----------------------------------------------------------------------===//

/// Fault-plan class bit of a delivery kind (0 = not injectable).
static uint8_t faultClassOf(Delivery::Kind K) {
  switch (K) {
  case Delivery::Kind::Token:
    return FaultClassToken;
  case Delivery::Kind::JoinMsg:
    return FaultClassJoin;
  case Delivery::Kind::StartHart:
    return FaultClassStart;
  case Delivery::Kind::RbFill:
    return FaultClassRbFill;
  case Delivery::Kind::SlotFill:
    return FaultClassSlotFill;
  default:
    return 0;
  }
}

void Machine::schedule(uint64_t At, Delivery D) {
  // The parity seals the delivery as it enters the link; anything the
  // fault plan corrupts below is caught by the checker at arrival.
  D.Parity = deliveryParity(D);

  // Token-latency measurement opens here, at the send cycle. Delay
  // faults below lengthen the measured latency; drops leave the entry
  // open until the retried token closes it — deterministic either way.
  if (D.K == Delivery::Kind::Token && Obs)
    Obs->noteTokenSend(D.HartId, Cycle);

  if (FPlan.enabled()) {
    if (uint8_t Class = faultClassOf(D.K)) {
      if (FaultEvent *E = FPlan.match(Cycle, Class)) {
        Tr.event(Cycle, EventKind::FaultInject,
                 static_cast<uint64_t>(E->Kind), D.HartId);
        switch (E->Kind) {
        case FaultKind::DropDelivery:
          return; // the message vanishes on the link
        case FaultKind::DelayDelivery:
          At += E->Param;
          break;
        case FaultKind::BitFlip:
          D.Value ^= 1u << (E->Param & 31u);
          break;
        case FaultKind::StuckBank:
          break; // applied at the bank port, not here
        }
      }
    }
  }

  if (Cfg.EnableCheckers) {
    Ck.onScheduled(*this, At, D);
    if (Halted)
      return;
  } else {
    assert(At > Cycle && "deliveries must land in the future");
  }

  if (At - Cycle >= WheelSize) {
    // Far future: flat min-heap ordered by (At, Seq). The insertion
    // sequence number makes the pop order of equal-cycle entries match
    // their insertion order, which is what the old ordered-multimap
    // backing guaranteed.
    Overflow.push_back({At, OverflowSeq++, D});
    std::push_heap(Overflow.begin(), Overflow.end(), overflowLater);
    return;
  }
  wheelAppend(At % WheelSize, D);
}

void Machine::wheelAppend(uint64_t Slot, const Delivery &D) {
  uint32_t N = FreeNode;
  if (N != NoNode) {
    FreeNode = WheelPool[N].Next;
    WheelPool[N] = {D, NoNode};
  } else {
    N = static_cast<uint32_t>(WheelPool.size());
    WheelPool.push_back({D, NoNode});
  }
  WheelSlot &S = WheelSlots[Slot];
  uint64_t &Word = WheelBusy[Slot / 64];
  uint64_t Bit = uint64_t(1) << (Slot % 64);
  if (Word & Bit)
    WheelPool[S.Tail].Next = N;
  else
    S.Head = N;
  S.Tail = N;
  Word |= Bit;
}

void Machine::clearWheel() {
  WheelPool.clear();
  FreeNode = NoNode;
  WheelBusy.fill(0);
}

void Machine::collectDue() {
  // The due slot's deliveries are copied, in arrival order, into a
  // reused staging buffer, and its whole list joins the free list in one
  // splice. Due far-future deliveries append behind them, preserving the
  // wheel-before-overflow arrival order of the reference loop.
  DueBuf.clear();
  uint64_t Slot = Cycle % WheelSize;
  uint64_t &Word = WheelBusy[Slot / 64];
  uint64_t Bit = uint64_t(1) << (Slot % 64);
  if (Word & Bit) {
    Word &= ~Bit;
    const WheelSlot &S = WheelSlots[Slot];
    for (uint32_t N = S.Head; N != NoNode; N = WheelPool[N].Next)
      DueBuf.push_back(WheelPool[N].D);
    WheelPool[S.Tail].Next = FreeNode;
    FreeNode = S.Head;
  }
  while (!Overflow.empty() && Overflow.front().At == Cycle) {
    DueBuf.push_back(Overflow.front().D);
    std::pop_heap(Overflow.begin(), Overflow.end(), overflowLater);
    Overflow.pop_back();
  }
}

void Machine::fillSlot(Hart &H, unsigned Slot, uint32_t Value) {
  if (!H.SlotFull[Slot]) {
    H.SlotFull[Slot] = true;
    H.SlotVal[Slot] = Value;
    return;
  }
  H.SlotBacklog.emplace_back(static_cast<uint8_t>(Slot), Value);
}

/// Result-slot values held by \p H right now: occupied slots plus the
/// backlog queued behind them.
static unsigned slotOccupancy(const Hart &H) {
  unsigned N = static_cast<unsigned>(H.SlotBacklog.size());
  for (bool Full : H.SlotFull)
    N += Full;
  return N;
}

void Machine::finishRb(Hart &H, uint32_t Value, uint64_t ReadyCycle) {
  assert(H.RbBusy && "result arrived with no result buffer allocated");
  H.RbReady = true;
  H.RbValue = Value;
  H.RbReadyCycle = ReadyCycle;
}

void Machine::deliver(const Delivery &D) {
  // Whatever this delivery enables, the target core can act on it this
  // very cycle (deliveries precede the stages), so wake it now.
  wakeCore(D.HartId / HartsPerCore);
  if (Cfg.EnableCheckers) {
    Ck.onDelivered(*this, D);
    if (Halted)
      return; // a machine check stops the delivery from applying
  }
  LastProgress = Cycle;
  Hart &H = hart(D.HartId);

  switch (D.K) {
  case Delivery::Kind::RbFill:
    finishRb(H, D.Value, Cycle);
    if (D.CountsMem) {
      assert(H.OutstandingMem > 0 && "memory op count underflow");
      --H.OutstandingMem;
    }
    return;

  case Delivery::Kind::MemAck: {
    assert(H.OutstandingMem > 0 && "memory op count underflow");
    --H.OutstandingMem;
    auto It = std::find(H.PendingStoreWords.begin(),
                        H.PendingStoreWords.end(), D.StoreWord);
    if (It != H.PendingStoreWords.end())
      H.PendingStoreWords.erase(It);
    return;
  }

  case Delivery::Kind::BankAccess: {
    uint32_t Addr = D.Addr;
    uint32_t Value = 0;
    // The event stream carries the data values too, so the fingerprint
    // distinguishes runs that differ only in computed data.
    if (isLocalAddr(Addr)) {
      uint32_t Rel = Addr - LocalBase;
      unsigned Core = D.Value; // carries the owning core for local ops
      if (D.IsWrite) {
        Mem.writeLocal(Core, Rel, D.StoreWord, D.Width);
        Tr.event(Cycle, EventKind::BankWrite, Addr, D.StoreWord);
        schedule(D.RespCycle, {Delivery::Kind::MemAck, D.HartId, 0, 0, 0,
                               Addr & ~3u, 4, 0, false, false, false});
      } else {
        Value = Mem.readLocal(Core, Rel, D.Width);
        Tr.event(Cycle, EventKind::BankRead, Addr, Value);
      }
    } else {
      assert(isGlobalAddr(Addr) && "bank access outside banked memory");
      if (Cfg.CollectMemLog)
        MemLog.push_back({Cycle, JoinEpoch, D.HartId, Addr, D.Width,
                          D.IsWrite, D.HartId != 0 || Hart0InTeam});
      uint32_t Rel = Addr - GlobalBase;
      unsigned Bank = Rel >> Cfg.GlobalBankSizeLog2;
      uint32_t Off = Rel & (Cfg.globalBankSize() - 1);
      if (D.IsWrite) {
        Mem.writeGlobal(Bank, Off, D.StoreWord, D.Width);
        Tr.event(Cycle, EventKind::BankWrite, Addr, D.StoreWord);
        schedule(D.RespCycle, {Delivery::Kind::MemAck, D.HartId, 0, 0, 0,
                               Addr & ~3u, 4, 0, false, false, false});
      } else {
        Value = Mem.readGlobal(Bank, Off, D.Width);
        Tr.event(Cycle, EventKind::BankRead, Addr, Value);
      }
    }
    if (!D.IsWrite) {
      if (D.SignExt) {
        unsigned Shift = 32 - 8 * D.Width;
        Value = static_cast<uint32_t>(
            static_cast<int32_t>(Value << Shift) >> Shift);
      }
      schedule(D.RespCycle, {Delivery::Kind::RbFill, D.HartId, Value, 0, 0,
                             0, 4, 0, false, false, true});
    }
    return;
  }

  case Delivery::Kind::IoAccess: {
    uint32_t Offset = 0;
    IoDevice *Dev = findDevice(D.Addr, Offset);
    if (!Dev) {
      fault(formatString("access to unmapped I/O address 0x%08x", D.Addr));
      return;
    }
    if (D.IsWrite) {
      Dev->write(Offset, D.StoreWord, Cycle);
      Tr.event(Cycle, EventKind::IoWrite, D.Addr, D.StoreWord);
      schedule(D.RespCycle, {Delivery::Kind::MemAck, D.HartId, 0, 0, 0,
                             D.Addr & ~3u, 4, 0, false, false, false});
    } else {
      uint32_t Value = Dev->read(Offset, Cycle);
      Tr.event(Cycle, EventKind::IoRead, D.Addr, Value);
      schedule(D.RespCycle, {Delivery::Kind::RbFill, D.HartId, Value, 0, 0,
                             0, 4, 0, false, false, true});
    }
    return;
  }

  case Delivery::Kind::StartHart:
    startHart(D.HartId, D.Value);
    return;

  case Delivery::Kind::Token:
    H.Token = true;
    Tr.event(Cycle, EventKind::TokenPass, D.Value, D.HartId);
    return;

  case Delivery::Kind::JoinMsg:
    if (H.State != HartState::WaitingJoin) {
      fault(formatString("join message reached hart %u which is not "
                         "waiting for a join",
                         D.HartId));
      return;
    }
    H.State = HartState::Running;
    H.StateSince = Cycle;
    H.Pc = D.Value;
    H.PcValid = true;
    H.NoFetchUntil = Cycle + 1;
    H.Token = true;
    Tr.event(Cycle, EventKind::Join, D.HartId, D.Value);
    // A join completes a team barrier: accesses on opposite sides can
    // never race, which is what the mem-log epoch encodes.
    ++JoinEpoch;
    if (D.HartId == 0)
      Hart0InTeam = false;
    return;

  case Delivery::Kind::SlotFill:
    fillSlot(H, D.Slot, D.Value);
    if (Obs)
      Obs->raiseSlotHighWater(D.HartId, slotOccupancy(H));
    return;
  }
  LBP_UNREACHABLE("unknown delivery kind");
}

//===----------------------------------------------------------------------===//
// Hart lifecycle
//===----------------------------------------------------------------------===//

int Machine::allocateHart(unsigned CoreId, unsigned ByHart) {
  Core &C = Cores[CoreId];
  for (unsigned K = 0; K != HartsPerCore; ++K) {
    unsigned H = (C.AllocRR + K) % HartsPerCore;
    if (C.Harts[H].State != HartState::Free)
      continue;
    C.AllocRR = static_cast<uint8_t>((H + 1) % HartsPerCore);
    Hart &Target = C.Harts[H];
    Target.State = HartState::Reserved;
    Target.StateSince = Cycle;
    Target.Regs[RegSP] = hartStackTop(H) - ContFrameSize;
    unsigned Id = hartId(CoreId, H);
    Tr.event(Cycle, EventKind::HartReserve, Id, ByHart);
    // Hart 0 forking means it entered a parallel region (it will run as
    // the team's last member until the join returns to it).
    if (ByHart == 0)
      Hart0InTeam = true;
    return static_cast<int>(Id);
  }
  return -1;
}

void Machine::startHart(unsigned HartId, uint32_t StartPc) {
  Hart &H = hart(HartId);
  if (H.State != HartState::Reserved) {
    fault(formatString("start message reached hart %u which is not "
                       "reserved",
                       HartId));
    return;
  }
  uint32_t Sp = H.Regs[RegSP];
  for (uint32_t &R : H.Regs)
    R = 0;
  H.Regs[RegSP] = Sp;
  H.State = HartState::Running;
  H.StateSince = Cycle;
  H.Pc = StartPc;
  H.PcValid = true;
  H.NoFetchUntil = Cycle + 1;
  LastProgress = Cycle;
  Tr.event(Cycle, EventKind::HartStart, HartId, StartPc);
}

void Machine::freeHart(unsigned HartId) {
  Hart &H = hart(HartId);
  Tr.event(Cycle, EventKind::HartEnd, HartId);
  H.clearForFree();
  // A freed hart un-blocks p_fc retries on this core and p_fn retries
  // on the previous one. This core's commit stage is the one running,
  // so it acted and stays awake, and its issue stage runs later this
  // same cycle. The previous core's issue already ran, so its retry
  // lands next cycle — exactly when the reference path would succeed.
  unsigned CoreId = HartId / HartsPerCore;
  if (CoreId != 0)
    wakeCore(CoreId - 1);
}

void Machine::sendToken(unsigned FromHart, unsigned ToHart) {
  unsigned FromCore = FromHart / HartsPerCore;
  unsigned ToCore = ToHart / HartsPerCore;
  if (ToHart >= Cfg.numHarts()) {
    fault(formatString("ending signal targets nonexistent hart %u",
                       ToHart));
    return;
  }
  if (ToCore != FromCore && ToCore != FromCore + 1) {
    fault(formatString("ending signal from hart %u to hart %u does not "
                       "follow the core line",
                       FromHart, ToHart));
    return;
  }
  schedule(Net.routeForward(FromCore, ToCore, Cycle),
           {Delivery::Kind::Token, static_cast<uint16_t>(ToHart), FromHart,
            0, 0, 0, 4, 0, false, false, false});
}

/// \p Mask, \p Width bits wide, rotated right by \p By < \p Width: bit k
/// of the result is bit (By + k) % Width of \p Mask. Each stage picks its
/// hart round-robin ("each stage selects one active hart at every
/// cycle", paper Sec. 5.2) by rotating its 4-bit candidate mask by its
/// pointer and taking the lowest set bit; issue walks ready ROB entries
/// oldest-first by rotating them by the head index.
static unsigned rotateRight(unsigned Mask, unsigned By, unsigned Width) {
  return (Mask >> By | Mask << (Width - By)) & ((1u << Width) - 1);
}

/// The first hart of the nonzero candidate mask \p Cand at or after the
/// round-robin pointer \p RR.
static unsigned firstHart(unsigned Cand, unsigned RR) {
  return (RR + __builtin_ctz(rotateRight(Cand, RR, HartsPerCore))) %
         HartsPerCore;
}

//===----------------------------------------------------------------------===//
// Stage eligibility
//===----------------------------------------------------------------------===//
//
// One test per stage: whether hart H is that stage's candidate at cycle
// Now, 0 or 1. coreStages builds all five masks from these in one loop
// and, after a stage acts, re-tests with the same functions the acting
// hart's bits that the action can flip.

static unsigned commitEligible(const Hart &H, uint64_t Now) {
  return H.Sched.HeadDoneAt <= Now;
}

static unsigned writebackEligible(const Hart &H, uint64_t Now) {
  return H.RbBusy & H.RbReady & (H.RbReadyCycle <= Now);
}

/// ROB entries of \p H that may issue as far as the summary can tell:
/// sources ready, and the result buffer free if they need it. Branch
/// free (a busy buffer selects RbWaiters through an all-ones mask):
/// RbBusy flips too often to predict.
static unsigned issueCandidates(const Hart &H) {
  unsigned Blocked = H.Sched.RbWaiters & (0u - H.RbBusy);
  return H.Sched.ReadyMask & ~Blocked;
}

static unsigned issueEligible(const Hart &H) {
  return issueCandidates(H) != 0;
}

static unsigned decodeEligible(const Hart &H) {
  return H.IbFull & (H.RobCount != RobEntries);
}

/// A p_syncm block whose issued accesses have all drained does not stop
/// fetch: the fetch stage clears it (syncmSatisfied) before it picks.
static unsigned fetchEligible(const Hart &H, uint64_t Now) {
  return (H.State == HartState::Running) & H.PcValid & !H.IbFull &
         !(H.SyncmWait & (H.OutstandingMem != 0)) & (H.NoFetchUntil <= Now);
}

/// The p_syncm block the fetch stage clears: raised, and nothing the hart
/// issued is still in flight.
static unsigned syncmSatisfied(const Hart &H) {
  return H.SyncmWait & (H.OutstandingMem == 0);
}

/// Sets bit \p K of \p Mask to \p Bit (0 or 1).
static void setHartBit(unsigned &Mask, unsigned K, unsigned Bit) {
  Mask = (Mask & ~(1u << K)) | Bit << K;
}

//===----------------------------------------------------------------------===//
// Commit stage
//===----------------------------------------------------------------------===//

/// The five p_ret ending types (DESIGN.md). Returns true when the entry
/// is allowed to commit this cycle.
static bool retCommittable(const Hart &H, uint32_t Ra, uint32_t T0,
                           unsigned SelfId) {
  if (H.OutstandingMem != 0)
    return false; // p_ret drains the hart's memory accesses
  bool ReturnToSelf = Ra != 0 && hartRefJoin(T0) == SelfId;
  if (ReturnToSelf)
    return true;
  return H.Token;
}

void Machine::commitRet(unsigned CoreId, unsigned HartInCore, Hart &H,
                        uint32_t Ra, uint32_t T0) {
  unsigned SelfId = hartId(CoreId, HartInCore);
  // Type 1: exit the process.
  if (Ra == 0 && T0 == HartRefExit) {
    Halted = true;
    Status = RunStatus::Exited;
    Tr.event(Cycle, EventKind::Exit, SelfId);
    return;
  }

  if (!hartRefIsValid(T0)) {
    fault(formatString("p_ret on hart %u with invalid hart reference "
                       "0x%08x",
                       SelfId, T0));
    return;
  }

  unsigned Join = hartRefJoin(T0);
  unsigned Succ = hartRefSuccessor(T0);

  if (Ra == 0 && Join == SelfId) {
    // Type 2: team head — pass the token on and wait for the join.
    H.Token = false;
    sendToken(SelfId, Succ);
    H.State = HartState::WaitingJoin;
    H.StateSince = Cycle;
    H.PcValid = false;
    return;
  }

  if (Ra == 0) {
    // Type 3: team member — pass the token on and end.
    H.Token = false;
    sendToken(SelfId, Succ);
    freeHart(SelfId);
    return;
  }

  if (Join == SelfId) {
    // Type 4: sequential return-to-self (keeps the token if any).
    H.Pc = Ra;
    H.PcValid = true;
    H.NoFetchUntil = Cycle + 1;
    return;
  }

  // Type 5: last team member — carry the join address and the token back
  // to the team head over the backward line.
  unsigned JoinCore = Join / HartsPerCore;
  if (Join >= Cfg.numHarts() || JoinCore > CoreId) {
    fault(formatString("join from hart %u targets hart %u which does not "
                       "precede it",
                       SelfId, Join));
    return;
  }
  schedule(Net.routeBackward(CoreId, JoinCore, Cycle),
           {Delivery::Kind::JoinMsg, static_cast<uint16_t>(Join), Ra, 0, 0,
            0, 4, 0, false, false, false});
  H.Token = false;
  freeHart(SelfId);
}

[[gnu::always_inline]] inline unsigned
Machine::stageCommit(Core &C, unsigned CoreId, unsigned Cand) {
  const unsigned RR = C.CommitRR;
  for (unsigned R = rotateRight(Cand, RR, HartsPerCore); R != 0; R &= R - 1) {
    unsigned HIdx = (RR + __builtin_ctz(R)) % HartsPerCore;
    Hart &H = C.Harts[HIdx];
    const RobEntry &E = H.Rob[H.RobHead];
    bool IsRet = E.Flags & UopIsRet;
    uint32_t Ra = E.SrcVal[0];
    uint32_t T0 = E.SrcVal[1];
    if (IsRet && !retCommittable(H, Ra, T0, hartId(CoreId, HIdx)))
      continue;

    C.CommitRR = (HIdx + 1) % HartsPerCore;
    LastProgress = Cycle;
    ++H.Retired;
    ++TotalRetired;
    Tr.event(Cycle, EventKind::Commit, hartId(CoreId, HIdx), E.Pc);

    // Pop before the ret actions: freeing or parking the hart resets or
    // abandons the ROB.
    H.RobHead = (H.RobHead + 1) % RobEntries;
    --H.RobCount;
    const RobEntry &Next = H.Rob[H.RobHead];
    H.Sched.HeadDoneAt =
        H.RobCount != 0 && Next.State == RobEntry::St::Done ? Next.DoneCycle
                                                            : UINT64_MAX;

    if (IsRet)
      commitRet(CoreId, HIdx, H, Ra, T0);
    return HIdx;
  }
  return NoHart;
}

//===----------------------------------------------------------------------===//
// Writeback stage
//===----------------------------------------------------------------------===//

[[gnu::always_inline]] inline unsigned
Machine::stageWriteback(Core &C, unsigned Cand) {
  unsigned HIdx = firstHart(Cand, C.WbRR);
  C.WbRR = (HIdx + 1) % HartsPerCore;
  Hart &H = C.Harts[HIdx];
  unsigned Idx = static_cast<unsigned>(H.RbEntry);
  RobEntry &E = H.Rob[Idx];
  uint8_t Rd = E.I.Rd;
  // Only the register's newest renamer — still its producer — updates
  // the architectural file; an older writer completing late (e.g. a
  // load that was stalled before issue) must not clobber a younger
  // result.
  if (Rd != 0 && H.RegProducer[Rd] == static_cast<int8_t>(Idx)) {
    H.Regs[Rd] = H.RbValue;
    H.RegProducer[Rd] = -1;
  }

  // Wake every entry of this hart captured on this producer.
  for (unsigned M = H.Sched.Consumers[Idx]; M != 0; M &= M - 1) {
    unsigned W = __builtin_ctz(M);
    RobEntry &Waiter = H.Rob[W];
    for (unsigned S = 0; S != 2; ++S) {
      if (Waiter.SrcProducer[S] == static_cast<int8_t>(Idx)) {
        Waiter.SrcVal[S] = H.RbValue;
        Waiter.SrcProducer[S] = -1;
      }
    }
    if (Waiter.SrcProducer[0] < 0 && Waiter.SrcProducer[1] < 0)
      H.Sched.ReadyMask |= static_cast<uint8_t>(1u << W);
  }
  H.Sched.Consumers[Idx] = 0;

  E.State = RobEntry::St::Done;
  E.DoneCycle = Cycle;
  if (Idx == H.RobHead)
    H.Sched.HeadDoneAt = Cycle;
  H.RbBusy = false;
  H.RbReady = false;
  H.RbEntry = -1;
  return HIdx;
}

//===----------------------------------------------------------------------===//
// Issue stage
//===----------------------------------------------------------------------===//

bool Machine::loadBlockedByStore(const Hart &H, uint32_t Addr) const {
  uint32_t Word = Addr & ~3u;
  return std::find(H.PendingStoreWords.begin(), H.PendingStoreWords.end(),
                   Word) != H.PendingStoreWords.end();
}

[[gnu::always_inline]] inline unsigned
Machine::stageIssue(Core &C, unsigned CoreId, unsigned Cand) {
  const unsigned RR = C.IssueRR;
  for (unsigned R = rotateRight(Cand, RR, HartsPerCore); R != 0; R &= R - 1) {
    unsigned HIdx = (RR + __builtin_ctz(R)) % HartsPerCore;
    Hart &H = C.Harts[HIdx];
    unsigned Head = H.RobHead;
    for (unsigned Order = rotateRight(issueCandidates(H), Head, RobEntries);
         Order != 0; Order &= Order - 1) {
      unsigned Idx = (Head + __builtin_ctz(Order)) % RobEntries;
      RobEntry &E = H.Rob[Idx];
      if (E.I.Op == Opcode::P_LWRE) {
        // A bad slot number issues, so that tryIssue reports the fault.
        uint32_t Slot = static_cast<uint32_t>(E.I.Imm);
        if (Slot < ResultSlots && !H.SlotFull[Slot])
          continue;
      }
      if (tryIssue(CoreId, HIdx, Idx)) {
        H.Sched.ReadyMask &= static_cast<uint8_t>(~(1u << Idx));
        H.Sched.RbWaiters &= static_cast<uint8_t>(~(1u << Idx));
        if (Idx == H.RobHead && E.State == RobEntry::St::Done)
          H.Sched.HeadDoneAt = E.DoneCycle;
        C.IssueRR = (HIdx + 1) % HartsPerCore;
        if (Cfg.CollectStallStats)
          tallyIssueSlot(CoreId, IssuedSlot);
        return HIdx;
      }
      if (Halted)
        return NoHart;
    }
  }
  if (Cfg.CollectStallStats)
    tallyIssueSlot(CoreId, stallSlot(C));
  return NoHart;
}

void Machine::tallyIssueSlot(unsigned CoreId, unsigned Slot) {
  // Any cycle since the core's last tally is one the fast path skipped
  // it while it was frozen, so it stalled for that tally's cause.
  creditStalls(CoreId, Cycle - 1);
  ++StallByCore[CoreId * NumStallSlots + Slot];
  LastTally[CoreId] = {Cycle, Slot};
}

void Machine::creditStalls(unsigned CoreId, uint64_t Through) {
  StallMark &M = LastTally[CoreId];
  if (Through > M.Cycle) {
    StallByCore[CoreId * NumStallSlots + M.Slot] += Through - M.Cycle;
    M.Cycle = Through;
  }
}

unsigned Machine::stallSlot(const Core &C) const {
  bool SawInFlight = false, SawWaitingOps = false, SawRbBusy = false,
       SawSlotEmpty = false;
  for (const Hart &H : C.Harts) {
    for (unsigned P = 0; P != H.RobCount; ++P) {
      const RobEntry &E = H.Rob[H.robIndex(P)];
      if (E.State != RobEntry::St::Waiting) {
        SawInFlight = true;
        continue;
      }
      if (E.SrcProducer[0] >= 0 || E.SrcProducer[1] >= 0) {
        SawWaitingOps = true;
        continue;
      }
      // Sources ready but blocked: result buffer or an empty slot.
      if (E.I.Op == Opcode::P_LWRE && !H.RbBusy)
        SawSlotEmpty = true;
      else
        SawRbBusy = true;
    }
  }
  StallCause Cause = StallCause::NoActiveWork;
  if (SawRbBusy)
    Cause = StallCause::RbBusy;
  else if (SawSlotEmpty)
    Cause = StallCause::SlotEmpty;
  else if (SawWaitingOps)
    Cause = StallCause::OperandsNotReady;
  else if (SawInFlight)
    Cause = StallCause::WaitingResponse;
  return static_cast<unsigned>(Cause);
}

bool Machine::tryIssue(unsigned CoreId, unsigned HartInCore,
                       unsigned RobIdx) {
  Hart &H = Cores[CoreId].Harts[HartInCore];
  RobEntry &E = H.Rob[RobIdx];
  const isa::Instr &I = E.I;
  uint32_t A = E.SrcVal[0];
  uint32_t B = E.SrcVal[1];
  unsigned SelfId = hartId(CoreId, HartInCore);

  auto GrabRb = [&](uint32_t Value, uint64_t ReadyAt) {
    assert(!H.RbBusy && "double result-buffer allocation");
    H.RbBusy = true;
    H.RbReady = true;
    H.RbValue = Value;
    H.RbReadyCycle = ReadyAt;
    H.RbEntry = static_cast<int8_t>(RobIdx);
    E.State = RobEntry::St::Issued;
  };
  auto FinishNoResult = [&](unsigned Lat) {
    E.State = RobEntry::St::Done;
    E.DoneCycle = Cycle + Lat;
  };
  // A register writer's value goes through the result buffer; anything
  // else completes in place.
  auto Complete = [&](uint32_t Value, unsigned Lat) {
    if (E.Flags & UopWritesReg)
      GrabRb(Value, Cycle + Lat);
    else
      FinishNoResult(Lat);
  };
  // A control transfer resolved at issue publishes the next pc.
  auto Redirect = [&](uint32_t Target) {
    H.Pc = Target;
    H.PcValid = true;
    H.NoFetchUntil = Cycle + AluLatency;
  };
  auto Branch = [&](bool Taken) {
    Redirect(E.Pc + (Taken ? static_cast<uint32_t>(I.Imm) : 4u));
    FinishNoResult(AluLatency);
  };

  // The one dispatch of an issue. Each ALU, multiply, divide, jump and
  // branch case calls its evaluator (sim/Exec.h) with the case's opcode
  // as a constant, which folds the evaluator to that one operation.
#define LBP_EVAL_CASE(OP, LATENCY)                                             \
  case Opcode::OP:                                                             \
    Complete(evalOp(Opcode::OP, A, B, I.Imm, E.Pc), LATENCY);                  \
    return true;
#define LBP_BRANCH_CASE(OP)                                                    \
  case Opcode::OP:                                                             \
    Branch(evalBranch(Opcode::OP, A, B));                                      \
    return true;
  switch (I.Op) {
  LBP_EVAL_CASE(LUI, AluLatency)
  LBP_EVAL_CASE(AUIPC, AluLatency)
  LBP_EVAL_CASE(ADDI, AluLatency)
  LBP_EVAL_CASE(SLTI, AluLatency)
  LBP_EVAL_CASE(SLTIU, AluLatency)
  LBP_EVAL_CASE(XORI, AluLatency)
  LBP_EVAL_CASE(ORI, AluLatency)
  LBP_EVAL_CASE(ANDI, AluLatency)
  LBP_EVAL_CASE(SLLI, AluLatency)
  LBP_EVAL_CASE(SRLI, AluLatency)
  LBP_EVAL_CASE(SRAI, AluLatency)
  LBP_EVAL_CASE(ADD, AluLatency)
  LBP_EVAL_CASE(SUB, AluLatency)
  LBP_EVAL_CASE(SLL, AluLatency)
  LBP_EVAL_CASE(SLT, AluLatency)
  LBP_EVAL_CASE(SLTU, AluLatency)
  LBP_EVAL_CASE(XOR, AluLatency)
  LBP_EVAL_CASE(SRL, AluLatency)
  LBP_EVAL_CASE(SRA, AluLatency)
  LBP_EVAL_CASE(OR, AluLatency)
  LBP_EVAL_CASE(AND, AluLatency)
  LBP_EVAL_CASE(MUL, MulLatency)
  LBP_EVAL_CASE(MULH, MulLatency)
  LBP_EVAL_CASE(MULHSU, MulLatency)
  LBP_EVAL_CASE(MULHU, MulLatency)
  LBP_EVAL_CASE(DIV, DivLatency)
  LBP_EVAL_CASE(DIVU, DivLatency)
  LBP_EVAL_CASE(REM, DivLatency)
  LBP_EVAL_CASE(REMU, DivLatency)
  // JAL resolved its target at decode; both jumps produce the link
  // value.
  LBP_EVAL_CASE(JAL, AluLatency)
  case Opcode::JALR:
    Redirect((A + static_cast<uint32_t>(I.Imm)) & ~1u);
    Complete(evalOp(Opcode::JALR, A, B, I.Imm, E.Pc), AluLatency);
    return true;
  LBP_BRANCH_CASE(BEQ)
  LBP_BRANCH_CASE(BNE)
  LBP_BRANCH_CASE(BLT)
  LBP_BRANCH_CASE(BGE)
  LBP_BRANCH_CASE(BLTU)
  LBP_BRANCH_CASE(BGEU)
#undef LBP_EVAL_CASE
#undef LBP_BRANCH_CASE

  // Counter reads sample machine state the pure evaluator cannot see.
  // Reading at issue keeps them deterministic (issue timing is
  // deterministic).
  case Opcode::RDCYCLE:
    Complete(static_cast<uint32_t>(Cycle), AluLatency);
    return true;
  case Opcode::RDINSTRET:
    Complete(static_cast<uint32_t>(H.Retired), AluLatency);
    return true;

  // Memory accesses: width in bytes, sign extension, direction.
  case Opcode::LB:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 1, true, false);
  case Opcode::LH:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 2, true, false);
  case Opcode::LW:
  case Opcode::P_LWCV:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 4, false, false);
  case Opcode::LBU:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 1, false, false);
  case Opcode::LHU:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 2, false, false);
  case Opcode::SB:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 1, false, true);
  case Opcode::SH:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 2, false, true);
  case Opcode::SW:
  case Opcode::P_SWCV:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx, 4, false, true);

  // X_PAR.
  case Opcode::P_SET:
    GrabRb(hartRefSet(A, SelfId), Cycle + AluLatency);
    return true;

  case Opcode::P_MERGE:
    GrabRb(hartRefMerge(A, B), Cycle + AluLatency);
    return true;

  case Opcode::P_SYNCM:
    // The fetch block was raised at decode; the instruction itself is a
    // one-cycle no-op in the window.
    FinishNoResult(AluLatency);
    return true;

  case Opcode::P_FC: {
    int Target = allocateHart(CoreId, SelfId);
    if (Target < 0)
      return false; // retry when a hart frees up
    GrabRb(static_cast<uint32_t>(Target), Cycle + AluLatency);
    return true;
  }

  case Opcode::P_FN: {
    if (CoreId + 1 >= Cfg.NumCores) {
      fault(formatString("p_fn on the last core (hart %u): teams cannot "
                         "extend past the end of the line",
                         SelfId));
      return false;
    }
    int Target = allocateHart(CoreId + 1, SelfId);
    if (Target < 0)
      return false;
    GrabRb(static_cast<uint32_t>(Target),
           Cycle + 1 + 2 * ForwardLinkLatency);
    return true;
  }

  case Opcode::P_JAL:
  case Opcode::P_JALR: {
    if (E.Flags & UopIsRet) {
      // Ending protocol: values captured, decision at commit.
      FinishNoResult(AluLatency);
      return true;
    }
    // Fork-calls read the target hart's state (possibly on the next
    // core).
    uint32_t Target = hartRefSuccessor(A);
    if (Target >= Cfg.numHarts()) {
      fault(formatString("fork-call on hart %u targets nonexistent hart "
                         "%u",
                         SelfId, Target));
      return false;
    }
    unsigned TargetCore = Target / HartsPerCore;
    if (TargetCore != CoreId && TargetCore != CoreId + 1) {
      fault(formatString("fork-call on hart %u targets hart %u beyond the "
                         "next core",
                         SelfId, Target));
      return false;
    }
    if (hart(Target).State != HartState::Reserved) {
      fault(formatString("fork-call on hart %u targets hart %u which is "
                         "not reserved",
                         SelfId, Target));
      return false;
    }
    uint64_t Arrive = Net.routeForward(CoreId, TargetCore, Cycle);
    schedule(Arrive,
             {Delivery::Kind::StartHart, static_cast<uint16_t>(Target),
              E.Pc + 4, 0, 0, 0, 4, 0, false, false, false});
    // Local control transfer: p_jal jumped at decode, p_jalr jumps now.
    if (I.Op == Opcode::P_JALR)
      Redirect(B);
    GrabRb(0, Cycle + AluLatency); // "clear rd"
    return true;
  }

  case Opcode::P_SWRE: {
    uint32_t Target = A & 0xFFFFu;
    uint32_t Slot = static_cast<uint32_t>(I.Imm);
    if (Target >= Cfg.numHarts() || Slot >= ResultSlots) {
      fault(formatString("p_swre on hart %u with bad target %u or slot "
                         "%u",
                         SelfId, Target, Slot));
      return false;
    }
    unsigned TargetCore = Target / HartsPerCore;
    if (TargetCore > CoreId) {
      fault(formatString("p_swre on hart %u targets hart %u: results may "
                         "only travel to prior harts",
                         SelfId, Target));
      return false;
    }
    Delivery D;
    D.K = Delivery::Kind::SlotFill;
    D.HartId = static_cast<uint16_t>(Target);
    D.Value = B;
    D.Slot = static_cast<uint8_t>(Slot);
    schedule(Net.routeBackward(CoreId, TargetCore, Cycle), D);
    FinishNoResult(AluLatency);
    return true;
  }

  case Opcode::P_LWRE: {
    uint32_t Slot = static_cast<uint32_t>(I.Imm);
    if (Slot >= ResultSlots) {
      fault(formatString("p_lwre on hart %u with bad slot %u", SelfId,
                         Slot));
      return false;
    }
    assert(H.SlotFull[Slot] && "issue condition checked slot fullness");
    uint32_t Value = H.SlotVal[Slot];
    H.SlotFull[Slot] = false;
    // Refill from the backlog in arrival order.
    for (auto It = H.SlotBacklog.begin(); It != H.SlotBacklog.end(); ++It) {
      if (It->first == Slot) {
        H.SlotFull[Slot] = true;
        H.SlotVal[Slot] = It->second;
        H.SlotBacklog.erase(It);
        break;
      }
    }
    GrabRb(Value, Cycle + AluLatency);
    return true;
  }

  case Opcode::Invalid:
  case Opcode::NumOpcodes:
    break;
  }
  LBP_UNREACHABLE("decode admits no invalid instruction");
}

bool Machine::issueMemOp(unsigned CoreId, unsigned HartInCore, Hart &H,
                         RobEntry &E, unsigned RobIdx, unsigned Width,
                         bool SignExt, bool IsWrite) {
  const isa::Instr &I = E.I;
  unsigned SelfId = hartId(CoreId, HartInCore);

  // Effective address and (for writes) data.
  uint32_t Addr;
  uint32_t Data = E.SrcVal[1];
  unsigned LocalCore = CoreId; // whose local bank a local address means
  if (I.Op == Opcode::P_SWCV) {
    uint32_t Target = hartRefSuccessor(E.SrcVal[0]);
    if (Target >= Cfg.numHarts()) {
      fault(formatString("p_swcv on hart %u targets nonexistent hart %u",
                         SelfId, Target));
      return false;
    }
    unsigned TargetCore = Target / HartsPerCore;
    if (TargetCore != CoreId && TargetCore != CoreId + 1) {
      fault(formatString("p_swcv on hart %u targets hart %u beyond the "
                         "next core",
                         SelfId, Target));
      return false;
    }
    Hart &T = hart(Target);
    if (T.State == HartState::Free) {
      fault(formatString("p_swcv on hart %u targets free hart %u", SelfId,
                         Target));
      return false;
    }
    Addr = T.Regs[RegSP] + static_cast<uint32_t>(I.Imm);
    LocalCore = TargetCore;
  } else {
    Addr = E.SrcVal[0] + static_cast<uint32_t>(I.Imm);
  }

  if (!IsWrite && loadBlockedByStore(H, Addr))
    return false; // conservative same-word RAW stall

  if (Addr % Width != 0) {
    fault(formatString("misaligned %u-byte access at 0x%08x (hart %u, pc "
                       "0x%x)",
                       Width, Addr, SelfId, E.Pc));
    return false;
  }

  // Classify the destination. Local accesses have a closed-form timing;
  // global and I/O accesses reserve a path through the interconnect
  // once the hart-side effects below are applied.
  uint64_t AccessCycle = 0, RespCycle = 0;
  bool IsIo = false;
  bool IsLocal = false;
  unsigned Bank = 0;
  if (isLocalAddr(Addr)) {
    // p_swcv to the next core rides the forward link.
    uint64_t Extra =
        I.Op == Opcode::P_SWCV && LocalCore != CoreId
            ? Net.routeForward(CoreId, LocalCore, Cycle) - Cycle
            : 0;
    AccessCycle = Cycle + Extra + 1;
    RespCycle = Cycle + Extra + LocalMemLatency;
    IsLocal = true;
    ++LocalAccesses;
  } else if (isGlobalAddr(Addr)) {
    uint32_t Rel = Addr - GlobalBase;
    Bank = Rel >> Cfg.GlobalBankSizeLog2;
    if (Bank >= Cfg.NumCores) {
      fault(formatString("access at 0x%08x is beyond the last global bank "
                         "(hart %u, pc 0x%x)",
                         Addr, SelfId, E.Pc));
      return false;
    }
    ++(Bank == CoreId ? LocalAccesses : RemoteAccesses);
  } else if (isIoAddr(Addr)) {
    IsIo = true;
  } else if (isCodeAddr(Addr) && !IsWrite) {
    // Constant data in the code bank: served locally, read immediately
    // (the image is immutable).
    uint32_t Value = Mem.fetchWord(Addr & ~3u);
    Value >>= 8 * (Addr & 3u);
    if (Width < 4)
      Value &= (1u << (8 * Width)) - 1u;
    if (SignExt) {
      unsigned Shift = 32 - 8 * Width;
      Value =
          static_cast<uint32_t>(static_cast<int32_t>(Value << Shift) >>
                                Shift);
    }
    H.RbBusy = true;
    H.RbReady = true;
    H.RbValue = Value;
    H.RbReadyCycle = Cycle + LocalMemLatency;
    H.RbEntry = static_cast<int8_t>(RobIdx);
    E.State = RobEntry::St::Issued;
    return true;
  } else {
    fault(formatString("store into the code bank at 0x%08x (hart %u, pc "
                       "0x%x)",
                       Addr, SelfId, E.Pc));
    return false;
  }

  // Hart-side effects (identical for every destination class).
  if (IsWrite) {
    ++H.OutstandingMem;
    H.PendingStoreWords.push_back(Addr & ~3u);
    E.State = RobEntry::St::Done;
    E.DoneCycle = Cycle + AluLatency;
  } else {
    H.RbBusy = true;
    H.RbReady = false;
    H.RbEntry = static_cast<int8_t>(RobIdx);
    ++H.OutstandingMem;
    E.State = RobEntry::St::Issued;
  }

  if (IsLocal) {
    RespCycle = std::max(RespCycle, AccessCycle + 1);
    Delivery D;
    D.K = Delivery::Kind::BankAccess;
    D.HartId = static_cast<uint16_t>(SelfId);
    D.Addr = Addr;
    D.Width = static_cast<uint8_t>(Width);
    D.SignExt = SignExt;
    D.IsWrite = IsWrite;
    D.RespCycle = RespCycle;
    D.Value = LocalCore; // owning core for local-bank accesses
    if (IsWrite)
      D.StoreWord = Data;
    schedule(AccessCycle, D);
    return true;
  }

  Interconnect::GlobalPath Path =
      IsIo ? Net.routeIo(Cycle) : Net.routeGlobal(CoreId, Bank, Cycle);
  AccessCycle = Path.BankCycle;
  RespCycle = Path.ResponseCycle;
  if (!IsIo && FPlan.enabled()) {
    bool NewlyFired = false;
    uint64_t Stall = FPlan.stuckBankStall(Bank, AccessCycle, NewlyFired);
    if (NewlyFired)
      Tr.event(Cycle, EventKind::FaultInject,
               static_cast<uint64_t>(FaultKind::StuckBank), Bank);
    AccessCycle += Stall;
    RespCycle += Stall;
  }
  RespCycle = std::max(RespCycle, AccessCycle + 1);

  Delivery D;
  D.K = IsIo ? Delivery::Kind::IoAccess : Delivery::Kind::BankAccess;
  D.HartId = static_cast<uint16_t>(SelfId);
  D.Addr = Addr;
  D.Width = static_cast<uint8_t>(Width);
  D.SignExt = SignExt;
  D.IsWrite = IsWrite;
  D.RespCycle = RespCycle;
  D.Value = CoreId; // == the owning core only for local accesses
  if (IsWrite)
    D.StoreWord = Data;
  schedule(AccessCycle, D);
  return true;
}

//===----------------------------------------------------------------------===//
// Decode/rename stage
//===----------------------------------------------------------------------===//

[[gnu::always_inline]] inline unsigned
Machine::stageDecode(Core &C, unsigned CoreId, unsigned Cand) {
  unsigned HIdx = firstHart(Cand, C.DecodeRR);
  C.DecodeRR = (HIdx + 1) % HartsPerCore;
  Hart &H = C.Harts[HIdx];
  // Fast path: the text segment was decoded once at load (with the
  // p_lwcv fixup baked in); fall back to live decode for unaligned
  // pcs (p_jalr only clears bit 0) and fetches beyond the table.
  MicroOp U;
  uint32_t WordIdx = H.IbPc >> 2;
  if ((H.IbPc & 3u) == 0 && WordIdx < DecodedText.size())
    U = DecodedText[WordIdx];
  else
    U = decodeMicroOp(H.IbWord);
  const isa::Instr &I = U.I;
  if (!I.isValid()) {
    fault(formatString("invalid instruction 0x%08x at pc 0x%x (hart "
                       "%u)",
                       H.IbWord, H.IbPc, hartId(CoreId, HIdx)));
    return HIdx;
  }

  // The entry is filled field by field: assigning a whole temporary
  // RobEntry makes the stores below wait on the wide copy.
  unsigned Idx = H.robIndex(H.RobCount);
  uint8_t Bit = static_cast<uint8_t>(1u << Idx);
  RobEntry &E = H.Rob[Idx];
  E.I = I;
  E.Pc = H.IbPc;
  E.State = RobEntry::St::Waiting;
  E.Flags = U.Flags;
  E.DoneCycle = 0;
  bool Ready = true;
  auto Capture = [&](unsigned S, bool Reads, uint8_t Reg) {
    E.SrcVal[S] = 0;
    E.SrcProducer[S] = -1;
    if (!Reads)
      return;
    int8_t Producer = H.RegProducer[Reg];
    if (Producer < 0) {
      E.SrcVal[S] = H.Regs[Reg];
      return;
    }
    E.SrcProducer[S] = Producer;
    H.Sched.Consumers[Producer] |= Bit;
    Ready = false;
  };
  Capture(0, U.Flags & UopReadsRs1, I.Rs1);
  Capture(1, U.Flags & UopReadsRs2, I.Rs2);
  if (Ready)
    H.Sched.ReadyMask |= Bit;
  if (U.Flags & UopNeedsRb)
    H.Sched.RbWaiters |= Bit;
  if (U.Flags & UopWritesReg)
    H.RegProducer[I.Rd] = static_cast<int8_t>(Idx);

  ++H.RobCount;
  if (Obs)
    Obs->raiseRobHighWater(hartId(CoreId, HIdx), H.RobCount);
  H.IbFull = false;

  // Resolve the next pc when it is known at decode.
  if (U.Flags & UopNextPcAtDecode) {
    H.Pc = E.Pc + (U.Flags & UopJumpsAtDecode ? static_cast<uint32_t>(I.Imm)
                                              : 4u);
    H.PcValid = true;
  }

  if (I.Op == Opcode::P_SYNCM)
    H.SyncmWait = true;
  return HIdx;
}

//===----------------------------------------------------------------------===//
// Fetch stage
//===----------------------------------------------------------------------===//

[[gnu::always_inline]] inline unsigned
Machine::stageFetch(Core &C, unsigned CoreId, unsigned Cand,
                    unsigned SyncmDone) {
  // Clear the satisfied p_syncm fetch blocks first, as the block's
  // release. Not an "action" for the fast path: the enabling edge
  // (OutstandingMem hitting zero) is a delivery, which woke this core for
  // the same cycle, or this visit's decode of the p_syncm, which acted.
  for (; SyncmDone != 0; SyncmDone &= SyncmDone - 1)
    C.Harts[__builtin_ctz(SyncmDone)].SyncmWait = false;
  if (Cand == 0)
    return NoHart;

  unsigned HIdx = firstHart(Cand, C.FetchRR);
  Hart &H = C.Harts[HIdx];
  if (!isCodeAddr(H.Pc)) {
    fault(formatString("fetch outside the code bank at 0x%08x (hart "
                       "%u)",
                       H.Pc, hartId(CoreId, HIdx)));
    return HIdx;
  }

  C.FetchRR = (HIdx + 1) % HartsPerCore;
  H.IbWord = Mem.fetchWord(H.Pc);
  H.IbPc = H.Pc;
  H.IbFull = true;
  // The hart is suspended after every fetch until decode (or the
  // execute of a control transfer) publishes the next pc.
  H.PcValid = false;
  return HIdx;
}

//===----------------------------------------------------------------------===//
// Cycle loop
//===----------------------------------------------------------------------===//

bool Machine::timerPending(const Core &C, uint64_t Now) const {
  // The only stage conditions that depend on the cycle number are the
  // three timers below; everything else a stage tests is machine state
  // that can only change through a stage action or a delivery. So a
  // core that did not act this cycle and has none of them pending
  // cannot act again on its own. Only the head's done cycle counts among
  // the ROB's (UINT64_MAX while the head is not done): commit is in
  // order, so a younger entry finishing cannot let the core act before
  // the head has committed, which is itself an action.
  for (const Hart &H : C.Harts) {
    if (H.State == HartState::Free)
      continue;
    if ((H.State == HartState::Running && H.NoFetchUntil > Now) ||
        (H.RbBusy && H.RbReady && H.RbReadyCycle > Now) ||
        (H.Sched.HeadDoneAt > Now && H.Sched.HeadDoneAt != UINT64_MAX))
      return true;
  }
  return false;
}

bool Machine::coreStages(unsigned CoreId) {
  // Every stage's candidate mask in one pass over the harts. Only this
  // core's stages change its harts during the visit (other cores touch
  // them through deliveries, which land before the stages), and each
  // action changes only its own hart's eligibility, so after an action
  // the acting hart's bits for the later stages are the ones to re-test.
  // A p_fc turns a Free hart Reserved, and every bit of both is 0.
  Core &C = Cores[CoreId];
  const uint64_t Now = Cycle;
  unsigned CommitCand = 0, WbCand = 0, IssueCand = 0, DecodeCand = 0,
           FetchCand = 0, SyncmDone = 0;
  for (unsigned K = 0; K != HartsPerCore; ++K) {
    const Hart &H = C.Harts[K];
    CommitCand |= commitEligible(H, Now) << K;
    WbCand |= writebackEligible(H, Now) << K;
    IssueCand |= issueEligible(H) << K;
    DecodeCand |= decodeEligible(H) << K;
    FetchCand |= fetchEligible(H, Now) << K;
    SyncmDone |= syncmSatisfied(H) << K;
  }

  bool Acted = false;
  if (CommitCand != 0) {
    unsigned K = stageCommit(C, CoreId, CommitCand);
    if (K != NoHart) {
      if (Halted)
        return true;
      Acted = true;
      // The pop frees a ROB slot. A p_ret commit changes nothing else
      // here: it was the hart's only entry, its pc was invalid since its
      // fetch, and a return to self blocks fetch until the next cycle.
      setHartBit(DecodeCand, K, decodeEligible(C.Harts[K]));
    }
  }
  if (WbCand != 0) {
    // Writeback wakes consumers and frees the result buffer.
    unsigned K = stageWriteback(C, WbCand);
    Acted = true;
    setHartBit(IssueCand, K, issueEligible(C.Harts[K]));
  }
  // With stall tallies on, issue runs to count its slot.
  if (IssueCand != 0 || Cfg.CollectStallStats) {
    unsigned K = stageIssue(C, CoreId, IssueCand);
    if (Halted)
      return Acted;
    if (K != NoHart) {
      // A control transfer publishes the pc; a memory op raises
      // OutstandingMem, which keeps a pending p_syncm blocking.
      Acted = true;
      const Hart &H = C.Harts[K];
      setHartBit(FetchCand, K, fetchEligible(H, Now));
      setHartBit(SyncmDone, K, syncmSatisfied(H));
    }
  }
  if (DecodeCand != 0) {
    // Decode empties the buffer, may publish the pc or raise a p_syncm.
    unsigned K = stageDecode(C, CoreId, DecodeCand);
    if (Halted)
      return true;
    Acted = true;
    const Hart &H = C.Harts[K];
    setHartBit(FetchCand, K, fetchEligible(H, Now));
    setHartBit(SyncmDone, K, syncmSatisfied(H));
  }
  return stageFetch(C, CoreId, FetchCand, SyncmDone) != NoHart || Acted;
}

void Machine::cycleStages() {
  for (unsigned CoreId = 0; CoreId != Cfg.NumCores; ++CoreId) {
    coreStages(CoreId);
    if (Halted) {
      HaltCore = CoreId;
      return;
    }
  }
}

void Machine::cycleAwakeStages() {
  // Active-set scheduling: a sleeping core did not act at its last visit
  // and had no timer pending, so it is frozen until a delivery or a hart
  // free wakes it, and the round-robin pointers only advance on actions;
  // visiting only the awake cores, in ascending order, is invisible to
  // the event stream. The bits of each word are read once: the stages
  // only wake the core before the one being walked.
  for (size_t W = 0; W != Awake.size(); ++W)
    for (uint64_t Bits = Awake[W]; Bits != 0; Bits &= Bits - 1) {
      unsigned CoreId = static_cast<unsigned>(W * 64) + __builtin_ctzll(Bits);
      bool CoreActed = coreStages(CoreId);
      if (Halted) {
        HaltCore = CoreId;
        return;
      }
      if (!CoreActed && !timerPending(Cores[CoreId], Cycle))
        Awake[W] &= ~(uint64_t(1) << (CoreId % 64));
    }
}

RunStatus Machine::run(uint64_t MaxCycles) {
  // A faulted or exited machine has nothing left to simulate.
  if (Status == RunStatus::Fault || Status == RunStatus::Exited)
    return Status;
  armPerturb();
  Status = RunStatus::MaxCycles;
  Halted = false;
  HaltCore = Cfg.NumCores;
  uint64_t Budget = MaxCycles;

  while (!Halted && Budget-- != 0) {
    ++Cycle;

    // Deliveries first: responses, starts and tokens scheduled for this
    // cycle are visible to the stages below.
    collectDue();
    for (const Delivery &D : DueBuf) {
      deliver(D);
      if (Halted)
        break;
    }
    if (Halted) {
      HaltCore = 0;
      break;
    }

    if (Cfg.FastPath)
      cycleAwakeStages();
    else
      cycleStages();
    if (Halted)
      break;

    if (Cfg.EnableCheckers && Cycle % CheckInterval == 0) {
      Ck.sweep(*this);
      if (Halted)
        break;
    }

    if (Cycle - LastProgress > Cfg.ProgressGuard) {
      Status = RunStatus::Livelock;
      FaultMsg = livelockReport();
      break;
    }
  }
  // Credit each core through the last cycle the reference loop
  // classified on it: the final one, but for the cores at and above
  // HaltCore, whose walk a halt cut short. Then mark the final cycle
  // counted on every core, so that a later run() credits nothing to it.
  if (Cfg.CollectStallStats)
    for (unsigned CoreId = 0; CoreId != Cfg.NumCores; ++CoreId) {
      creditStalls(CoreId, CoreId < HaltCore ? Cycle : Cycle - 1);
      LastTally[CoreId].Cycle = Cycle;
    }
  return Status;
}

/// Arms the PerturbForTest divergence seed for this run. The payload
/// encodes the *host-side* identity of the run — the engine, 0 for the
/// reference loop and 1 for the fast path — so two runs that the
/// determinism guarantee would make bit-identical diverge at exactly
/// Cfg.PerturbForTest.
void Machine::armPerturb() {
  if (Cfg.PerturbForTest == 0 || Tr.perturbFired())
    return;
  Tr.setPerturb(Cfg.PerturbForTest, Cfg.FastPath ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Livelock diagnosis
//===----------------------------------------------------------------------===//

unsigned Machine::pendingDeliveriesFor(unsigned HartId) const {
  unsigned N = 0;
  forEachBusySlot([&](uint64_t Slot) {
    forEachInSlot(Slot, [&](const Delivery &D) { N += D.HartId == HartId; });
  });
  for (const OverflowEntry &Entry : Overflow)
    N += Entry.D.HartId == HartId;
  return N;
}

static const char *hartStateName(HartState S) {
  switch (S) {
  case HartState::Free:
    return "free";
  case HartState::Reserved:
    return "reserved";
  case HartState::Running:
    return "running";
  case HartState::WaitingJoin:
    return "waiting-join";
  }
  return "?";
}

/// Best single-line explanation of what a stalled hart is waiting for.
static std::string hartWaitCause(const Hart &H, unsigned Pending) {
  if (H.State == HartState::Reserved)
    return Pending ? "start message still in flight"
                   : "reserved but no start message pending (lost?)";
  if (H.State == HartState::WaitingJoin)
    return Pending ? "join message still in flight"
                   : "waiting for a join that is not in flight";
  if (H.SyncmWait)
    return formatString("p_syncm draining %u outstanding accesses",
                        H.OutstandingMem);
  if (H.RobCount != 0) {
    const RobEntry &E = H.Rob[H.RobHead];
    std::string Head = isa::printInstr(E.I);
    if (E.I.Op == Opcode::P_LWRE && E.State == RobEntry::St::Waiting)
      return formatString("`%s` waiting for result slot %d to fill",
                          Head.c_str(), static_cast<int>(E.I.Imm));
    bool IsRet = E.Flags & UopIsRet;
    if (IsRet && E.State == RobEntry::St::Done && !H.Token)
      return formatString("`%s` waiting for the ending-signal token",
                          Head.c_str());
    if (H.RbBusy && !H.RbReady)
      return formatString("`%s` awaiting a memory/link response",
                          Head.c_str());
    return formatString("`%s` (%s) at the head of the rob", Head.c_str(),
                        E.State == RobEntry::St::Waiting ? "waiting"
                        : E.State == RobEntry::St::Issued ? "issued"
                                                          : "done");
  }
  if (!H.PcValid && !H.IbFull)
    return "no pc and nothing buffered";
  return "idle front end";
}

std::string Machine::livelockReport() const {
  std::string Report = formatString(
      "livelock: no commit, delivery or hart start since cycle %llu "
      "(guard %llu cycles). Hart wait report:",
      static_cast<unsigned long long>(LastProgress),
      static_cast<unsigned long long>(Cfg.ProgressGuard));
  unsigned Stuck = 0;
  for (unsigned HartId = 0; HartId != Cfg.numHarts(); ++HartId) {
    const Hart &H = hart(HartId);
    if (H.State == HartState::Free)
      continue;
    ++Stuck;
    unsigned Pending = pendingDeliveriesFor(HartId);
    Report += formatString(
        "\n  hart %u (core %u): state=%s pc=0x%x rob=%u outMem=%u "
        "token=%d pending-deliveries=%u — %s",
        HartId, HartId / HartsPerCore, hartStateName(H.State), H.Pc,
        H.RobCount, H.OutstandingMem, static_cast<int>(H.Token), Pending,
        hartWaitCause(H, Pending).c_str());
  }
  if (Stuck == 0)
    Report += "\n  (no hart is live; every delivery has drained)";
  return Report;
}

//===----------------------------------------------------------------------===//
// Observation helpers
//===----------------------------------------------------------------------===//

uint64_t Machine::retiredOnHart(unsigned HartId) const {
  return hart(HartId).Retired;
}

uint64_t Machine::stallCycles(StallCause C) const {
  uint64_t N = 0;
  for (unsigned Core = 0; Core != Cfg.NumCores; ++Core)
    N += stallCycles(C, Core);
  return N;
}

uint64_t Machine::issuedCoreCycles() const {
  uint64_t N = 0;
  for (unsigned Core = 0; Core != Cfg.NumCores; ++Core)
    N += issuedCoreCycles(Core);
  return N;
}

const char *lbp::sim::stallCauseName(Machine::StallCause C) {
  switch (C) {
  case Machine::StallCause::NoActiveWork:
    return "no-active-work";
  case Machine::StallCause::WaitingResponse:
    return "waiting-response";
  case Machine::StallCause::RbBusy:
    return "rb-busy";
  case Machine::StallCause::SlotEmpty:
    return "slot-empty";
  case Machine::StallCause::OperandsNotReady:
    return "operands-not-ready";
  case Machine::StallCause::NumCauses:
    break;
  }
  return "?";
}

uint32_t Machine::debugReadWord(uint32_t Addr, unsigned Core) const {
  if (isCodeAddr(Addr))
    return Mem.fetchWord(Addr);
  if (isLocalAddr(Addr))
    return Mem.readLocal(Core, Addr - LocalBase, 4);
  if (isGlobalAddr(Addr)) {
    uint32_t Rel = Addr - GlobalBase;
    return Mem.readGlobal(Rel >> Cfg.GlobalBankSizeLog2,
                          Rel & (Cfg.globalBankSize() - 1), 4);
  }
  // Mirrors debugWriteWord: silently answering 0 for an unmapped
  // address hides test bugs (I/O registers are only reachable through
  // the simulated timing path).
  assert(false && "debug reads reach only code and data memory");
  return 0;
}

void Machine::debugWriteWord(uint32_t Addr, uint32_t Value, unsigned Core) {
  if (isLocalAddr(Addr)) {
    Mem.writeLocal(Core, Addr - LocalBase, Value, 4);
    return;
  }
  if (isGlobalAddr(Addr)) {
    uint32_t Rel = Addr - GlobalBase;
    Mem.writeGlobal(Rel >> Cfg.GlobalBankSizeLog2,
                    Rel & (Cfg.globalBankSize() - 1), Value, 4);
    return;
  }
  assert(false && "debug writes reach only data memory");
}

uint32_t Machine::debugReadReg(unsigned HartId, unsigned Reg) const {
  assert(Reg < NumRegs && "register index out of range");
  return hart(HartId).Regs[Reg];
}

HartState Machine::hartState(unsigned HartId) const {
  return hart(HartId).State;
}
