//===- sim/Snapshot.cpp - Deterministic machine checkpointing ---------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements Machine::saveSnapshot / restoreSnapshot and the Interp
/// pair (format documented in sim/Snapshot.h). One serializer struct —
/// SnapshotAccess — is friended into every class holding run state, so
/// the complete field inventory lives in this file and nowhere else:
/// when a header grows a new mutable field, this is the one place to
/// teach about it (and SnapshotFormatVersion the one constant to bump).
///
//===----------------------------------------------------------------------===//

#include "sim/Snapshot.h"

#include "sim/Interp.h"
#include "sim/Machine.h"
#include "support/EventHash.h"
#include "support/Serialize.h"

#include <cstring>

using namespace lbp;
using namespace lbp::sim;

const char *lbp::sim::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Exited:
    return "exited";
  case RunStatus::MaxCycles:
    return "max-cycles";
  case RunStatus::Livelock:
    return "livelock";
  case RunStatus::Fault:
    return "fault";
  case RunStatus::Deadline:
    return "deadline";
  }
  return "unknown";
}

uint64_t lbp::sim::snapshotConfigDigest(const SimConfig &Cfg) {
  // Fold every behavior-relevant field in a fixed order. Host-only
  // knobs (FastPath, RecordTrace, trace line options) are deliberately
  // absent: they select *how* the state sequence is computed, never
  // *what* it is, so a snapshot stays portable across engines.
  EventHash H;
  H.addWord(Cfg.NumCores);
  H.addWord(Cfg.GlobalBankSizeLog2);
  H.addWord(Cfg.AluLatency);
  H.addWord(Cfg.MulLatency);
  H.addWord(Cfg.DivLatency);
  H.addWord(Cfg.LocalMemLatency);
  H.addWord(Cfg.GlobalLocalPortLatency);
  H.addWord(Cfg.RouterHopLatency);
  H.addWord(Cfg.RouterLinkCapacity);
  H.addWord(Cfg.BankServiceLatency);
  H.addWord(Cfg.ForwardLinkLatency);
  H.addWord(Cfg.BackwardHopLatency);
  H.addWord(Cfg.ProgressGuard);
  H.addWord(Cfg.CollectStallStats);
  H.addWord(Cfg.CollectCounters);
  H.addWord(Cfg.CollectMemLog);
  H.addWord(Cfg.EnableCheckers);
  H.addWord(Cfg.CheckInterval);
  H.addWord(Cfg.Faults.Seed);
  H.addWord(Cfg.Faults.Drops);
  H.addWord(Cfg.Faults.Delays);
  H.addWord(Cfg.Faults.BitFlips);
  H.addWord(Cfg.Faults.StuckBanks);
  H.addWord(Cfg.Faults.WindowBegin);
  H.addWord(Cfg.Faults.WindowEnd);
  H.addWord(Cfg.Faults.MaxDelay);
  H.addWord(Cfg.Faults.StuckDuration);
  // The digest ring and the perturb fired-flag are serialized run
  // state, so their governing knobs must match on restore; PerturbForTest
  // additionally changes the hash chain itself.
  H.addWord(Cfg.DigestInterval);
  H.addWord(Cfg.DigestRingCap);
  H.addWord(Cfg.PerturbForTest);
  return H.value();
}

namespace lbp {
namespace sim {

/// The serializer. Static member functions only; friended into every
/// state-holding class. save* and restore* are strict mirrors — keep
/// them adjacent and in the same field order.
struct SnapshotAccess {
  // -- Leaf records ----------------------------------------------------

  static void saveInstr(ByteWriter &W, const isa::Instr &I) {
    W.u16(static_cast<uint16_t>(I.Op));
    W.u8(I.Rd);
    W.u8(I.Rs1);
    W.u8(I.Rs2);
    W.u32(static_cast<uint32_t>(I.Imm));
  }
  static void restoreInstr(ByteReader &R, isa::Instr &I) {
    I.Op = static_cast<isa::Opcode>(R.u16());
    I.Rd = R.u8();
    I.Rs1 = R.u8();
    I.Rs2 = R.u8();
    I.Imm = static_cast<int32_t>(R.u32());
  }

  static void saveDelivery(ByteWriter &W, const Delivery &D) {
    W.u8(static_cast<uint8_t>(D.K));
    W.u16(D.HartId);
    W.u32(D.Value);
    W.u32(D.Addr);
    W.u64(D.RespCycle);
    W.u32(D.StoreWord);
    W.u8(D.Width);
    W.u8(D.Slot);
    W.b(D.IsWrite);
    W.b(D.SignExt);
    W.b(D.CountsMem);
    W.u8(D.Parity);
  }
  static void restoreDelivery(ByteReader &R, Delivery &D) {
    D.K = static_cast<Delivery::Kind>(R.u8());
    D.HartId = R.u16();
    D.Value = R.u32();
    D.Addr = R.u32();
    D.RespCycle = R.u64();
    D.StoreWord = R.u32();
    D.Width = R.u8();
    D.Slot = R.u8();
    D.IsWrite = R.b();
    D.SignExt = R.b();
    D.CountsMem = R.b();
    D.Parity = R.u8();
  }

  static void saveHart(ByteWriter &W, const Hart &H) {
    W.u8(static_cast<uint8_t>(H.State));
    W.u64(H.StateSince);
    W.b(H.PcValid);
    W.u32(H.Pc);
    W.u64(H.NoFetchUntil);
    W.b(H.SyncmWait);
    W.b(H.IbFull);
    W.u32(H.IbWord);
    W.u32(H.IbPc);
    for (uint32_t Reg : H.Regs)
      W.u32(Reg);
    for (int8_t P : H.RegProducer)
      W.i8(P);
    // Micro-op flags and the ROB scheduling summary are derived state:
    // restoreHart recomputes them from what is saved here.
    for (const RobEntry &E : H.Rob) {
      saveInstr(W, E.I);
      W.u32(E.Pc);
      W.u8(static_cast<uint8_t>(E.State));
      for (unsigned I = 0; I != 2; ++I) {
        W.u32(E.SrcVal[I]);
        W.i8(E.SrcProducer[I]);
      }
      W.u64(E.DoneCycle);
    }
    W.u32(H.RobHead);
    W.u32(H.RobCount);
    W.b(H.RbBusy);
    W.b(H.RbReady);
    W.u64(H.RbReadyCycle);
    W.u32(H.RbValue);
    W.i8(H.RbEntry);
    W.u32(H.OutstandingMem);
    W.vecU32(H.PendingStoreWords);
    W.b(H.Token);
    for (unsigned I = 0; I != ResultSlots; ++I) {
      W.b(H.SlotFull[I]);
      W.u32(H.SlotVal[I]);
    }
    W.u64(H.SlotBacklog.size());
    for (const auto &SB : H.SlotBacklog) {
      W.u8(SB.first);
      W.u32(SB.second);
    }
    W.u64(H.Retired);
  }
  /// True when \p P names a ROB entry or is -1 ("none").
  static bool validRobRef(int8_t P) {
    return P >= -1 && P < static_cast<int>(RobEntries);
  }

  static bool restoreHart(ByteReader &R, Hart &H, std::string &Err) {
    H.State = static_cast<HartState>(R.u8());
    H.StateSince = R.u64();
    H.PcValid = R.b();
    H.Pc = R.u32();
    H.NoFetchUntil = R.u64();
    H.SyncmWait = R.b();
    H.IbFull = R.b();
    H.IbWord = R.u32();
    H.IbPc = R.u32();
    for (uint32_t &Reg : H.Regs)
      Reg = R.u32();
    bool RefsOk = true;
    for (int8_t &P : H.RegProducer) {
      P = R.i8();
      RefsOk &= validRobRef(P);
    }
    for (RobEntry &E : H.Rob) {
      restoreInstr(R, E.I);
      E.Pc = R.u32();
      uint8_t St = R.u8();
      RefsOk &= St <= static_cast<uint8_t>(RobEntry::St::Done) &&
                static_cast<unsigned>(E.I.Op) <
                    static_cast<unsigned>(isa::Opcode::NumOpcodes) &&
                E.I.Rd < 32 && E.I.Rs1 < 32 && E.I.Rs2 < 32;
      E.State = static_cast<RobEntry::St>(St);
      for (unsigned I = 0; I != 2; ++I) {
        E.SrcVal[I] = R.u32();
        E.SrcProducer[I] = R.i8();
        RefsOk &= validRobRef(E.SrcProducer[I]);
      }
      E.DoneCycle = R.u64();
    }
    uint32_t Head = R.u32();
    uint32_t Count = R.u32();
    H.RbBusy = R.b();
    H.RbReady = R.b();
    H.RbReadyCycle = R.u64();
    H.RbValue = R.u32();
    H.RbEntry = R.i8();
    RefsOk &= Head < RobEntries && Count <= RobEntries &&
              validRobRef(H.RbEntry) && (!H.RbBusy || H.RbEntry >= 0);
    if (R.ok() && !RefsOk) {
      Err = "snapshot: hart reorder-buffer state out of range";
      return false;
    }
    H.RobHead = static_cast<uint8_t>(Head);
    H.RobCount = static_cast<uint8_t>(Count);
    H.OutstandingMem = R.u32();
    H.PendingStoreWords = R.vecU32();
    H.Token = R.b();
    for (unsigned I = 0; I != ResultSlots; ++I) {
      H.SlotFull[I] = R.b();
      H.SlotVal[I] = R.u32();
    }
    H.SlotBacklog.clear();
    uint64_t N = R.u64();
    H.SlotBacklog.reserve(R.ok() ? N : 0);
    for (uint64_t I = 0; I != N && R.ok(); ++I) {
      uint8_t Slot = R.u8();
      uint32_t Val = R.u32();
      H.SlotBacklog.emplace_back(Slot, Val);
    }
    H.Retired = R.u64();
    if (!R.ok())
      return false;

    // Derived state: the flags follow from each instruction, the
    // scheduling summary from the ROB.
    for (RobEntry &E : H.Rob)
      E.Flags = microOpFlags(E.I);
    H.Sched = H.summarizeRob();
    return true;
  }

  // -- Subsystems ------------------------------------------------------

  /// True when the \p N bytes at \p P are all zero.
  static bool allZero(const uint8_t *P, size_t N) {
    uint64_t Or = 0;
    for (size_t I = 0; I != N; I += 8) {
      uint64_t Word;
      std::memcpy(&Word, P + I, 8);
      Or |= Word;
    }
    return Or == 0;
  }

  static void saveMemory(ByteWriter &W, const MemorySystem &M) {
    W.vecU8(M.Code);
    // The bank store's nonzero blocks, ascending. Only a written page
    // can hold one, so the written-page bitmap bounds the scan; which
    // blocks are emitted depends on the store's contents alone.
    static_assert(MemorySystem::PageBytes % SnapshotBlockBytes == 0,
                  "a page holds whole blocks");
    constexpr size_t PerPage = MemorySystem::PageBytes / SnapshotBlockBytes;
    const uint8_t *Store = M.Store.get();
    std::vector<uint32_t> Blocks;
    for (size_t Word = 0; Word != M.Written.size(); ++Word)
      for (uint64_t Bits = M.Written[Word]; Bits != 0; Bits &= Bits - 1) {
        size_t First = (Word * 64 + __builtin_ctzll(Bits)) * PerPage;
        for (size_t B = First; B != First + PerPage; ++B)
          if (!allZero(Store + B * SnapshotBlockBytes, SnapshotBlockBytes))
            Blocks.push_back(static_cast<uint32_t>(B));
      }
    W.u64(Blocks.size());
    for (uint32_t B : Blocks)
      W.u32(B);
    for (uint32_t B : Blocks)
      W.bytes(Store + static_cast<size_t>(B) * SnapshotBlockBytes,
              SnapshotBlockBytes);
  }
  static bool restoreMemory(ByteReader &R, MemorySystem &M,
                            std::string &Err) {
    M.Code = R.vecU8();
    uint64_t Count = R.u64();
    if (!R.ok())
      return false;
    // Everything is validated before the first byte is copied.
    const uint64_t NumBlocks = M.storeBytes() / SnapshotBlockBytes;
    if (Count > NumBlocks) {
      Err = "snapshot: memory block count exceeds the bank store";
      return false;
    }
    if (R.remaining() < Count * (4 + SnapshotBlockBytes)) {
      Err = "snapshot: memory section truncated (its blocks run past the "
            "end of the blob)";
      return false;
    }
    std::vector<uint32_t> Blocks(Count);
    for (uint32_t &B : Blocks)
      B = R.u32();
    for (size_t I = 0; I != Blocks.size(); ++I) {
      if (Blocks[I] >= NumBlocks) {
        Err = "snapshot: memory block index out of range";
        return false;
      }
      if (I != 0 && Blocks[I] <= Blocks[I - 1]) {
        Err = "snapshot: memory block indices not strictly ascending";
        return false;
      }
    }

    // Clear every page this machine has written, then lay the blocks in.
    uint8_t *Store = M.Store.get();
    for (size_t Word = 0; Word != M.Written.size(); ++Word) {
      for (uint64_t Bits = M.Written[Word]; Bits != 0; Bits &= Bits - 1)
        std::memset(Store + (Word * 64 + __builtin_ctzll(Bits)) *
                                MemorySystem::PageBytes,
                    0, MemorySystem::PageBytes);
      M.Written[Word] = 0;
    }
    for (uint32_t B : Blocks) {
      size_t At = static_cast<size_t>(B) * SnapshotBlockBytes;
      R.bytes(Store + At, SnapshotBlockBytes);
      M.markWritten(At);
    }
    return R.ok();
  }

  static void saveInterconnect(ByteWriter &W, const Interconnect &N) {
    W.vecU64(N.CoreUp);
    W.vecU64(N.CoreDown);
    W.vecU64(N.BankIn);
    W.vecU64(N.BankOut);
    W.vecU64(N.BankPort);
    W.vecU64(N.R1UpReq);
    W.vecU64(N.R1UpResp);
    W.vecU64(N.R1DownReq);
    W.vecU64(N.R1DownResp);
    W.vecU64(N.R2UpReq);
    W.vecU64(N.R2UpResp);
    W.vecU64(N.R2DownReq);
    W.vecU64(N.R2DownResp);
    W.vecU64(N.Forward);
    W.vecU64(N.Backward);
    W.u64(N.IoPort);
    W.u64(N.Contention);
    W.vecU64(N.FwdCount);
    W.vecU64(N.BwdCount);
    W.vecU64(N.BankReqs);
    W.vecU64(N.BankWait);
    for (uint64_t C : N.ContByClass)
      W.u64(C);
  }
  static bool restoreVecU64(ByteReader &R, std::vector<uint64_t> &Out,
                            std::string &Err, const char *What) {
    std::vector<uint64_t> V = R.vecU64();
    if (V.size() != Out.size()) {
      Err = std::string("snapshot: size mismatch in ") + What;
      return false;
    }
    Out = std::move(V);
    return true;
  }
  static bool restoreInterconnect(ByteReader &R, Interconnect &N,
                                  std::string &Err) {
    std::vector<uint64_t> *Fields[] = {
        &N.CoreUp,     &N.CoreDown,   &N.BankIn,   &N.BankOut,
        &N.BankPort,   &N.R1UpReq,    &N.R1UpResp, &N.R1DownReq,
        &N.R1DownResp, &N.R2UpReq,    &N.R2UpResp, &N.R2DownReq,
        &N.R2DownResp, &N.Forward,    &N.Backward};
    for (std::vector<uint64_t> *F : Fields)
      if (!restoreVecU64(R, *F, Err, "interconnect reservations"))
        return false;
    N.IoPort = R.u64();
    N.Contention = R.u64();
    if (!restoreVecU64(R, N.FwdCount, Err, "interconnect counters") ||
        !restoreVecU64(R, N.BwdCount, Err, "interconnect counters") ||
        !restoreVecU64(R, N.BankReqs, Err, "interconnect counters") ||
        !restoreVecU64(R, N.BankWait, Err, "interconnect counters"))
      return false;
    for (uint64_t &C : N.ContByClass)
      C = R.u64();
    return R.ok();
  }

  static void saveChecker(ByteWriter &W, const Checker &C) {
    W.u64(C.Checks.size());
    for (const MachineCheck &MC : C.Checks) {
      W.u64(MC.Cycle);
      W.u32(MC.Core);
      W.u32(MC.Hart);
      W.u8(static_cast<uint8_t>(MC.Kind));
      W.str(MC.Message);
    }
    W.u64(C.PendingDeliveries);
    W.u64(C.TokensInFlight);
    W.u64(C.SweepCount);
  }
  static void restoreChecker(ByteReader &R, Checker &C) {
    C.Checks.clear();
    uint64_t N = R.u64();
    for (uint64_t I = 0; I != N && R.ok(); ++I) {
      MachineCheck MC;
      MC.Cycle = R.u64();
      MC.Core = R.u32();
      MC.Hart = R.u32();
      MC.Kind = static_cast<CheckKind>(R.u8());
      MC.Message = R.str();
      C.Checks.push_back(std::move(MC));
    }
    C.PendingDeliveries = R.u64();
    C.TokensInFlight = R.u64();
    C.SweepCount = R.u64();
  }

  static void saveFaultCursor(ByteWriter &W, const FaultPlan &P) {
    // The plan itself is a pure function of the config (seeded draw at
    // construction); only the fired cursor is run state.
    W.u64(P.Events.size());
    for (const FaultEvent &E : P.Events) {
      W.b(E.Fired);
      W.u64(E.FiredCycle);
    }
  }
  static bool restoreFaultCursor(ByteReader &R, FaultPlan &P,
                                 std::string &Err) {
    uint64_t N = R.u64();
    if (N != P.Events.size()) {
      Err = "snapshot: fault plan event count mismatch";
      return false;
    }
    for (FaultEvent &E : P.Events) {
      E.Fired = R.b();
      E.FiredCycle = R.u64();
    }
    return R.ok();
  }

  static void saveTraceDigests(ByteWriter &W, const Trace &T) {
    // v3 section: digest/perturb run state, adjacent to the hash it
    // extends. Interval and ring capacity are config (folded into the
    // config digest), so only the evolving state is serialized.
    W.b(T.perturbFired());
    W.u64(T.digestNextBoundary());
    W.u64(T.digestCount());
    std::vector<TraceDigest> Entries = T.digestEntries();
    W.u64(Entries.size());
    for (const TraceDigest &D : Entries) {
      W.u64(D.Boundary);
      W.u64(D.Hash);
    }
  }
  static bool restoreTraceDigests(ByteReader &R, Trace &T,
                                  std::string &Err) {
    bool Fired = R.b();
    uint64_t NextBoundary = R.u64();
    uint64_t Total = R.u64();
    uint64_t N = R.u64();
    if (N > Total || (T.digestRingCap() != 0 && N > T.digestRingCap())) {
      Err = "snapshot: digest ring larger than its declared capacity";
      return false;
    }
    std::vector<TraceDigest> Entries;
    Entries.reserve(R.ok() ? N : 0);
    for (uint64_t I = 0; I != N && R.ok(); ++I) {
      TraceDigest D;
      D.Boundary = R.u64();
      D.Hash = R.u64();
      Entries.push_back(D);
    }
    T.restoreDigestState(NextBoundary, Total, Entries, Fired);
    return R.ok();
  }

  static void saveCounters(ByteWriter &W, const obs::PerfCounters *C) {
    W.b(C != nullptr);
    if (!C)
      return;
    W.vecU64(C->CommitsPerCore);
    W.vecU64(C->CommitsPerHart);
    W.vecU64(C->BankReads);
    W.vecU64(C->BankWrites);
    W.u64(C->LocalReads);
    W.u64(C->LocalWrites);
    W.u64(C->IoReads);
    W.u64(C->IoWrites);
    W.u64(C->Forks);
    W.u64(C->HartStarts);
    W.u64(C->HartEnds);
    W.u64(C->TokenPasses);
    W.u64(C->Joins);
    for (uint64_t B : C->TokenLatency.Buckets)
      W.u64(B);
    W.u64(C->TokenLatency.Count);
    W.u64(C->TokenLatency.Sum);
    W.u64(C->TokenLatency.Max);
    W.u64(C->FaultsInjected);
    W.u64(C->MachineChecks);
    W.vecU32(C->RobHigh);
    W.vecU32(C->SlotHigh);
    W.vecU64(C->TokenSendCycle);
  }
  static bool restoreCounters(ByteReader &R, obs::PerfCounters *C,
                              std::string &Err) {
    bool Present = R.b();
    if (Present != (C != nullptr)) {
      Err = "snapshot: counter presence mismatch";
      return false;
    }
    if (!C)
      return true;
    C->CommitsPerCore = R.vecU64();
    C->CommitsPerHart = R.vecU64();
    C->BankReads = R.vecU64();
    C->BankWrites = R.vecU64();
    C->LocalReads = R.u64();
    C->LocalWrites = R.u64();
    C->IoReads = R.u64();
    C->IoWrites = R.u64();
    C->Forks = R.u64();
    C->HartStarts = R.u64();
    C->HartEnds = R.u64();
    C->TokenPasses = R.u64();
    C->Joins = R.u64();
    for (uint64_t &B : C->TokenLatency.Buckets)
      B = R.u64();
    C->TokenLatency.Count = R.u64();
    C->TokenLatency.Sum = R.u64();
    C->TokenLatency.Max = R.u64();
    C->FaultsInjected = R.u64();
    C->MachineChecks = R.u64();
    C->RobHigh = R.vecU32();
    C->SlotHigh = R.vecU32();
    C->TokenSendCycle = R.vecU64();
    return R.ok();
  }

  // -- Whole machine ---------------------------------------------------

  static void save(const Machine &M, ByteWriter &W) {
    W.u32(SnapshotMagic);
    W.u32(SnapshotFormatVersion);
    W.u64(snapshotConfigDigest(M.Cfg));

    saveMemory(W, M.Mem);
    saveInterconnect(W, M.Net);

    W.u64(M.Cores.size());
    for (size_t CoreId = 0; CoreId != M.Cores.size(); ++CoreId) {
      const Core &C = M.Cores[CoreId];
      for (const Hart &H : C.Harts)
        saveHart(W, H);
      W.u8(C.FetchRR);
      W.u8(C.DecodeRR);
      W.u8(C.IssueRR);
      W.u8(C.WbRR);
      W.u8(C.CommitRR);
      W.u8(C.AllocRR);
      W.u64(M.CoreWake[CoreId]); // per-core sleep cycle (Machine.h)
    }

    // Delivery wheel, sparse: only non-empty slots. The slot index is
    // the absolute-cycle residue; since Cycle is restored too, verbatim
    // slot contents land exactly where collectDue() will look.
    uint64_t NonEmpty = 0;
    for (const auto &Slot : M.Wheel)
      if (!Slot.empty())
        ++NonEmpty;
    W.u64(NonEmpty);
    for (uint64_t S = 0; S != Machine::WheelSize; ++S) {
      const auto &Slot = M.Wheel[S];
      if (Slot.empty())
        continue;
      W.u64(S);
      W.u64(Slot.size());
      for (const Delivery &D : Slot)
        saveDelivery(W, D);
    }
    // Overflow heap verbatim (array order preserves the heap layout and
    // with it the exact pop sequence).
    W.u64(M.Overflow.size());
    for (const Machine::OverflowEntry &E : M.Overflow) {
      W.u64(E.At);
      W.u64(E.Seq);
      saveDelivery(W, E.D);
    }
    W.u64(M.OverflowSeq);
    W.u64(M.WheelCount);

    W.u64(M.Cycle);
    W.u64(M.LastProgress);
    W.u8(static_cast<uint8_t>(M.Status));
    W.b(M.Halted);
    W.str(M.FaultMsg);
    W.u64(M.TotalRetired);
    W.u64(M.JoinEpoch);
    W.b(M.Hart0InTeam);
    W.u64(M.RemoteAccesses);
    W.u64(M.LocalAccesses);
    W.vecU64(M.StallByCore);
    W.u64(M.MemLog.size());
    for (const Machine::MemAccess &A : M.MemLog) {
      W.u64(A.Cycle);
      W.u64(A.Epoch);
      W.u16(A.Hart);
      W.u32(A.Addr);
      W.u8(A.Width);
      W.b(A.IsWrite);
      W.b(A.InTeam);
    }

    saveFaultCursor(W, M.FPlan);
    saveChecker(W, M.Ck);
    W.u64(M.Tr.hash());
    saveTraceDigests(W, M.Tr);
    saveCounters(W, M.Obs.get());

    // Devices: length-prefixed so a size-mismatched restore fails
    // cleanly instead of desynchronizing the stream.
    W.u64(M.Devices.size());
    for (const Machine::DeviceMapping &DM : M.Devices) {
      ByteWriter DevW;
      DM.Dev->saveState(DevW);
      W.vecU8(DevW.buffer());
    }

    W.u32(SnapshotTrailer);
  }

  static bool restore(Machine &M, ByteReader &R, std::string &Err) {
    if (R.u32() != SnapshotMagic) {
      Err = "snapshot: bad magic";
      return false;
    }
    uint32_t Version = R.u32();
    if (Version != SnapshotFormatVersion) {
      Err = "snapshot: format version " + std::to_string(Version) +
            " (expected " + std::to_string(SnapshotFormatVersion) + ")";
      return false;
    }
    if (R.u64() != snapshotConfigDigest(M.Cfg)) {
      Err = "snapshot: config digest mismatch (the restoring machine "
            "must be constructed with a behaviorally identical config)";
      return false;
    }

    if (!restoreMemory(R, M.Mem, Err) || !restoreInterconnect(R, M.Net, Err))
      return false;

    if (R.u64() != M.Cores.size()) {
      Err = "snapshot: core count mismatch";
      return false;
    }
    for (size_t CoreId = 0; CoreId != M.Cores.size(); ++CoreId) {
      Core &C = M.Cores[CoreId];
      for (Hart &H : C.Harts)
        if (!restoreHart(R, H, Err)) {
          if (Err.empty())
            Err = "snapshot: truncated hart record";
          return false;
        }
      C.FetchRR = R.u8();
      C.DecodeRR = R.u8();
      C.IssueRR = R.u8();
      C.WbRR = R.u8();
      C.CommitRR = R.u8();
      C.AllocRR = R.u8();
      M.CoreWake[CoreId] = R.u64();
    }

    for (auto &Slot : M.Wheel)
      Slot.clear();
    uint64_t NonEmpty = R.u64();
    for (uint64_t I = 0; I != NonEmpty && R.ok(); ++I) {
      uint64_t S = R.u64();
      if (S >= Machine::WheelSize) {
        Err = "snapshot: wheel slot index out of range";
        return false;
      }
      uint64_t N = R.u64();
      auto &Slot = M.Wheel[S];
      Slot.resize(N);
      for (Delivery &D : Slot)
        restoreDelivery(R, D);
    }
    uint64_t NOverflow = R.u64();
    M.Overflow.clear();
    M.Overflow.reserve(R.ok() ? NOverflow : 0);
    for (uint64_t I = 0; I != NOverflow && R.ok(); ++I) {
      Machine::OverflowEntry E;
      E.At = R.u64();
      E.Seq = R.u64();
      restoreDelivery(R, E.D);
      M.Overflow.push_back(E);
    }
    M.OverflowSeq = R.u64();
    M.WheelCount = R.u64();
    M.DueBuf.clear(); // per-cycle scratch, empty between cycles

    M.Cycle = R.u64();
    M.LastProgress = R.u64();
    uint8_t St = R.u8();
    if (St > static_cast<uint8_t>(RunStatus::Deadline)) {
      Err = "snapshot: invalid run status";
      return false;
    }
    M.Status = static_cast<RunStatus>(St);
    M.Halted = R.b();
    M.FaultMsg = R.str();
    M.TotalRetired = R.u64();
    M.JoinEpoch = R.u64();
    M.Hart0InTeam = R.b();
    M.RemoteAccesses = R.u64();
    M.LocalAccesses = R.u64();
    if (!restoreVecU64(R, M.StallByCore, Err, "stall tallies"))
      return false;
    uint64_t NLog = R.u64();
    M.MemLog.clear();
    M.MemLog.reserve(R.ok() ? NLog : 0);
    for (uint64_t I = 0; I != NLog && R.ok(); ++I) {
      Machine::MemAccess A;
      A.Cycle = R.u64();
      A.Epoch = R.u64();
      A.Hart = R.u16();
      A.Addr = R.u32();
      A.Width = R.u8();
      A.IsWrite = R.b();
      A.InTeam = R.b();
      M.MemLog.push_back(A);
    }

    if (!restoreFaultCursor(R, M.FPlan, Err))
      return false;
    restoreChecker(R, M.Ck);
    M.Tr.restoreHash(R.u64());
    if (!restoreTraceDigests(R, M.Tr, Err))
      return false;
    if (!restoreCounters(R, M.Obs.get(), Err))
      return false;

    uint64_t NDev = R.u64();
    if (NDev != M.Devices.size()) {
      Err = "snapshot: device count mismatch (add the same devices in "
            "the same order before restoring)";
      return false;
    }
    for (Machine::DeviceMapping &DM : M.Devices) {
      std::vector<uint8_t> Blob = R.vecU8();
      ByteReader DevR(Blob);
      DM.Dev->restoreState(DevR);
      if (!DevR.ok()) {
        Err = "snapshot: device state truncated";
        return false;
      }
    }

    if (R.u32() != SnapshotTrailer || !R.ok()) {
      Err = "snapshot: truncated or trailing-garbage blob";
      return false;
    }

    // Derived state. The awake and timer sets follow from CoreWake and
    // Cycle. The pre-decoded text cache mirrors the code image; the
    // reference engine never reads it, so it is cleared there.
    M.rebuildAwakeSet();
    if (M.FastRun)
      M.predecodeText();
    else
      M.DecodedText.clear();
    return true;
  }
};

} // namespace sim
} // namespace lbp

void Machine::saveSnapshot(std::vector<uint8_t> &Out) const {
  ByteWriter W;
  SnapshotAccess::save(*this, W);
  Out = W.take();
}

bool Machine::restoreSnapshot(const std::vector<uint8_t> &Blob,
                              std::string &Err) {
  ByteReader R(Blob);
  return SnapshotAccess::restore(*this, R, Err);
}

//===----------------------------------------------------------------------===//
// Interp checkpointing
//===----------------------------------------------------------------------===//

void Interp::saveSnapshot(std::vector<uint8_t> &Out) const {
  ByteWriter W;
  W.u32(SnapshotMagic);
  W.u32(SnapshotFormatVersion);
  W.u32(Pc);
  for (uint32_t Reg : Regs)
    W.u32(Reg);
  W.u64(Steps);
  for (uint32_t M : Mailbox)
    W.u32(M);
  W.u64(Pages.size());
  for (const auto &P : Pages) {
    W.u32(P->Base);
    for (uint32_t Word : P->Words)
      W.u32(Word);
    for (uint64_t B : P->Written)
      W.u64(B);
  }
  W.u32(SnapshotTrailer);
  Out = W.take();
}

bool Interp::restoreSnapshot(const std::vector<uint8_t> &Blob,
                             std::string &Err) {
  ByteReader R(Blob);
  if (R.u32() != SnapshotMagic) {
    Err = "snapshot: bad magic";
    return false;
  }
  if (R.u32() != SnapshotFormatVersion) {
    Err = "snapshot: format version mismatch";
    return false;
  }
  Pc = R.u32();
  for (uint32_t &Reg : Regs)
    Reg = R.u32();
  Steps = R.u64();
  for (uint32_t &M : Mailbox)
    M = R.u32();
  uint64_t N = R.u64();
  Pages.clear();
  LastPage = nullptr; // memoized pointer into the old page set
  Pages.reserve(R.ok() ? N : 0);
  for (uint64_t I = 0; I != N && R.ok(); ++I) {
    auto P = std::make_unique<Page>();
    P->Base = R.u32();
    for (uint32_t &Word : P->Words)
      Word = R.u32();
    for (uint64_t &B : P->Written)
      B = R.u64();
    Pages.push_back(std::move(P)); // written in sorted order
  }
  if (R.u32() != SnapshotTrailer || !R.ok()) {
    Err = "snapshot: truncated blob";
    return false;
  }
  return true;
}
