//===- sim/Snapshot.cpp - Deterministic machine checkpointing ---------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements Machine::saveSnapshot / restoreSnapshot (format
/// documented in sim/Snapshot.h). One serializer struct —
/// SnapshotAccess — is friended into every class holding run state, so
/// the complete field inventory lives in this file and nowhere else.
/// Each record is described once, over the symmetric archive of
/// support/Serialize.h: the same description writes the blob on save
/// and reads and checks it on restore. When a header grows a new
/// mutable field, its record is the one place to teach about it (and
/// SnapshotFormatVersion the one constant to bump).
///
//===----------------------------------------------------------------------===//

#include "sim/Snapshot.h"

#include "sim/Machine.h"
#include "support/EventHash.h"
#include "support/Serialize.h"

#include <algorithm>
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
  // Fold every behavior-relevant field in a fixed order. The host-only
  // FastPath is deliberately absent: it selects *how* the state
  // sequence is computed, never *what* it is, so a snapshot stays
  // portable across engines.
  EventHash H;
  H.addWord(Cfg.NumCores);
  H.addWord(Cfg.GlobalBankSizeLog2);
  H.addWord(Cfg.RouterHopLatency);
  H.addWord(Cfg.RouterLinkCapacity);
  H.addWord(Cfg.ProgressGuard);
  H.addWord(Cfg.CollectStallStats);
  H.addWord(Cfg.CollectCounters);
  H.addWord(Cfg.CollectMemLog);
  H.addWord(Cfg.EnableCheckers);
  H.addWord(Cfg.Faults.Seed);
  H.addWord(Cfg.Faults.Drops);
  H.addWord(Cfg.Faults.Delays);
  H.addWord(Cfg.Faults.BitFlips);
  H.addWord(Cfg.Faults.StuckBanks);
  H.addWord(Cfg.Faults.WindowBegin);
  H.addWord(Cfg.Faults.WindowEnd);
  H.addWord(Cfg.Faults.MaxDelay);
  H.addWord(Cfg.Faults.StuckDuration);
  // PerturbForTest changes the hash chain, and its fired-flag is
  // serialized run state.
  H.addWord(Cfg.PerturbForTest);
  return H.value();
}

namespace lbp {
namespace sim {

/// The serializer. Static member templates only, each run with an
/// ArchiveWriter on save and an ArchiveReader on restore. Besides
/// handing restored values to the trace's setters, only the sparse
/// sections (the bank store and the delivery wheel) branch on the
/// direction: save scans for what to write, restore checks what it
/// reads before it clears and fills.
struct SnapshotAccess {
  static constexpr const char *RobRange =
      "hart reorder-buffer state out of range";
  static constexpr isa::Opcode LastOpcode = static_cast<isa::Opcode>(
      static_cast<unsigned>(isa::Opcode::NumOpcodes) - 1);

  /// A ROB index, or -1 for "none".
  template <class Ar, class T> static void robRef(Ar &A, T &P) {
    A.u8(P);
    A.check(P >= -1 && P < static_cast<int>(RobEntries), RobRange);
  }

  /// A delivery on its way to one of \p NumHarts harts. deliver()
  /// switches on the kind and indexes by the target, the slot and the
  /// width before the checker sees the parity.
  template <class Ar, class T>
  static void delivery(Ar &A, T &D, unsigned NumHarts) {
    const char *Range = "delivery record out of range";
    A.u8(D.K, Delivery::Kind::SlotFill, Range);
    A.u16(D.HartId);
    A.check(D.HartId < NumHarts, Range);
    A.u32(D.Value);
    A.u32(D.Addr);
    A.u64(D.RespCycle);
    A.u32(D.StoreWord);
    A.u8(D.Width, 4, Range);
    A.u8(D.Slot, ResultSlots - 1, Range);
    A.u8(D.IsWrite);
    A.u8(D.SignExt);
    A.u8(D.CountsMem);
    A.u8(D.Parity);
  }

  template <class Ar, class H> static void hart(Ar &A, H &X) {
    A.u8(X.State, HartState::WaitingJoin, "hart state out of range");
    A.u64(X.StateSince);
    A.u8(X.PcValid);
    A.u32(X.Pc);
    A.u64(X.NoFetchUntil);
    A.u8(X.SyncmWait);
    A.u8(X.IbFull);
    A.u32(X.IbWord);
    A.u32(X.IbPc);
    for (auto &Reg : X.Regs)
      A.u32(Reg);
    for (auto &P : X.RegProducer)
      robRef(A, P);
    // Micro-op flags and the ROB scheduling summary are derived state,
    // rebuilt from these fields after a restore.
    for (auto &E : X.Rob) {
      A.u16(E.I.Op, LastOpcode, RobRange);
      A.u8(E.I.Rd, 31, RobRange);
      A.u8(E.I.Rs1, 31, RobRange);
      A.u8(E.I.Rs2, 31, RobRange);
      A.u32(E.I.Imm);
      A.u32(E.Pc);
      A.u8(E.State, RobEntry::St::Done, RobRange);
      for (unsigned I = 0; I != 2; ++I) {
        A.u32(E.SrcVal[I]);
        robRef(A, E.SrcProducer[I]);
      }
      A.u64(E.DoneCycle);
    }
    A.u32(X.RobHead, RobEntries - 1, RobRange);
    A.u32(X.RobCount, RobEntries, RobRange);
    A.u8(X.RbBusy);
    A.u8(X.RbReady);
    A.u64(X.RbReadyCycle);
    A.u32(X.RbValue);
    robRef(A, X.RbEntry);
    A.check(!X.RbBusy || X.RbEntry >= 0, RobRange);
    A.u32(X.OutstandingMem);
    A.seq(X.PendingStoreWords, AsU32);
    A.u8(X.Token);
    for (unsigned I = 0; I != ResultSlots; ++I) {
      A.u8(X.SlotFull[I]);
      A.u32(X.SlotVal[I]);
    }
    A.seq(X.SlotBacklog, [](auto &A, auto &SB) {
      A.u8(SB.first);
      A.u32(SB.second);
    });
    A.u64(X.Retired);
  }

  // -- Subsystems ------------------------------------------------------

  /// Calls \p F with the index of every page \p M has written.
  template <class MS, class Fn> static void writtenPages(MS &M, Fn F) {
    for (size_t Word = 0; Word != M.Written.size(); ++Word)
      for (uint64_t Bits = M.Written[Word]; Bits != 0; Bits &= Bits - 1)
        F(Word * 64 + __builtin_ctzll(Bits));
  }

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

  /// The code image, then the bank store's nonzero blocks: u64 count,
  /// the block indices (strictly ascending), the blocks.
  template <class Ar, class MS> static void memory(Ar &A, MS &M) {
    static_assert(MemorySystem::PageBytes % SnapshotBlockBytes == 0,
                  "a page holds whole blocks");
    constexpr size_t PerPage = MemorySystem::PageBytes / SnapshotBlockBytes;
    A.bytes(M.Code);
    const uint64_t NumBlocks = M.storeBytes() / SnapshotBlockBytes;
    uint8_t *Store = M.Store.get();
    std::vector<uint32_t> Blocks;
    if constexpr (!Ar::Loading) {
      // Only a written page can hold a nonzero block, so the
      // written-page bitmap bounds the scan; which blocks are emitted
      // depends on the store's contents alone.
      writtenPages(M, [&](size_t Page) {
        for (size_t B = Page * PerPage; B != (Page + 1) * PerPage; ++B)
          if (!allZero(Store + B * SnapshotBlockBytes, SnapshotBlockBytes))
            Blocks.push_back(static_cast<uint32_t>(B));
      });
    }
    uint64_t Count = Blocks.size();
    A.u64(Count);
    if constexpr (Ar::Loading) {
      // Everything is validated before the first byte is copied.
      if (!A.check(Count <= NumBlocks,
                   "memory block count exceeds the bank store") ||
          !A.check(A.remaining() / (4 + SnapshotBlockBytes) >= Count,
                   "memory section truncated (its blocks run past the end "
                   "of the blob)"))
        return;
      Blocks.resize(Count);
    }
    for (uint32_t &B : Blocks)
      A.u32(B);
    if constexpr (Ar::Loading) {
      for (size_t I = 0; I != Blocks.size(); ++I)
        if (!A.check(Blocks[I] < NumBlocks,
                     "memory block index out of range") ||
            !A.check(I == 0 || Blocks[I] > Blocks[I - 1],
                     "memory block indices not strictly ascending"))
          return;
      // Clear every page this machine has written, then lay the blocks
      // in.
      writtenPages(M, [&](size_t Page) {
        std::memset(Store + Page * MemorySystem::PageBytes, 0,
                    MemorySystem::PageBytes);
      });
      std::fill(M.Written.begin(), M.Written.end(), 0);
    }
    for (uint32_t B : Blocks) {
      size_t At = static_cast<size_t>(B) * SnapshotBlockBytes;
      A.raw(Store + At, SnapshotBlockBytes);
      if constexpr (Ar::Loading)
        M.markWritten(At);
    }
  }

  template <class Ar, class N> static void interconnect(Ar &A, N &Net) {
    for (auto *V : {&Net.CoreUp, &Net.CoreDown, &Net.BankIn, &Net.BankOut,
                    &Net.BankPort, &Net.R1UpReq, &Net.R1UpResp,
                    &Net.R1DownReq, &Net.R1DownResp, &Net.R2UpReq,
                    &Net.R2UpResp, &Net.R2DownReq, &Net.R2DownResp,
                    &Net.Forward, &Net.Backward})
      A.fixedSeq(*V, "size mismatch in interconnect reservations", AsU64);
    A.u64(Net.IoPort);
    A.u64(Net.Contention);
    for (auto *V : {&Net.FwdCount, &Net.BwdCount, &Net.BankReqs,
                    &Net.BankWait})
      A.fixedSeq(*V, "size mismatch in interconnect counters", AsU64);
    for (auto &C : Net.ContByClass)
      A.u64(C);
  }

  /// The delivery wheel, sparse: u64 count of busy slots, then per slot
  /// (ascending) its index and its deliveries in arrival order. The
  /// index is the absolute-cycle residue; since Cycle is restored too,
  /// each slot's list lands exactly where collectDue() will look.
  /// Restore refuses slot indices that do not strictly ascend, so no
  /// slot can be listed twice.
  template <class Ar, class M> static void wheel(Ar &A, M &X) {
    unsigned NumHarts = X.Cfg.numHarts();
    std::vector<Delivery> Slot;
    auto Deliveries = [&](auto &A) {
      A.seq(Slot, [NumHarts](auto &A, auto &D) { delivery(A, D, NumHarts); });
    };
    if constexpr (Ar::Loading) {
      X.clearWheel();
      uint64_t Busy = A.count(16); // slot index + delivery count
      for (uint64_t I = 0, Prev = 0; I != Busy; ++I) {
        uint64_t S = 0;
        A.u64(S);
        if (!A.check(S < Machine::WheelSize,
                     "wheel slot index out of range") ||
            !A.check(I == 0 || S > Prev,
                     "wheel slot indices not strictly ascending"))
          return;
        Prev = S;
        Deliveries(A);
        for (const Delivery &D : Slot)
          X.wheelAppend(S, D);
      }
    } else {
      uint64_t Busy = 0;
      X.forEachBusySlot([&](uint64_t) { ++Busy; });
      A.u64(Busy);
      X.forEachBusySlot([&](uint64_t S) {
        Slot.clear();
        X.forEachInSlot(S, [&](const Delivery &D) { Slot.push_back(D); });
        A.u64(S);
        Deliveries(A);
      });
    }
  }

  template <class Ar, class C> static void checker(Ar &A, C &Ck) {
    A.seq(Ck.Checks, [](auto &A, auto &MC) {
      A.u64(MC.Cycle);
      A.u32(MC.Core);
      A.u32(MC.Hart);
      A.u8(MC.Kind, CheckKind::SchedulePast,
           "machine check kind out of range");
      A.bytes(MC.Message);
    });
    A.u64(Ck.PendingDeliveries);
    A.u64(Ck.TokensInFlight);
    A.u64(Ck.SweepCount);
  }

  /// The trace hash and whether the perturb event has fired.
  template <class Ar, class T> static void trace(Ar &A, T &Tr) {
    uint64_t Hash = Tr.hash();
    bool Fired = Tr.perturbFired();
    A.u64(Hash);
    A.u8(Fired);
    if constexpr (Ar::Loading)
      if (A.ok())
        Tr.restore(Hash, Fired);
  }

  template <class Ar, class PC> static void counters(Ar &A, PC *C) {
    bool Present = C != nullptr;
    A.u8(Present);
    if (!A.check(Present == (C != nullptr), "counter presence mismatch") ||
        !C)
      return;
    const char *Size = "size mismatch in perf counters";
    A.fixedSeq(C->CommitsPerCore, Size, AsU64);
    A.fixedSeq(C->CommitsPerHart, Size, AsU64);
    A.fixedSeq(C->BankReads, Size, AsU64);
    A.fixedSeq(C->BankWrites, Size, AsU64);
    A.u64(C->LocalReads);
    A.u64(C->LocalWrites);
    A.u64(C->IoReads);
    A.u64(C->IoWrites);
    A.u64(C->Forks);
    A.u64(C->HartStarts);
    A.u64(C->HartEnds);
    A.u64(C->TokenPasses);
    A.u64(C->Joins);
    for (auto &B : C->TokenLatency.Buckets)
      A.u64(B);
    A.u64(C->TokenLatency.Count);
    A.u64(C->TokenLatency.Sum);
    A.u64(C->TokenLatency.Max);
    A.u64(C->FaultsInjected);
    A.u64(C->MachineChecks);
    A.fixedSeq(C->RobHigh, Size, AsU32);
    A.fixedSeq(C->SlotHigh, Size, AsU32);
    A.fixedSeq(C->TokenSendCycle, Size, AsU64);
  }

  // -- Whole blobs -----------------------------------------------------

  /// The 'LBPS' magic and the format version.
  template <class Ar> static void header(Ar &A) {
    A.expect(SnapshotMagic, "bad magic");
    uint32_t Version = SnapshotFormatVersion;
    A.u32(Version);
    if (A.ok() && Version != SnapshotFormatVersion)
      A.fail("format version " + std::to_string(Version) + " (expected " +
             std::to_string(SnapshotFormatVersion) + ")");
  }

  static constexpr const char *Truncated =
      "truncated or trailing-garbage blob";

  template <class Ar, class M> static void machine(Ar &A, M &X) {
    header(A);
    A.expect(snapshotConfigDigest(X.Cfg),
             "config digest mismatch (the restoring machine must be "
             "constructed with a behaviorally identical config)");
    memory(A, X.Mem);
    interconnect(A, X.Net);

    A.expect(static_cast<uint64_t>(X.Cores.size()), "core count mismatch");
    bool GoodBeforeHarts = A.ok();
    for (size_t CoreId = 0; CoreId != X.Cores.size(); ++CoreId) {
      auto &C = X.Cores[CoreId];
      for (auto &H : C.Harts)
        hart(A, H);
      // The stages rotate candidate masks by these pointers.
      for (auto *RR : {&C.FetchRR, &C.DecodeRR, &C.IssueRR, &C.WbRR,
                       &C.CommitRR, &C.AllocRR})
        A.u8(*RR, HartsPerCore - 1, "core round-robin pointer out of range");
    }
    if (GoodBeforeHarts && !A.ok())
      A.fail("truncated hart record"); // unless a check said more

    wheel(A, X);
    // Overflow heap verbatim (array order preserves the heap layout and
    // with it the exact pop sequence).
    A.seq(X.Overflow, [NumHarts = X.Cfg.numHarts()](auto &A, auto &E) {
      A.u64(E.At);
      A.u64(E.Seq);
      delivery(A, E.D, NumHarts);
    });
    A.u64(X.OverflowSeq);

    A.u64(X.Cycle);
    A.u64(X.LastProgress);
    A.u8(X.Status, RunStatus::Deadline, "invalid run status");
    A.u8(X.Halted);
    A.bytes(X.FaultMsg);
    A.u64(X.TotalRetired);
    A.u64(X.JoinEpoch);
    A.u8(X.Hart0InTeam);
    A.u64(X.RemoteAccesses);
    A.u64(X.LocalAccesses);
    A.fixedSeq(X.StallByCore, "size mismatch in stall tallies", AsU64);
    A.seq(X.MemLog, [](auto &A, auto &Acc) {
      A.u64(Acc.Cycle);
      A.u64(Acc.Epoch);
      A.u16(Acc.Hart);
      A.u32(Acc.Addr);
      A.u8(Acc.Width);
      A.u8(Acc.IsWrite);
      A.u8(Acc.InTeam);
    });

    // The fault plan is a pure function of the config (seeded draw at
    // construction); only the fired cursor is run state.
    A.fixedSeq(X.FPlan.Events, "fault plan event count mismatch",
               [](auto &A, auto &E) {
                 A.u8(E.Fired);
                 A.u64(E.FiredCycle);
               });
    checker(A, X.Ck);
    trace(A, X.Tr);
    counters(A, X.Obs.get());

    // Devices: each state length-prefixed, so a size-mismatched restore
    // fails cleanly instead of desynchronizing the stream.
    A.expect(static_cast<uint64_t>(X.Devices.size()),
             "device count mismatch (add the same devices in the same "
             "order before restoring)");
    for (auto &DM : X.Devices)
      A.nested([&](auto &Sub) { DM.Dev->state(Sub); },
               "device state truncated");

    A.finish(SnapshotTrailer, Truncated);
  }

  /// Derived state a restore rebuilds: each ROB entry's micro-op flags
  /// follow from its instruction and each hart's scheduling summary
  /// from its ROB. Every core is marked awake, as at construction: a
  /// core that cannot act does nothing at its first visit, then sleeps
  /// unless a timer of it is pending. Each core's stall tallies reach
  /// the snapshot cycle, and that first visit counts the stall slot its
  /// restored state shows. The pre-decoded text mirrors the code image;
  /// the reference engine never reads it, so it is cleared there.
  static void rebuildDerived(Machine &M) {
    for (size_t CoreId = 0; CoreId != M.Cores.size(); ++CoreId) {
      Core &C = M.Cores[CoreId];
      for (Hart &H : C.Harts) {
        for (RobEntry &E : H.Rob)
          E.Flags = microOpFlags(E.I);
        H.Sched = H.summarizeRob();
      }
      M.LastTally[CoreId] = {M.Cycle, M.stallSlot(C)};
      M.wakeCore(static_cast<unsigned>(CoreId));
    }
    M.DueBuf.clear(); // per-cycle scratch, empty between cycles
    if (M.Cfg.FastPath)
      M.predecodeText();
    else
      M.DecodedText.clear();
  }

};

} // namespace sim
} // namespace lbp

void Machine::saveSnapshot(std::vector<uint8_t> &Out) const {
  ArchiveWriter A;
  SnapshotAccess::machine(A, *this);
  Out = A.take();
}

bool Machine::restoreSnapshot(const std::vector<uint8_t> &Blob,
                              std::string &Err) {
  ArchiveReader A(Blob);
  SnapshotAccess::machine(A, *this);
  if (!A.ok()) {
    Err = "snapshot: " +
          (A.error().empty() ? SnapshotAccess::Truncated : A.error());
    return false;
  }
  SnapshotAccess::rebuildDerived(*this);
  return true;
}
