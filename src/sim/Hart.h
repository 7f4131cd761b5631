//===- sim/Hart.h - Per-hart and per-core microarchitectural state ----------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state behind paper Figs. 11-12: per hart a pc, an instruction
/// buffer (ib), a reorder buffer, Tomasulo-style source capture (the
/// renaming table + rrf collapse into value capture since at most one
/// result-producing instruction of a hart is in flight), a single result
/// buffer (rb), the remote-result slots targeted by p_swre, and the
/// ending-signal token that serializes p_ret commits. Decode attaches
/// micro-op flags to every instruction, and each hart keeps a readiness
/// summary of its ROB, so the stages pick work from bitmasks instead of
/// rescanning the ROB (docs/PERFORMANCE.md, "Serial hot path").
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_HART_H
#define LBP_SIM_HART_H

#include "isa/Instr.h"
#include "sim/Config.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lbp {
namespace sim {

/// Lifecycle of a hart on the core line.
enum class HartState : uint8_t {
  Free,        ///< Available to p_fc/p_fn.
  Reserved,    ///< Allocated; its continuation frame is being filled.
  Running,     ///< Fetching/executing.
  WaitingJoin, ///< Team head parked by p_ret until the join arrives.
};

/// Decode-time micro-op flags: what the later stages need to know about
/// an instruction beyond its fields, worked out once when it is decoded
/// (and cached per text word in Machine::DecodedText) instead of being
/// re-derived from isa::instrInfo() at every stage.
enum UopFlag : uint8_t {
  UopWritesReg = 1 << 0, ///< Writes a register other than x0.
  UopNeedsRb = 1 << 1,   ///< Occupies the result buffer: register
                         ///< writers, every load (even toward x0) and
                         ///< p_lwre.
  UopIsRet = 1 << 2,     ///< p_ret (p_jalr rd = x0): ending protocol at
                         ///< commit.
  UopReadsRs1 = 1 << 3,  ///< Captures a nonzero rs1 at rename (p_lwcv
                         ///< reads sp).
  UopReadsRs2 = 1 << 4,  ///< Captures a nonzero rs2 at rename.
  UopNextPcAtDecode = 1 << 5, ///< Decode publishes the next pc: anything
                              ///< but a branch, jalr or p_jalr.
  UopJumpsAtDecode = 1 << 6,  ///< That next pc is pc + imm (jal, p_jal)
                              ///< rather than pc + 4.
};

/// The micro-op flags of \p I, whose operands are final (p_lwcv already
/// redirected to sp).
inline uint8_t microOpFlags(const isa::Instr &I) {
  using isa::Opcode;
  const isa::InstrInfo &Info = isa::instrInfo(I.Op);
  uint8_t F = 0;
  if (I.writesReg())
    F |= UopWritesReg;
  if (I.writesReg() || I.isLoad() || I.Op == Opcode::P_LWRE)
    F |= UopNeedsRb;
  if (I.Op == Opcode::P_JALR && I.Rd == 0)
    F |= UopIsRet;
  if ((Info.ReadsRs1 || I.Op == Opcode::P_LWCV) && I.Rs1 != 0)
    F |= UopReadsRs1;
  if (Info.ReadsRs2 && I.Rs2 != 0)
    F |= UopReadsRs2;
  if (I.nextPcKnownAtDecode())
    F |= UopNextPcAtDecode;
  if (I.Op == Opcode::JAL || I.Op == Opcode::P_JAL)
    F |= UopJumpsAtDecode;
  return F;
}

/// One decoded instruction with its micro-op flags.
struct MicroOp {
  isa::Instr I;
  uint8_t Flags = 0;
};

/// One reorder-buffer entry. 32 bytes: two per cache line.
struct RobEntry {
  isa::Instr I;
  uint32_t Pc = 0;

  enum class St : uint8_t {
    Waiting, ///< Renamed; waiting for sources or issue conditions.
    Issued,  ///< In a functional unit or awaiting a memory response.
    Done,    ///< Result written back / effect performed; committable.
  } State = St::Waiting;

  uint8_t Flags = 0; ///< UopFlag bits of I, copied at decode.
  /// ROB index of the pending writer of each source, or -1 once the
  /// value is captured in SrcVal (a source is ready exactly when its
  /// producer is -1).
  int8_t SrcProducer[2] = {-1, -1};
  uint32_t SrcVal[2] = {0, 0};

  uint64_t DoneCycle = 0; ///< Cycle at which St::Done takes effect.
};
static_assert(sizeof(RobEntry) == 32, "two ROB entries per cache line");

/// The scheduling summary of one hart's ROB (Hart::Sched): a pure
/// function of the ROB contents, which the stages keep incrementally.
/// Hart::summarizeRob() recomputes it from scratch for snapshot restore
/// and for the checker's audit.
struct RobSummary {
  /// DoneCycle of the head entry when it is Done, else UINT64_MAX: the
  /// head can commit from this cycle on (p_ret ending rules aside).
  uint64_t HeadDoneAt = UINT64_MAX;
  uint8_t ReadyMask = 0; ///< Waiting entries whose sources are all ready.
  uint8_t RbWaiters = 0; ///< Waiting entries that need the result buffer.
  /// Per producer entry: the Waiting entries that captured it as a
  /// source and wake when it writes back.
  uint8_t Consumers[RobEntries] = {};

  bool operator==(const RobSummary &) const = default;
};
static_assert(sizeof(RobSummary) == 24);

/// One hardware thread, 640 bytes. Cache-line aligned so a hart's hot
/// fields never straddle a line shared with its neighbour. The first
/// line holds everything the five stages read to pick a hart (and
/// timerPending reads before a core may sleep), so building a core's
/// stage masks reads one line per hart.
struct alignas(64) Hart {
  HartState State = HartState::Free;
  // Fetch and the instruction buffer between fetch and decode/rename.
  bool PcValid = false;
  bool IbFull = false;
  bool SyncmWait = false;
  // The single write-back result buffer.
  bool RbBusy = false;
  bool RbReady = false;
  // Ending-signal token (paper: "ending hart signal").
  bool Token = false;
  // Reorder buffer (circular) bounds.
  uint8_t RobHead = 0;
  uint8_t RobCount = 0;
  int8_t RbEntry = -1;
  uint32_t Pc = 0;
  uint32_t IbPc = 0;
  /// p_syncm bookkeeping: in-flight memory accesses (their store word
  /// addresses are in PendingStoreWords, used for the conservative
  /// load-after-store stall, see DESIGN.md).
  uint32_t OutstandingMem = 0;
  uint64_t NoFetchUntil = 0;
  uint64_t RbReadyCycle = 0;
  RobSummary Sched;

  RobEntry Rob[RobEntries];

  // Architectural registers, written at writeback (no speculation, so
  // no rollback is ever needed).
  uint32_t Regs[32] = {0};
  /// ROB index of the youngest pending writer per register, or -1. A
  /// writeback updates the architectural file only while it is still
  /// its register's producer, so an older writer completing late (e.g.
  /// a load that was stalled before issue) cannot clobber a younger
  /// value.
  int8_t RegProducer[32];
  // Read after a stage has picked the hart, so they sit beside
  // RegProducer rather than in the first line.
  uint32_t IbWord = 0;
  uint32_t RbValue = 0;

  /// Cycle of the last State transition; the machine-check layer uses it
  /// to spot harts stuck in Reserved (a lost start message).
  uint64_t StateSince = 0;
  uint64_t Retired = 0;

  // Remote-result buffers (p_swre targets) plus overflow queue.
  bool SlotFull[ResultSlots] = {false};
  uint32_t SlotVal[ResultSlots] = {0};
  std::vector<uint32_t> PendingStoreWords;
  std::vector<std::pair<uint8_t, uint32_t>> SlotBacklog;

  Hart() {
    for (int8_t &P : RegProducer)
      P = -1;
  }

  unsigned robIndex(unsigned Pos) const {
    return (RobHead + Pos) % RobEntries;
  }

  /// Recomputes the scheduling summary from the ROB contents.
  RobSummary summarizeRob() const {
    RobSummary S;
    for (unsigned P = 0; P != RobCount; ++P) {
      unsigned Idx = robIndex(P);
      const RobEntry &E = Rob[Idx];
      if (P == 0 && E.State == RobEntry::St::Done)
        S.HeadDoneAt = E.DoneCycle;
      if (E.State != RobEntry::St::Waiting)
        continue;
      uint8_t Bit = static_cast<uint8_t>(1u << Idx);
      if (E.Flags & UopNeedsRb)
        S.RbWaiters |= Bit;
      bool Ready = true;
      for (int8_t Producer : E.SrcProducer) {
        if (Producer >= 0) {
          S.Consumers[Producer] |= Bit;
          Ready = false;
        }
      }
      if (Ready)
        S.ReadyMask |= Bit;
    }
    return S;
  }

  /// Resets everything except the retired-instruction counter (which is
  /// a statistic of the run, not hart state).
  void clearForFree() {
    State = HartState::Free;
    StateSince = 0;
    PcValid = false;
    IbFull = false;
    SyncmWait = false;
    NoFetchUntil = 0;
    for (uint32_t &R : Regs)
      R = 0;
    for (int8_t &P : RegProducer)
      P = -1;
    RobHead = 0;
    RobCount = 0;
    Sched = {};
    RbBusy = RbReady = false;
    RbEntry = -1;
    Token = false;
    // A hart only reaches Free through a p_ret commit, which requires
    // OutstandingMem == 0, so no store acknowledgement can be in flight.
    OutstandingMem = 0;
    for (bool &F : SlotFull)
      F = false;
    SlotBacklog.clear();
    PendingStoreWords.clear();
  }
};
static_assert(sizeof(Hart) <= 640, "a hart spans at most ten cache lines");
static_assert(offsetof(Hart, Sched) + sizeof(RobSummary) <= 64,
              "the scheduling summary sits in the hart's first line");

/// One core: four harts plus the per-stage round-robin pointers ("each
/// stage selects one active hart at every cycle", paper Sec. 5.2).
/// Whether the fast path visits a core is one bit of Machine::Awake, the
/// core set its scheduling loop walks.
struct alignas(64) Core {
  Hart Harts[HartsPerCore];
  uint8_t FetchRR = 0;
  uint8_t DecodeRR = 0;
  uint8_t IssueRR = 0;
  uint8_t WbRR = 0;
  uint8_t CommitRR = 0;
  /// p_fc/p_fn allocation pointer: the scan starts after the hart
  /// allocated last, so teams fill a core's harts in order even when an
  /// earlier member has already ended (stable placement, paper Fig. 3).
  uint8_t AllocRR = 0;
};

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_HART_H
