//===- sim/Machine.h - The LBP manycore machine ------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level simulator: a line of cores (Fig. 9), the banked memory
/// and router tree (Figs. 13-14), the forward/backward inter-core links,
/// memory-mapped devices (Fig. 17) and the global cycle loop. Everything
/// is deterministic: rerunning the same program on the same configuration
/// reproduces the cycle-by-cycle event stream bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_MACHINE_H
#define LBP_SIM_MACHINE_H

#include "asm/Program.h"
#include "obs/PerfCounters.h"
#include "sim/Checker.h"
#include "sim/Config.h"
#include "sim/Device.h"
#include "sim/FaultInjection.h"
#include "sim/Hart.h"
#include "sim/Memory.h"
#include "sim/Trace.h"

#include <array>
#include <memory>
#include <string>

namespace lbp {
namespace sim {

/// Why a run() returned.
enum class RunStatus : uint8_t {
  Exited,    ///< p_ret with ra == 0, t0 == -1 committed.
  MaxCycles, ///< The cycle budget ran out first.
  Livelock,  ///< No progress for SimConfig::ProgressGuard cycles; the
             ///< per-hart wait report is in faultMessage().
  Fault,     ///< Invalid instruction, protocol violation or machine
             ///< check; see faultMessage() and machineChecks().
  Deadline,  ///< A caller-imposed cycle deadline expired (the fleet
             ///< runner's deterministic timeout classification,
             ///< src/fleet/). run() itself never returns this: a run
             ///< that exhausts its budget reports MaxCycles, and the
             ///< fleet promotes that to Deadline when the budget was
             ///< the campaign's per-run deadline. Distinct from
             ///< Livelock, which means the machine itself stopped
             ///< making progress.
};

/// Stable kebab-case name of a run status ("exited", "max-cycles",
/// "livelock", "fault", "deadline"), shared by reports and fleet JSON.
const char *runStatusName(RunStatus S);

/// One in-flight message on the machine's links: memory responses,
/// fork/join protocol messages, the ending-signal token. Every field is
/// fixed at injection time, which is what makes link parity and fault
/// injection well-defined (the whole future of a delivery is decided
/// when it enters a link).
struct Delivery {
  enum class Kind : uint8_t {
    RbFill,     ///< Load/remote value lands in the hart's rb.
    MemAck,     ///< Store acknowledged; OutstandingMem--.
    BankAccess, ///< Perform the read/write at the serving bank.
    IoAccess,   ///< Perform the device register access.
    StartHart,  ///< p_jal/p_jalr start message reaches the hart.
    Token,      ///< Ending-hart signal reaches the hart.
    JoinMsg,    ///< Join address (+ token) resumes the team head.
    SlotFill,   ///< p_swre value reaches a remote-result slot.
  } K;
  uint16_t HartId = 0; ///< Requesting/target hart.
  uint32_t Value = 0;
  uint32_t Addr = 0;
  uint64_t RespCycle = 0; ///< For Bank/IoAccess: response arrival.
  uint32_t StoreWord = 0; ///< Word address a MemAck retires.
  uint8_t Width = 4;
  uint8_t Slot = 0;
  bool IsWrite = false;
  bool SignExt = false;
  bool CountsMem = false; ///< RbFill also decrements OutstandingMem.
  uint8_t Parity = 0;     ///< Link parity, set by Machine::schedule().
};

/// Link-level parity over every field of a delivery except the parity
/// byte itself. Computed at injection, verified at arrival: a payload
/// bit flipped in flight is detected before the delivery is applied.
inline uint8_t deliveryParity(const Delivery &D) {
  // The fields folded through a small multiplicative mix so that any
  // single-bit flip changes the result: the Horner chain
  // W = (..((K * 131 + HartId) * 131 + Value) * 131 ..) + Flags, written
  // as a sum of independent products with the powers of 131 (the same
  // value mod 2^64) so the multiplies need not wait on each other.
  constexpr uint64_t P1 = 131, P2 = P1 * P1, P3 = P2 * P1, P4 = P3 * P1,
                     P5 = P4 * P1, P6 = P5 * P1, P7 = P6 * P1,
                     P8 = P7 * P1;
  uint64_t Flags = static_cast<unsigned>(D.IsWrite) |
                   static_cast<unsigned>(D.SignExt) << 1 |
                   static_cast<unsigned>(D.CountsMem) << 2;
  uint64_t W = static_cast<uint8_t>(D.K) * P8 + D.HartId * P7 +
               D.Value * P6 + D.Addr * P5 + D.RespCycle * P4 +
               D.StoreWord * P3 + D.Width * P2 + D.Slot * P1 + Flags;
  W ^= W >> 32;
  W ^= W >> 16;
  W ^= W >> 8;
  return static_cast<uint8_t>(W);
}

class Machine {
public:
  explicit Machine(const SimConfig &Config);

  /// Loads a program image: text into the code banks, data into the
  /// global (or local) banks they fall into. Hart 0 of core 0 starts at
  /// the program entry holding the ending-signal token.
  void load(const assembler::Program &Prog);

  /// Maps \p Device over [Base, Base + Size) in the I/O region.
  void addDevice(uint32_t Base, uint32_t Size,
                 std::unique_ptr<IoDevice> Device);

  /// Runs until exit, fault, livelock or \p MaxCycles. A later call
  /// continues the run; on an exited or faulted machine it returns that
  /// status at once, without simulating another cycle.
  RunStatus run(uint64_t MaxCycles = UINT64_MAX);

  // -- Checkpointing (sim/Snapshot.h; docs/ROBUSTNESS.md) --------------
  /// Serializes the complete mutable run state — memory banks and code
  /// image, every hart and core, interconnect reservations and traffic
  /// counters, the delivery wheel and overflow heap, the fault-plan
  /// cursor, checker accounting, device state, the perf-counter set and
  /// the trace hash chain — into a versioned binary blob. Taking a
  /// snapshot never perturbs the run: save, continue, and the trace
  /// hash is bit-identical to a run that never snapshotted.
  void saveSnapshot(std::vector<uint8_t> &Out) const;

  /// Restores a saveSnapshot() blob into this machine. The machine must
  /// have been constructed with a behaviorally identical SimConfig (a
  /// config digest in the blob is verified; the host-only FastPath may
  /// differ) and the same devices
  /// added in the same order. On success the machine continues exactly
  /// where the snapshot was taken: running it to completion yields the
  /// same trace hash, cycle count and counter snapshot as the
  /// uninterrupted run, on every engine. Returns false and fills \p Err
  /// on a malformed or mismatched blob, leaving no guarantee about the
  /// machine's state (discard it).
  bool restoreSnapshot(const std::vector<uint8_t> &Blob, std::string &Err);

  // Observation.
  /// Outcome of the last run() (MaxCycles before the first run).
  RunStatus status() const { return Status; }
  uint64_t cycles() const { return Cycle; }
  uint64_t retired() const { return TotalRetired; }
  double ipc() const {
    return Cycle == 0 ? 0.0
                      : static_cast<double>(TotalRetired) /
                            static_cast<double>(Cycle);
  }
  uint64_t retiredOnHart(unsigned HartId) const;
  uint64_t traceHash() const { return Tr.hash(); }
  const Trace &trace() const { return Tr; }
  const std::string &faultMessage() const { return FaultMsg; }

  /// Every invariant violation the machine-check layer detected (the
  /// first one also fails the run through RunStatus::Fault).
  const std::vector<MachineCheck> &machineChecks() const {
    return Ck.checks();
  }

  /// The run's fault-injection schedule (empty unless configured).
  const FaultPlan &faultPlan() const { return FPlan; }
  uint64_t contentionCycles() const { return Net.contentionCycles(); }
  const Interconnect &interconnect() const { return Net; }

  /// Why issue slots went unused (filled when CollectStallStats is on).
  /// One count per core-cycle that issued nothing, by dominant cause.
  enum class StallCause : uint8_t {
    NoActiveWork,    ///< No in-flight instructions on the core at all.
    WaitingResponse, ///< Everything issued, awaiting memory/results.
    RbBusy,          ///< Ready work blocked on the single result buffer.
    SlotEmpty,       ///< p_lwre waiting for a producer.
    OperandsNotReady,///< Entries waiting on in-flight producers.
    NumCauses
  };
  /// Machine-wide stall cycles with cause \p C (sum over cores).
  uint64_t stallCycles(StallCause C) const;
  /// Stall cycles with cause \p C attributed to \p Core.
  uint64_t stallCycles(StallCause C, unsigned Core) const {
    return StallByCore[Core * NumStallSlots + static_cast<unsigned>(C)];
  }
  /// Core-cycles in which an instruction issued (sum over cores).
  uint64_t issuedCoreCycles() const;
  uint64_t issuedCoreCycles(unsigned Core) const {
    return StallByCore[Core * NumStallSlots + IssuedSlot];
  }
  uint64_t remoteAccesses() const { return RemoteAccesses; }
  uint64_t localAccesses() const { return LocalAccesses; }
  const SimConfig &config() const { return Cfg; }

  /// Stable display name of the cycle loop run() walks (sim::engineName
  /// of the config).
  const char *engineName() const { return sim::engineName(Cfg); }

  /// The deterministic counter set (SimConfig::CollectCounters;
  /// docs/OBSERVABILITY.md). Disabled and empty unless configured.
  const obs::PerfCounters &counters() const {
    static const obs::PerfCounters Disabled;
    return Obs ? *Obs : Disabled;
  }

  /// Registers an observer of the canonical trace-event stream (timeline
  /// exporters, phase profilers). Must be called before load() to see
  /// the boot events; the sink must outlive the machine's last run.
  void addTraceSink(TraceSink *S) { Tr.addSink(S); }

  /// Host-side memory access for test setup and result checking (not
  /// part of the simulated timing). Local addresses refer to \p Core.
  uint32_t debugReadWord(uint32_t Addr, unsigned Core = 0) const;
  void debugWriteWord(uint32_t Addr, uint32_t Value, unsigned Core = 0);

  /// Host-side register peek for tests.
  uint32_t debugReadReg(unsigned HartId, unsigned Reg) const;
  HartState hartState(unsigned HartId) const;

  /// One logged shared-global access (SimConfig::CollectMemLog). Epoch
  /// counts the join deliveries (team barriers) seen so far, so two
  /// accesses with different epochs are ordered by a barrier and can
  /// never race. InTeam is true when the access ran on a team member:
  /// any hart other than 0, or hart 0 between forking its team (it
  /// becomes the last member) and receiving the join back.
  struct MemAccess {
    uint64_t Cycle = 0;
    uint64_t Epoch = 0;
    uint16_t Hart = 0;
    uint32_t Addr = 0;
    uint8_t Width = 4;
    bool IsWrite = false;
    bool InTeam = false;
  };
  const std::vector<MemAccess> &memLog() const { return MemLog; }

private:
  friend class Checker;         // read-only sweeps over the machine state
  friend struct SnapshotAccess; // checkpoint serializer (Snapshot.cpp)

  // -- Deliveries -----------------------------------------------------
  void schedule(uint64_t At, Delivery D);
  void deliver(const Delivery &D);
  /// Moves every delivery due this cycle from the wheel/overflow heap
  /// into DueBuf, preserving wheel-before-overflow arrival order.
  void collectDue();

  // -- Pipeline stages (per core, one hart each per cycle) -------------
  // coreStages builds every stage's 4-bit candidate mask in one loop over
  // the core's harts and hands each stage its mask. A stage picks its
  // hart from the mask round-robin and returns the hart that acted, or
  // NoHart; the step then re-tests only that hart's bits the action can
  // flip (docs/PERFORMANCE.md, "Serial hot path").
  static constexpr unsigned NoHart = HartsPerCore;
  unsigned stageCommit(Core &C, unsigned CoreId, unsigned Cand);
  unsigned stageWriteback(Core &C, unsigned Cand);
  unsigned stageIssue(Core &C, unsigned CoreId, unsigned Cand);
  unsigned stageDecode(Core &C, unsigned CoreId, unsigned Cand);
  /// Also clears the p_syncm block of the harts in \p SyncmDone, whose
  /// issued accesses have all drained.
  unsigned stageFetch(Core &C, unsigned CoreId, unsigned Cand,
                      unsigned SyncmDone);

  // -- Issue helpers ---------------------------------------------------
  /// Issues ROB entry \p RobIdx, dispatching once on its opcode; false
  /// when it cannot issue this cycle (or faulted).
  bool tryIssue(unsigned CoreId, unsigned HartInCore, unsigned RobIdx);
  bool issueMemOp(unsigned CoreId, unsigned HartInCore, Hart &H,
                  RobEntry &E, unsigned RobIdx, unsigned Width, bool SignExt,
                  bool IsWrite);
  /// The p_ret ending protocol, with the captured ra (\p Ra) and t0
  /// (\p T0) of the committed entry.
  void commitRet(unsigned CoreId, unsigned HartInCore, Hart &H, uint32_t Ra,
                 uint32_t T0);

  // -- Plumbing ---------------------------------------------------------
  Hart &hart(unsigned HartId) {
    return Cores[HartId / HartsPerCore].Harts[HartId % HartsPerCore];
  }
  const Hart &hart(unsigned HartId) const {
    return Cores[HartId / HartsPerCore].Harts[HartId % HartsPerCore];
  }
  unsigned hartId(unsigned CoreId, unsigned HartInCore) const {
    return CoreId * HartsPerCore + HartInCore;
  }
  void fault(std::string Msg);
  /// The livelock diagnosis: one wait-state line per non-free hart.
  std::string livelockReport() const;
  /// Arms SimConfig::PerturbForTest on the trace for this run (the
  /// payload encodes the engine).
  void armPerturb();
  /// Fills DecodedText from the code image (FastPath; load and snapshot
  /// restore).
  void predecodeText();
  /// The reference loop: one pass over every core's stages for the
  /// current cycle (the fast path's oracle).
  void cycleStages();

  // -- Fast path (SimConfig::FastPath; docs/PERFORMANCE.md) -------------
  /// True when a non-free hart of \p C has a timer that expires after
  /// \p Now (NoFetchUntil, result-buffer ready, ROB head done): a core
  /// whose stages did not act may still act again on its own, so it
  /// stays awake.
  bool timerPending(const Core &C, uint64_t Now) const;
  /// Puts \p CoreId in the awake set. A delivery wakes its core before
  /// the stages run, so the core is visited this cycle; a hart free wakes
  /// the core before its own, already walked this cycle, so that one is
  /// visited next cycle.
  void wakeCore(unsigned CoreId) {
    Awake[CoreId / 64] |= uint64_t(1) << (CoreId % 64);
  }
  /// Fast path: one pass over the awake cores' stages, ascending. A
  /// core whose stages did not act and that has no timer pending leaves
  /// the awake set until a wake.
  void cycleAwakeStages();
  /// Runs \p CoreId's five stages for this cycle in one pass; true when
  /// any acted. Both cycle loops call it. Leaves \p Halted set when a
  /// stage halted the machine; the caller then records the core in
  /// HaltCore.
  bool coreStages(unsigned CoreId);
  /// Deliveries on the wheel/overflow map targeting \p HartId.
  unsigned pendingDeliveriesFor(unsigned HartId) const;
  void startHart(unsigned HartId, uint32_t StartPc);
  void freeHart(unsigned HartId);
  void sendToken(unsigned FromHart, unsigned ToHart);
  int allocateHart(unsigned CoreId, unsigned ByHart);
  void fillSlot(Hart &H, unsigned Slot, uint32_t Value);
  void finishRb(Hart &H, uint32_t Value, uint64_t ReadyCycle);
  bool loadBlockedByStore(const Hart &H, uint32_t Addr) const;
  IoDevice *findDevice(uint32_t Addr, uint32_t &Offset);

  SimConfig Cfg;
  MemorySystem Mem;
  Interconnect Net;
  Trace Tr;
  FaultPlan FPlan;
  Checker Ck;
  std::vector<Core> Cores;
  /// The fast path's scheduling state: one bit per core in
  /// ceil(NumCores / 64) words, set for the cores whose stages run this
  /// cycle. A core leaves it after a visit in which no stage acted and
  /// no timer of it was pending, and sleeps until a delivery or a hart
  /// free wakes it (see wakeCore). Spurious wakes are harmless (the
  /// stages no-op and the core sleeps again). The reference path ignores
  /// the set and the checkpoint does not store it: construction and
  /// restore mark every core awake.
  std::vector<uint64_t> Awake;

  uint64_t Cycle = 0;
  uint64_t LastProgress = 0;
  RunStatus Status = RunStatus::MaxCycles;
  bool Halted = false;
  std::string FaultMsg;

  uint64_t TotalRetired = 0;
  // Dynamic-oracle memory log (CollectMemLog; see memLog()).
  std::vector<MemAccess> MemLog;
  uint64_t JoinEpoch = 0;
  bool Hart0InTeam = false;
  uint64_t RemoteAccesses = 0;
  uint64_t LocalAccesses = 0;
  /// Per-core stall/issue tallies, laid out [core * NumStallSlots +
  /// slot] with one slot per StallCause plus IssuedSlot at the end.
  static constexpr unsigned NumStallSlots =
      static_cast<unsigned>(StallCause::NumCauses) + 1;
  static constexpr unsigned IssuedSlot =
      static_cast<unsigned>(StallCause::NumCauses);
  std::vector<uint64_t> StallByCore;
  /// The stall-cause slot of \p C's current state, ranked by how close
  /// its work was to issuing.
  unsigned stallSlot(const Core &C) const;
  /// Counts this cycle's issue slot \p Slot for \p CoreId, after
  /// crediting the cycles since its last tally.
  void tallyIssueSlot(unsigned CoreId, unsigned Slot);
  /// Stall tallies on the fast path: per core, the last cycle counted in
  /// StallByCore and that cycle's slot. The fast path skips a core only
  /// while it is frozen, so every cycle it sleeps through stalls for the
  /// cause of its last visit. Derived state: restore sets each core to
  /// the snapshot cycle and the slot of its restored state.
  struct StallMark {
    uint64_t Cycle = 0;
    unsigned Slot = 0;
  };
  std::vector<StallMark> LastTally;
  /// Credits \p CoreId's slot for the cycles after its last tally up to
  /// \p Through.
  void creditStalls(unsigned CoreId, uint64_t Through);
  /// The core whose stages halted the run's last cycle: 0 for a halt
  /// among the deliveries, NumCores when every core's stages ran. The
  /// reference loop classified that cycle on the cores below it only.
  unsigned HaltCore = 0;

  /// Deterministic counters (SimConfig::CollectCounters): allocated and
  /// attached as a trace sink by the constructor when enabled. On the
  /// heap so the registered sink pointer survives Machine moves; null
  /// doubles as the disabled fast-path guard at the hook sites.
  std::unique_ptr<obs::PerfCounters> Obs;

  // Delivery wheel with a far-future overflow heap (docs/PERFORMANCE.md,
  // "Delivery wheel"). A delivery due at At, fewer than WheelSize cycles
  // from now, waits in slot At % WheelSize; each slot is a list of pool
  // nodes in insertion order, the order collectDue() hands them on.
  // Readers that look at every slot walk the busy bits, not the slots.
  static constexpr uint64_t WheelSize = 1 << 14;
  static constexpr uint32_t NoNode = UINT32_MAX;
  /// A delivery on the wheel and the next node of its slot, or of the
  /// free list; NoNode ends either list.
  struct WheelNode {
    Delivery D;
    uint32_t Next;
  };
  /// Every node allocated so far. Freed nodes chain from FreeNode and
  /// are reused before the pool grows, so it grows only up to the peak
  /// number of deliveries on the wheel.
  std::vector<WheelNode> WheelPool;
  uint32_t FreeNode = NoNode;
  /// A slot's first and last node. Valid only while the slot's busy bit
  /// is set, so the array is never initialized and construction touches
  /// none of it.
  struct WheelSlot {
    uint32_t Head;
    uint32_t Tail;
  };
  std::unique_ptr<WheelSlot[]> WheelSlots;
  /// One bit per slot, set while the slot holds a delivery.
  std::array<uint64_t, WheelSize / 64> WheelBusy{};
  /// Appends \p D to wheel slot \p Slot (schedule and snapshot restore).
  void wheelAppend(uint64_t Slot, const Delivery &D);
  /// Empties the wheel (snapshot restore).
  void clearWheel();
  /// Calls \p F(Slot) for every busy wheel slot, in ascending order.
  template <class Fn> void forEachBusySlot(Fn F) const {
    for (size_t W = 0; W != WheelBusy.size(); ++W)
      for (uint64_t Bits = WheelBusy[W]; Bits != 0; Bits &= Bits - 1)
        F(W * 64 + __builtin_ctzll(Bits));
  }
  /// Calls \p F(D) for each delivery in busy slot \p Slot, in arrival
  /// order.
  template <class Fn> void forEachInSlot(uint64_t Slot, Fn F) const {
    for (uint32_t N = WheelSlots[Slot].Head; N != NoNode;
         N = WheelPool[N].Next)
      F(WheelPool[N].D);
  }

  // The far-future overflow heap. It used to be a std::multimap; the
  // flat min-heap keeps the hot path free of node allocations and
  // pointer chasing. Seq preserves the multimap's insertion order among
  // equal arrival cycles, which the event stream depends on.
  struct OverflowEntry {
    uint64_t At;
    uint64_t Seq;
    Delivery D;
  };
  /// Heap comparator ("later than" on (At, Seq)): std::push_heap with
  /// this predicate builds a min-heap on arrival order.
  static bool overflowLater(const OverflowEntry &L, const OverflowEntry &R) {
    return L.At != R.At ? L.At > R.At : L.Seq > R.Seq;
  }
  /// Min-heap on (At, Seq) via std::push_heap/pop_heap.
  std::vector<OverflowEntry> Overflow;
  uint64_t OverflowSeq = 0;
  /// Per-cycle delivery staging buffer: collectDue() copies the due
  /// slot's deliveries into it and frees their nodes, so a delivery may
  /// schedule more while the buffer is walked. Its capacity is reused
  /// from cycle to cycle.
  std::vector<Delivery> DueBuf;

  /// Text segment decoded once at load() (FastPath; empty on the
  /// reference loop): the micro-op at word address W is DecodedText[W].
  /// Valid because LBP code banks are read-only after load — stores
  /// into the code region fault.
  std::vector<MicroOp> DecodedText;

  struct DeviceMapping {
    uint32_t Base;
    uint32_t Size;
    std::unique_ptr<IoDevice> Dev;
  };
  std::vector<DeviceMapping> Devices;
};

/// Stable kebab-case name of a stall cause ("no-active-work", ...),
/// shared by the examples, the profiler report and the counter JSON.
const char *stallCauseName(Machine::StallCause C);

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_MACHINE_H
