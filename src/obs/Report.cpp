//===- obs/Report.cpp - Profiling reports and counter snapshots ------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <iterator>

using namespace lbp;
using namespace lbp::obs;
using sim::EventKind;
using sim::Machine;

namespace {

const char *linkClassName(sim::Interconnect::LinkClass C) {
  using LC = sim::Interconnect::LinkClass;
  switch (C) {
  case LC::CoreUp:
    return "core-up";
  case LC::CoreDown:
    return "core-down";
  case LC::BankIn:
    return "bank-in";
  case LC::BankOut:
    return "bank-out";
  case LC::BankPort:
    return "bank-port";
  case LC::R1Up:
    return "r1-up";
  case LC::R1Down:
    return "r1-down";
  case LC::R2Up:
    return "r2-up";
  case LC::R2Down:
    return "r2-down";
  case LC::Forward:
    return "forward";
  case LC::Backward:
    return "backward";
  case LC::NumClasses:
    break;
  }
  return "?";
}

void appendU64(std::string &Out, uint64_t V) {
  Out += formatString("%llu", static_cast<unsigned long long>(V));
}

template <typename Vec> void appendArray(std::string &Out, const Vec &V) {
  Out += '[';
  for (size_t I = 0; I != std::size(V); ++I) {
    if (I)
      Out += ',';
    appendU64(Out, V[I]);
  }
  Out += ']';
}

void appendField(std::string &Out, const char *Key, uint64_t V) {
  Out += formatString("\"%s\":", Key);
  appendU64(Out, V);
}

template <typename Vec>
void appendArrayField(std::string &Out, const char *Key, const Vec &V) {
  Out += formatString("\"%s\":", Key);
  appendArray(Out, V);
}

} // namespace

std::string obs::countersToJson(const Machine &M) {
  const sim::SimConfig &Cfg = M.config();
  const sim::Interconnect &Net = M.interconnect();
  unsigned Cores = Cfg.NumCores;

  std::string J = "{";
  appendField(J, "cycles", M.cycles());
  J += ',';
  appendField(J, "retired", M.retired());
  J += formatString(",\"status\":\"%s\"", sim::runStatusName(M.status()));
  J += formatString(",\"trace_hash\":\"0x%016llx\"",
                    static_cast<unsigned long long>(M.traceHash()));
  J += ',';
  appendField(J, "machine_checks", M.machineChecks().size());

  // Stall accounting (all zero unless CollectStallStats ran).
  J += ",\"stall\":{";
  for (unsigned C = 0;
       C != static_cast<unsigned>(Machine::StallCause::NumCauses); ++C) {
    std::vector<uint64_t> PerCore(Cores);
    for (unsigned Core = 0; Core != Cores; ++Core)
      PerCore[Core] =
          M.stallCycles(static_cast<Machine::StallCause>(C), Core);
    appendArrayField(J, stallCauseName(static_cast<Machine::StallCause>(C)),
                     PerCore);
    J += ',';
  }
  {
    std::vector<uint64_t> Issued(Cores);
    for (unsigned Core = 0; Core != Cores; ++Core)
      Issued[Core] = M.issuedCoreCycles(Core);
    appendArrayField(J, "issued", Issued);
  }
  J += '}';

  // Interconnect traffic (always on; routed serially, so deterministic).
  J += ",\"interconnect\":{";
  appendField(J, "contention", M.contentionCycles());
  {
    using LC = sim::Interconnect::LinkClass;
    for (unsigned C = 0; C != static_cast<unsigned>(LC::NumClasses); ++C) {
      J += formatString(",\"contention_%s\":",
                        linkClassName(static_cast<LC>(C)));
      appendU64(J, Net.contentionOn(static_cast<LC>(C)));
    }
  }
  std::vector<uint64_t> Fwd(Cores), Bwd(Cores), BReq(Cores), BWait(Cores);
  for (unsigned Core = 0; Core != Cores; ++Core) {
    Fwd[Core] = Net.forwardPackets(Core);
    Bwd[Core] = Net.backwardPackets(Core);
    BReq[Core] = Net.bankPortRequests(Core);
    BWait[Core] = Net.bankPortWaitCycles(Core);
  }
  J += ',';
  appendArrayField(J, "forward_packets", Fwd);
  J += ',';
  appendArrayField(J, "backward_packets", Bwd);
  J += ',';
  appendArrayField(J, "bank_port_requests", BReq);
  J += ',';
  appendArrayField(J, "bank_port_wait", BWait);
  J += '}';

  const PerfCounters &PC = M.counters();
  if (PC.enabled()) {
    J += ",\"counters\":{";
    appendArrayField(J, "commits_per_core", PC.CommitsPerCore);
    J += ',';
    appendArrayField(J, "commits_per_hart", PC.CommitsPerHart);
    J += ',';
    appendArrayField(J, "bank_reads", PC.BankReads);
    J += ',';
    appendArrayField(J, "bank_writes", PC.BankWrites);
    J += ',';
    appendField(J, "local_reads", PC.LocalReads);
    J += ',';
    appendField(J, "local_writes", PC.LocalWrites);
    J += ',';
    appendField(J, "io_reads", PC.IoReads);
    J += ',';
    appendField(J, "io_writes", PC.IoWrites);
    J += ',';
    appendField(J, "forks", PC.Forks);
    J += ',';
    appendField(J, "hart_starts", PC.HartStarts);
    J += ',';
    appendField(J, "hart_ends", PC.HartEnds);
    J += ',';
    appendField(J, "token_passes", PC.TokenPasses);
    J += ',';
    appendField(J, "joins", PC.Joins);
    J += ',';
    appendField(J, "faults_injected", PC.FaultsInjected);
    J += ',';
    appendField(J, "machine_check_events", PC.MachineChecks);
    J += ",\"token_latency\":{";
    appendField(J, "count", PC.TokenLatency.Count);
    J += ',';
    appendField(J, "sum", PC.TokenLatency.Sum);
    J += ',';
    appendField(J, "max", PC.TokenLatency.Max);
    J += ',';
    appendArrayField(J, "buckets", PC.TokenLatency.Buckets);
    J += '}';
    J += ',';
    appendArrayField(J, "rob_high", PC.RobHigh);
    J += ',';
    appendArrayField(J, "slot_high", PC.SlotHigh);
    J += '}';
  }
  J += '}';
  return J;
}

//===----------------------------------------------------------------------===//
// PhaseProfiler
//===----------------------------------------------------------------------===//

void PhaseProfiler::onEvent(uint64_t Cycle, EventKind Kind, uint64_t A,
                            uint64_t B) {
  (void)B;
  switch (Kind) {
  case EventKind::Commit:
    ++Cur.Commits;
    return;
  case EventKind::HartReserve:
    ++Cur.Forks;
    return;
  case EventKind::BankRead:
  case EventKind::BankWrite:
    ++Cur.BankAccesses;
    return;
  case EventKind::Join:
    if (A == 0) {
      // Hart 0 resuming closes the barrier and the phase.
      Cur.EndCycle = Cycle;
      Done.push_back(Cur);
      Cur = Phase();
      Cur.BeginCycle = Cycle;
    }
    return;
  default:
    return;
  }
}

std::vector<PhaseProfiler::Phase>
PhaseProfiler::phases(uint64_t FinalCycle) const {
  std::vector<Phase> All = Done;
  if (Cur.Commits || Cur.Forks || Cur.BankAccesses) {
    Phase Tail = Cur;
    Tail.EndCycle = FinalCycle;
    All.push_back(Tail);
  }
  return All;
}

//===----------------------------------------------------------------------===//
// buildReport
//===----------------------------------------------------------------------===//

namespace {

/// Indices 0..N-1 sorted descending by Weight, ties by lower index.
std::vector<unsigned> rankDescending(const std::vector<uint64_t> &Weight) {
  std::vector<unsigned> Idx(Weight.size());
  for (unsigned I = 0; I != Idx.size(); ++I)
    Idx[I] = I;
  std::stable_sort(Idx.begin(), Idx.end(), [&](unsigned L, unsigned R) {
    return Weight[L] > Weight[R];
  });
  return Idx;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(Part) /
                          static_cast<double>(Whole);
}

} // namespace

std::string obs::buildReport(const Machine &M, const PhaseProfiler *Prof,
                             const ReportOptions &Opts) {
  const sim::SimConfig &Cfg = M.config();
  const sim::Interconnect &Net = M.interconnect();
  unsigned Cores = Cfg.NumCores;
  uint64_t Cycles = M.cycles();

  std::string R;
  R += formatString("run: %s after %llu cycles, %llu retired (ipc %.3f), "
                    "engine %s\n",
                    sim::runStatusName(M.status()),
                    static_cast<unsigned long long>(Cycles),
                    static_cast<unsigned long long>(M.retired()), M.ipc(),
                    M.engineName());
  R += formatString("trace hash: 0x%016llx\n",
                    static_cast<unsigned long long>(M.traceHash()));
  if (!M.faultMessage().empty())
    R += formatString("fault: %s\n", M.faultMessage().c_str());

  // Occupancy and stall breakdown (CollectStallStats).
  uint64_t Issued = M.issuedCoreCycles();
  uint64_t TotalStalls = 0;
  for (unsigned C = 0;
       C != static_cast<unsigned>(Machine::StallCause::NumCauses); ++C)
    TotalStalls += M.stallCycles(static_cast<Machine::StallCause>(C));
  if (Issued + TotalStalls != 0) {
    uint64_t CoreCycles = Issued + TotalStalls;
    R += formatString("\nissue occupancy: %.1f%% (%llu of %llu observed "
                      "core-cycles issued)\n",
                      pct(Issued, CoreCycles),
                      static_cast<unsigned long long>(Issued),
                      static_cast<unsigned long long>(CoreCycles));
    R += "stall breakdown:\n";
    for (unsigned C = 0;
         C != static_cast<unsigned>(Machine::StallCause::NumCauses); ++C) {
      auto Cause = static_cast<Machine::StallCause>(C);
      uint64_t N = M.stallCycles(Cause);
      if (N == 0)
        continue;
      R += formatString("  %-18s %10llu core-cycles  %5.1f%%\n",
                        stallCauseName(Cause),
                        static_cast<unsigned long long>(N),
                        pct(N, CoreCycles));
    }
    R += "per-core occupancy:\n";
    for (unsigned Core = 0; Core != Cores; ++Core) {
      uint64_t CoreIssued = M.issuedCoreCycles(Core);
      uint64_t CoreTotal = CoreIssued;
      for (unsigned C = 0;
           C != static_cast<unsigned>(Machine::StallCause::NumCauses); ++C)
        CoreTotal +=
            M.stallCycles(static_cast<Machine::StallCause>(C), Core);
      R += formatString("  core %-3u %5.1f%% issued\n", Core,
                        pct(CoreIssued, CoreTotal));
    }
  }

  // Protocol traffic and memory counters (CollectCounters).
  const PerfCounters &PC = M.counters();
  if (PC.enabled()) {
    R += formatString("\nx_par protocol: %llu forks, %llu hart-starts, "
                      "%llu hart-ends, %llu token-passes, %llu joins\n",
                      static_cast<unsigned long long>(PC.Forks),
                      static_cast<unsigned long long>(PC.HartStarts),
                      static_cast<unsigned long long>(PC.HartEnds),
                      static_cast<unsigned long long>(PC.TokenPasses),
                      static_cast<unsigned long long>(PC.Joins));
    if (PC.TokenLatency.Count != 0)
      R += formatString("token latency: mean %.1f cycles, max %llu "
                        "(%llu measured)\n",
                        PC.TokenLatency.mean(),
                        static_cast<unsigned long long>(PC.TokenLatency.Max),
                        static_cast<unsigned long long>(
                            PC.TokenLatency.Count));
    if (PC.FaultsInjected + PC.MachineChecks != 0)
      R += formatString("robustness: %llu faults injected, %llu machine "
                        "checks\n",
                        static_cast<unsigned long long>(PC.FaultsInjected),
                        static_cast<unsigned long long>(PC.MachineChecks));

    std::vector<uint64_t> BankTraffic(Cores);
    for (unsigned B = 0; B != Cores; ++B)
      BankTraffic[B] = PC.BankReads[B] + PC.BankWrites[B];
    std::vector<unsigned> Rank = rankDescending(BankTraffic);
    R += "hottest banks (reads+writes, incl. local-port traffic):\n";
    for (unsigned I = 0; I != Rank.size() && I != Opts.TopN; ++I) {
      unsigned B = Rank[I];
      if (BankTraffic[B] == 0)
        break;
      R += formatString("  bank %-3u %10llu accesses (%llu via router "
                        "port, %llu wait cycles)\n",
                        B, static_cast<unsigned long long>(BankTraffic[B]),
                        static_cast<unsigned long long>(
                            Net.bankPortRequests(B)),
                        static_cast<unsigned long long>(
                            Net.bankPortWaitCycles(B)));
    }

    uint32_t RobPeak = 0, SlotPeak = 0;
    for (uint32_t V : PC.RobHigh)
      RobPeak = std::max(RobPeak, V);
    for (uint32_t V : PC.SlotHigh)
      SlotPeak = std::max(SlotPeak, V);
    R += formatString("high-water marks: rob %u of %u, result slots %u "
                      "of %u\n",
                      RobPeak, sim::RobEntries, SlotPeak, sim::ResultSlots);
  }

  // Link traffic is collected unconditionally.
  {
    std::vector<uint64_t> Fwd(Cores), Bwd(Cores);
    uint64_t FwdTotal = 0, BwdTotal = 0;
    for (unsigned Core = 0; Core != Cores; ++Core) {
      Fwd[Core] = Net.forwardPackets(Core);
      Bwd[Core] = Net.backwardPackets(Core);
      FwdTotal += Fwd[Core];
      BwdTotal += Bwd[Core];
    }
    R += formatString("\nlinks: %llu forward packets, %llu backward "
                      "hops, %llu total contention cycles\n",
                      static_cast<unsigned long long>(FwdTotal),
                      static_cast<unsigned long long>(BwdTotal),
                      static_cast<unsigned long long>(
                          M.contentionCycles()));
    std::vector<unsigned> Rank = rankDescending(Fwd);
    for (unsigned I = 0; I != Rank.size() && I != Opts.TopN; ++I) {
      unsigned Core = Rank[I];
      if (Fwd[Core] + Bwd[Core] == 0)
        break;
      R += formatString("  core %-3u %8llu fwd  %8llu bwd\n", Core,
                        static_cast<unsigned long long>(Fwd[Core]),
                        static_cast<unsigned long long>(Bwd[Core]));
    }
  }

  if (Prof) {
    std::vector<PhaseProfiler::Phase> Phases = Prof->phases(Cycles);
    if (!Phases.empty()) {
      R += "\nbarrier phases (split at joins reaching hart 0):\n";
      for (size_t I = 0; I != Phases.size(); ++I) {
        const PhaseProfiler::Phase &P = Phases[I];
        uint64_t Span = P.EndCycle - P.BeginCycle;
        R += formatString("  phase %-3zu cycles %8llu..%-8llu (%7llu) "
                          "%9llu commits  %5llu forks  %9llu bank "
                          "accesses\n",
                          I, static_cast<unsigned long long>(P.BeginCycle),
                          static_cast<unsigned long long>(P.EndCycle),
                          static_cast<unsigned long long>(Span),
                          static_cast<unsigned long long>(P.Commits),
                          static_cast<unsigned long long>(P.Forks),
                          static_cast<unsigned long long>(P.BankAccesses));
      }
    }
  }
  return R;
}
