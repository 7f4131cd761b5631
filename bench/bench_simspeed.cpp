//===- bench/bench_simspeed.cpp - Host simulation-speed benchmark -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures how fast the simulator itself runs (simulated cycles per host
// second and host MIPS) on both engines: the reference loop (FastPath
// off) and the fast path. Every run is also a differential check: the
// engines must agree bit for bit on traceHash(), cycles(), retired() and
// RunStatus. A speedup that changes the event stream is a bug, not a
// result.
//
// The bench also asserts the engines' zero-steady-state allocation
// property: after a warm-up prefix of the periodic barrier workload, the
// rest of the run must perform no heap allocation at all (counted by
// this TU's global operator new). Results are written as JSON (default
// BENCH_simspeed.json; schema in docs/PERFORMANCE.md) so CI can record
// the perf trajectory per PR.
//
// With --counters the bench additionally measures the observability
// layer's cost (docs/OBSERVABILITY.md): the barrier workload runs with
// SimConfig::CollectCounters off and on. The trace hashes must match
// (the counters are hash-neutral by construction), the steady-state
// allocation property must hold with them armed, and the overhead is
// recorded in the JSON.
//
// Every pass/fail property is a gate, evaluated before the JSON is
// written and listed in its "gates" array; "exit_reason" names the first
// failing gate, and the exit status is 0 exactly when it says "ok".
//
// A cell whose first run takes under ShortCellSeconds is repeated
// ShortCellReps times in all, and a longer one LongCellReps times
// (--quick leaves longer cells at one run); each cell records its
// repetition count, the minimum and the median (the reported time) and
// the spread. The JSON's "host" block names the cpus, compiler, build
// type, LTO and commit the numbers came from.
//
// Usage: bench_simspeed [--quick] [--out FILE] [--engines LIST]
//                       [--counters] [--perturb N]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "asm/Assembler.h"
#include "obs/Triage.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <sys/resource.h>

using namespace lbp;

//===----------------------------------------------------------------------===//
// Counting allocator: every heap allocation in the process bumps one
// relaxed atomic. The steady-state assertion below snapshots it around
// the post-warm-up half of a run.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocCount{0};

void *countedAlloc(std::size_t Sz) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Sz) { return countedAlloc(Sz); }
void *operator new[](std::size_t Sz) { return countedAlloc(Sz); }
void *operator new(std::size_t Sz, std::align_val_t) {
  return countedAlloc(Sz);
}
void *operator new[](std::size_t Sz, std::align_val_t) {
  return countedAlloc(Sz);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }

namespace {

constexpr uint32_t OutBase = 0x20000200;

/// A broken bench input or run (assembly failure, a run that does not
/// exit cleanly, a wrong result): there is nothing to measure, so the
/// bench stops before writing any JSON. main() deletes a stale output
/// file first, so no earlier verdict can outlive the failure.
[[noreturn]] void die(const char *Msg) {
  std::fprintf(stderr, "bench_simspeed: %s\n", Msg);
  std::exit(1);
}

/// A barrier-heavy program: `Rounds` back-to-back parallel regions whose
/// workers do almost nothing, so the fork protocol, the in-order p_ret
/// barrier chain and the quiescent waits between team members dominate.
std::string barrierProgram(unsigned NumHarts, unsigned Rounds) {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  // s1 survives the runtime (it only clobbers a*/t*/ra/tp).
  Head.line("li s1, %u", Rounds);
  Head.label("round");
  romp::emitParallelCall(Head, "worker", NumHarts, "0");
  Head.line("addi s1, s1, -1");
  Head.line("bnez s1, round");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() + R"(
    .equ OUT, 0x20000200
worker:
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)";
}

assembler::Program assembleOrDie(const std::string &Source) {
  assembler::AsmResult R = assembler::assemble(Source);
  if (!R.succeeded()) {
    std::fprintf(stderr, "%s", R.errorText().c_str());
    die("bench program failed to assemble");
  }
  return std::move(R.Prog);
}

struct Fingerprint {
  sim::RunStatus Status = sim::RunStatus::MaxCycles;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t Hash = 0;

  bool operator==(const Fingerprint &O) const {
    return Status == O.Status && Cycles == O.Cycles &&
           Retired == O.Retired && Hash == O.Hash;
  }
};

/// One engine cell of a workload.
struct EngineResult {
  std::string Engine; ///< "reference" or "fastpath".
  Fingerprint Fp;
  unsigned Reps = 0;       ///< Timed runs behind the numbers below.
  double MinSeconds = 0.0; ///< Fastest run.
  double HostSeconds = 0.0; ///< Median run; the rates derive from it.
  double SpreadPct = 0.0;   ///< (slowest - fastest) / median, in %.
  double CyclesPerSec = 0.0;
  double Mips = 0.0;
  long PeakRssKb = 0;
  bool Identical = true; ///< Fingerprint matches the first cell's.
};

struct WorkloadResult {
  std::string Name;
  unsigned Cores = 0;
  std::vector<EngineResult> Engines;
  double FastSpeedup = 0.0; ///< reference time / fastpath time.
};

/// One engine cell that broke bit-identity, recorded in the JSON with an
/// embedded lbp-triage-report-v1 document localizing the first divergent
/// trace event, so CI artifacts always say *why* the bench failed.
struct DivergenceRecord {
  std::string Workload;
  std::string RefEngine, Engine;
  Fingerprint Ref, Got;
  std::string TriageJson;
};
std::vector<DivergenceRecord> Divergences;

/// One pass/fail property with its measured value. AtLeast selects the
/// comparison: value >= threshold passes, otherwise value <= threshold.
struct Gate {
  std::string Name;
  double Value = 0.0;
  double Threshold = 0.0;
  bool AtLeast = false;

  bool pass() const {
    return AtLeast ? Value >= Threshold : Value <= Threshold;
  }
};

long peakRssKb() {
  struct rusage Ru;
  if (getrusage(RUSAGE_SELF, &Ru) != 0)
    return 0;
  return Ru.ru_maxrss; // KiB on Linux
}

/// Cells shorter than this run ShortCellReps times: one host hiccup is a
/// large share of a few milliseconds. Longer cells run LongCellReps
/// times, so their median is not one draw of the host's noise either.
constexpr double ShortCellSeconds = 0.05;
constexpr unsigned ShortCellReps = 11;
constexpr unsigned LongCellReps = 3;

/// One timed cell: at least \p MinReps runs, ShortCellReps when the first
/// is short. Only Machine::run is on the clock; assembly and image load
/// are setup. Every run must exit cleanly, pass \p Verify and reproduce
/// the first run's fingerprint — a bench must never report numbers from
/// a broken run.
EngineResult timedRun(const assembler::Program &Prog, sim::SimConfig Cfg,
                      const std::string &Engine, unsigned MinReps,
                      const std::function<void(sim::Machine &)> &Verify) {
  Cfg.FastPath = Engine == "fastpath";
  EngineResult R;
  R.Engine = Engine;
  std::vector<double> Times;
  do {
    sim::Machine M(Cfg);
    M.load(Prog);
    auto T0 = std::chrono::steady_clock::now();
    sim::RunStatus S = M.run();
    auto T1 = std::chrono::steady_clock::now();
    if (S != sim::RunStatus::Exited) {
      std::fprintf(stderr, "%s: %s\n", Engine.c_str(),
                   M.faultMessage().c_str());
      die("a bench run did not exit cleanly");
    }
    Verify(M);
    Fingerprint Fp = {S, M.cycles(), M.retired(), M.traceHash()};
    if (Times.empty())
      R.Fp = Fp;
    else if (!(Fp == R.Fp))
      die("a repeated bench run changed its fingerprint");
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
  } while (Times.size() < MinReps || (Times.front() < ShortCellSeconds &&
                                       Times.size() < ShortCellReps));

  std::sort(Times.begin(), Times.end());
  R.Reps = static_cast<unsigned>(Times.size());
  R.MinSeconds = Times.front();
  R.HostSeconds = Times[Times.size() / 2];
  if (R.HostSeconds > 0.0) {
    R.SpreadPct = (Times.back() - Times.front()) / R.HostSeconds * 100.0;
    R.CyclesPerSec = static_cast<double>(R.Fp.Cycles) / R.HostSeconds;
    R.Mips = static_cast<double>(R.Fp.Retired) / R.HostSeconds / 1e6;
  }
  R.PeakRssKb = peakRssKb();
  return R;
}

struct Options {
  bool Quick = false;
  bool Counters = false;
  std::string OutPath = "BENCH_simspeed.json";
  bool RunReference = true, RunFastPath = true;
  /// Nonzero arms SimConfig::PerturbForTest at that cycle on every
  /// workload cell — a seeded divergence that exercises the whole
  /// divergence -> triage -> JSON pipeline (CI smoke).
  uint64_t Perturb = 0;
};

WorkloadResult
runWorkload(const Options &Opt, const std::string &Name,
            const std::string &Source, sim::SimConfig Cfg,
            const std::function<void(sim::Machine &)> &Verify) {
  assembler::Program Prog = assembleOrDie(Source);
  WorkloadResult W;
  W.Name = Name;
  W.Cores = Cfg.NumCores;
  Cfg.PerturbForTest = Opt.Perturb;

  unsigned MinReps = Opt.Quick ? 1 : LongCellReps;
  if (Opt.RunReference)
    W.Engines.push_back(timedRun(Prog, Cfg, "reference", MinReps, Verify));
  if (Opt.RunFastPath)
    W.Engines.push_back(timedRun(Prog, Cfg, "fastpath", MinReps, Verify));
  if (W.Engines.empty())
    return W;

  const EngineResult &RefE = W.Engines.front();
  for (EngineResult &E : W.Engines) {
    E.Identical = E.Fp == RefE.Fp;
    if (E.Identical)
      continue;
    // Triage the pair on the spot: bisect the digest sequences, replay
    // from the last agreeing snapshot and embed the first-divergent-
    // event report in the JSON payload.
    obs::TriageRunSpec A{RefE.Engine, Cfg}, B{E.Engine, Cfg};
    A.Cfg.FastPath = RefE.Engine == "fastpath";
    B.Cfg.FastPath = E.Engine == "fastpath";
    DivergenceRecord D;
    D.Workload = Name;
    D.RefEngine = RefE.Engine;
    D.Engine = E.Engine;
    D.Ref = RefE.Fp;
    D.Got = E.Fp;
    D.TriageJson =
        obs::triageReportToJson(obs::triageDivergence(Prog, A, B), Name);
    Divergences.push_back(std::move(D));
    std::fprintf(stderr,
                 "bench_simspeed: ENGINE DIVERGENCE on %s (%s):\n"
                 "  %-10s cycles=%llu retired=%llu hash=%016llx\n"
                 "  %-10s cycles=%llu retired=%llu hash=%016llx\n",
                 Name.c_str(), E.Engine.c_str(), RefE.Engine.c_str(),
                 static_cast<unsigned long long>(RefE.Fp.Cycles),
                 static_cast<unsigned long long>(RefE.Fp.Retired),
                 static_cast<unsigned long long>(RefE.Fp.Hash),
                 E.Engine.c_str(),
                 static_cast<unsigned long long>(E.Fp.Cycles),
                 static_cast<unsigned long long>(E.Fp.Retired),
                 static_cast<unsigned long long>(E.Fp.Hash));
  }

  if (W.Engines.size() == 2 && W.Engines[1].HostSeconds > 0.0)
    W.FastSpeedup = W.Engines[0].HostSeconds / W.Engines[1].HostSeconds;

  std::printf("%-24s %3u cores  %10llu cycles", Name.c_str(), W.Cores,
              static_cast<unsigned long long>(RefE.Fp.Cycles));
  for (const EngineResult &E : W.Engines)
    std::printf("  %s %.1f kc/s (x%u, spread %.0f%%)", E.Engine.c_str(),
                E.CyclesPerSec / 1e3, E.Reps, E.SpreadPct);
  std::printf("\n");
  std::fflush(stdout);
  return W;
}

void verifyBarrier(sim::Machine &M, unsigned Harts) {
  for (unsigned T = 0; T != Harts; ++T)
    if (M.debugReadWord(OutBase + 4 * T) != T)
      die("barrier OUT[] wrong");
}

WorkloadResult benchBarrier(const Options &Opt, unsigned Cores,
                            unsigned Rounds) {
  unsigned Harts = 4 * Cores;
  return runWorkload(
      Opt, "barrier-x" + std::to_string(Rounds),
      barrierProgram(Harts, Rounds), sim::SimConfig::lbp(Cores),
      [Harts](sim::Machine &M) { verifyBarrier(M, Harts); });
}

WorkloadResult benchPhases(const Options &Opt, unsigned Harts) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = Harts;
  auto Verify = [Spec](sim::Machine &M) {
    for (unsigned T = 0; T != Spec.NumHarts; ++T)
      if (M.debugReadWord(workloads::phasesOutAddress(Spec, T)) !=
          T * Spec.WordsPerChunk)
        die("phases out[] wrong");
  };
  sim::SimConfig Cfg = sim::SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  return runWorkload(Opt, "phases", workloads::buildPhasesProgram(Spec),
                     Cfg, Verify);
}

WorkloadResult benchMatMul(const Options &Opt, unsigned Harts,
                           workloads::MatMulVersion V) {
  workloads::MatMulSpec Spec = workloads::MatMulSpec::paper(Harts, V);
  auto Verify = [Spec](sim::Machine &M) {
    unsigned H = Spec.h();
    for (unsigned I = 0; I < H; I += H / 8)
      for (unsigned J = 0; J < H; J += H / 8)
        if (M.debugReadWord(workloads::zElementAddress(Spec, I, J)) != H / 2)
          die("matmul Z wrong");
  };
  sim::SimConfig Cfg = sim::SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  return runWorkload(Opt,
                     std::string("matmul-") +
                         workloads::matMulVersionName(Spec.Version) + "-c" +
                         std::to_string(Spec.cores()),
                     workloads::buildMatMulProgram(Spec), Cfg, Verify);
}

/// Steady-state allocation count: runs \p Prog to its midpoint (every
/// vector in the machine reaches its plateau capacity during the first
/// rounds), then counts heap allocations over the rest of the run. The
/// engines promise zero: the delivery wheel's node pool grows only to
/// the peak number of in-flight deliveries and then reuses freed nodes,
/// and DueBuf, the overflow heap, the trace and the counter sink are
/// capacity-reusing flat structures.
uint64_t steadyStateAllocs(const assembler::Program &Prog,
                           const sim::SimConfig &Cfg, unsigned Harts) {
  // Full run once to learn the total cycle count.
  sim::Machine Probe(Cfg);
  Probe.load(Prog);
  if (Probe.run() != sim::RunStatus::Exited)
    die("allocation probe run failed");

  // Warm-up to the midpoint, then measure the remainder.
  sim::Machine M(Cfg);
  M.load(Prog);
  if (M.run(Probe.cycles() / 2) != sim::RunStatus::MaxCycles)
    die("allocation warm-up ended early");
  uint64_t Before = GAllocCount.load(std::memory_order_relaxed);
  if (M.run() != sim::RunStatus::Exited)
    die("allocation measured run failed");
  uint64_t After = GAllocCount.load(std::memory_order_relaxed);
  verifyBarrier(M, Harts);
  return After - Before;
}

/// Cost of one observability knob on the barrier workload: best-of-5
/// host time with the knob off and on, whether the trace hash stayed
/// the same, and the steady-state allocations with the knob on.
struct KnobCost {
  double DisabledSeconds = 0.0;
  double EnabledSeconds = 0.0;
  double OverheadPct = 0.0;
  bool HashIdentical = true;
  uint64_t SteadyAllocs = 0;
};

KnobCost benchKnob(const Options &Opt, const char *What,
                   const std::function<void(sim::SimConfig &, bool)> &Set) {
  unsigned Cores = Opt.Quick ? 4 : 16;
  unsigned Rounds = Opt.Quick ? 8 : 16;
  unsigned Harts = 4 * Cores;
  assembler::Program Prog = assembleOrDie(barrierProgram(Harts, Rounds));
  sim::SimConfig Cfg = sim::SimConfig::lbp(Cores);

  uint64_t Hash[2] = {0, 0};
  double Best[2] = {0.0, 0.0};
  // Off and on alternate, so a host that slows down mid-measurement
  // slows both sides alike; the best of 5 damps the remaining noise.
  for (int Rep = 0; Rep != 5; ++Rep) {
    for (int On = 0; On != 2; ++On) {
      sim::SimConfig C = Cfg;
      Set(C, On);
      sim::Machine M(C);
      M.load(Prog);
      auto T0 = std::chrono::steady_clock::now();
      if (M.run() != sim::RunStatus::Exited)
        die("knob-cost run failed");
      auto T1 = std::chrono::steady_clock::now();
      verifyBarrier(M, Harts);
      Hash[On] = M.traceHash();
      double Sec = std::chrono::duration<double>(T1 - T0).count();
      if (Rep == 0 || Sec < Best[On])
        Best[On] = Sec;
    }
  }

  KnobCost Cost;
  Cost.DisabledSeconds = Best[0];
  Cost.EnabledSeconds = Best[1];
  Cost.HashIdentical = Hash[0] == Hash[1];
  if (Cost.DisabledSeconds > 0.0)
    Cost.OverheadPct = (Cost.EnabledSeconds - Cost.DisabledSeconds) /
                       Cost.DisabledSeconds * 100.0;
  sim::SimConfig C = Cfg;
  Set(C, true);
  Cost.SteadyAllocs = steadyStateAllocs(Prog, C, Harts);
  std::printf("%s: overhead %.1f%% (off %.3fs, on %.3fs), hash %s, "
              "%llu steady-state allocations\n",
              What, Cost.OverheadPct, Cost.DisabledSeconds,
              Cost.EnabledSeconds,
              Cost.HashIdentical ? "identical" : "CHANGED",
              static_cast<unsigned long long>(Cost.SteadyAllocs));
  return Cost;
}

void writeKnob(std::FILE *F, const char *Key, const KnobCost &C) {
  std::fprintf(F,
               "  \"%s\": {\"disabled_seconds\": %.6f, "
               "\"enabled_seconds\": %.6f, \"overhead_pct\": %.2f, "
               "\"steady_state_allocs\": %llu, \"hash_identical\": %s},\n",
               Key, C.DisabledSeconds, C.EnabledSeconds, C.OverheadPct,
               static_cast<unsigned long long>(C.SteadyAllocs),
               C.HashIdentical ? "true" : "false");
}

void writeJson(const Options &Opt, const std::vector<WorkloadResult> &Results,
               const std::vector<Gate> &Gates, const std::string &ExitReason,
               uint64_t RefAllocs, uint64_t FastAllocs,
               const KnobCost *Counters) {
  std::FILE *F = std::fopen(Opt.OutPath.c_str(), "w");
  if (!F)
    die("cannot open the JSON output file");
  std::fprintf(F, "{\n  \"bench\": \"simspeed\",\n  \"quick\": %s,\n",
               Opt.Quick ? "true" : "false");
  std::fprintf(F, "  \"host\": %s,\n", bench::hostJson().c_str());
  std::fprintf(F, "  \"exit_reason\": \"%s\",\n", ExitReason.c_str());
  std::fprintf(F, "  \"gates\": [");
  for (size_t I = 0; I != Gates.size(); ++I) {
    const Gate &G = Gates[I];
    std::fprintf(F,
                 "%s\n    {\"name\": \"%s\", \"value\": %.6g, "
                 "\"threshold\": %.6g, \"op\": \"%s\", \"pass\": %s}",
                 I ? "," : "", G.Name.c_str(), G.Value, G.Threshold,
                 G.AtLeast ? ">=" : "<=", G.pass() ? "true" : "false");
  }
  std::fprintf(F, "%s],\n", Gates.empty() ? "" : "\n  ");
  std::fprintf(F, "  \"divergences\": [");
  for (size_t I = 0; I != Divergences.size(); ++I) {
    const DivergenceRecord &D = Divergences[I];
    std::fprintf(F,
                 "%s\n    {\"workload\": \"%s\", \"engine\": \"%s\", "
                 "\"reference_engine\": \"%s\",\n"
                 "     \"reference\": {\"cycles\": %llu, \"retired\": %llu, "
                 "\"trace_hash\": \"%016llx\"},\n"
                 "     \"got\": {\"cycles\": %llu, \"retired\": %llu, "
                 "\"trace_hash\": \"%016llx\"},\n"
                 "     \"triage\": %s}",
                 I ? "," : "", D.Workload.c_str(), D.Engine.c_str(),
                 D.RefEngine.c_str(),
                 static_cast<unsigned long long>(D.Ref.Cycles),
                 static_cast<unsigned long long>(D.Ref.Retired),
                 static_cast<unsigned long long>(D.Ref.Hash),
                 static_cast<unsigned long long>(D.Got.Cycles),
                 static_cast<unsigned long long>(D.Got.Retired),
                 static_cast<unsigned long long>(D.Got.Hash),
                 D.TriageJson.c_str());
  }
  std::fprintf(F, "%s],\n", Divergences.empty() ? "" : "\n  ");
  std::fprintf(F,
               "  \"steady_state_allocs\": {\"reference\": %llu, "
               "\"fastpath\": %llu},\n",
               static_cast<unsigned long long>(RefAllocs),
               static_cast<unsigned long long>(FastAllocs));
  if (Counters)
    writeKnob(F, "counters", *Counters);
  std::fprintf(F, "  \"workloads\": [\n");
  for (size_t I = 0; I != Results.size(); ++I) {
    const WorkloadResult &W = Results[I];
    const Fingerprint &Fp = W.Engines.front().Fp;
    std::fprintf(F, "    {\n      \"name\": \"%s\",\n"
                    "      \"cores\": %u,\n      \"harts\": %u,\n",
                 W.Name.c_str(), W.Cores, 4 * W.Cores);
    std::fprintf(F,
                 "      \"sim_cycles\": %llu,\n      \"retired\": %llu,\n"
                 "      \"trace_hash\": \"%016llx\",\n",
                 static_cast<unsigned long long>(Fp.Cycles),
                 static_cast<unsigned long long>(Fp.Retired),
                 static_cast<unsigned long long>(Fp.Hash));
    std::fprintf(F, "      \"engines\": [\n");
    for (size_t J = 0; J != W.Engines.size(); ++J) {
      const EngineResult &E = W.Engines[J];
      std::fprintf(F,
                   "        {\"engine\": \"%s\", \"reps\": %u, "
                   "\"min_seconds\": %.6f, \"host_seconds\": %.6f, "
                   "\"spread_pct\": %.1f, "
                   "\"cycles_per_sec\": %.1f, \"mips\": %.3f, "
                   "\"peak_rss_kb\": %ld, \"identical\": %s}%s\n",
                   E.Engine.c_str(), E.Reps, E.MinSeconds, E.HostSeconds,
                   E.SpreadPct, E.CyclesPerSec, E.Mips, E.PeakRssKb,
                   E.Identical ? "true" : "false",
                   J + 1 == W.Engines.size() ? "" : ",");
    }
    std::fprintf(F, "      ],\n");
    std::fprintf(F, "      \"fastpath_speedup\": %.3f\n    }%s\n",
                 W.FastSpeedup, I + 1 == Results.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Opt.OutPath.c_str());
}

void printUsage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: bench_simspeed [options]\n"
      "\n"
      "Host simulation-speed benchmark and engine differential\n"
      "(reference loop vs fast path).\n"
      "\n"
      "  --help           this text\n"
      "  --quick          small configs only (CI smoke)\n"
      "  --out FILE       JSON output path (default BENCH_simspeed.json)\n"
      "  --engines LIST   comma-separated subset of reference,fastpath\n"
      "                   (default both)\n"
      "  --counters       also measure the deterministic counter set's\n"
      "                   overhead (hash-neutrality and steady-state\n"
      "                   allocation gated; docs/OBSERVABILITY.md)\n"
      "  --perturb N      arm SimConfig::PerturbForTest at cycle N so the\n"
      "                   differential diverges on purpose; the\n"
      "                   divergence records then embed triage reports\n"
      "\n"
      "Exit status: 0 when every gate passes (\"exit_reason\": \"ok\");\n"
      "1 when a gate fails (exit_reason names the first) or a bench run\n"
      "is broken (no JSON then); 2 bad command line.\n");
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0) {
      printUsage(stdout);
      return 0;
    }
    if (std::strcmp(argv[I], "--quick") == 0) {
      Opt.Quick = true;
    } else if (std::strcmp(argv[I], "--counters") == 0) {
      Opt.Counters = true;
    } else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc) {
      Opt.OutPath = argv[++I];
    } else if (std::strcmp(argv[I], "--perturb") == 0) {
      if (!parseFlagInteger("bench_simspeed", argc, argv, I, 1, INT64_MAX,
                            Opt.Perturb)) {
        printUsage(stderr);
        return 2;
      }
    } else if (std::strcmp(argv[I], "--engines") == 0 && I + 1 < argc) {
      Opt.RunReference = Opt.RunFastPath = false;
      std::string List = argv[++I];
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        std::string Name = List.substr(
            Pos, Comma == std::string::npos ? Comma : Comma - Pos);
        if (Name == "reference")
          Opt.RunReference = true;
        else if (Name == "fastpath")
          Opt.RunFastPath = true;
        else {
          std::fprintf(stderr,
                       "bench_simspeed: unknown engine '%s' (expected "
                       "reference or fastpath)\n",
                       Name.c_str());
          return 2;
        }
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
    } else {
      std::fprintf(stderr, "bench_simspeed: unknown option '%s'\n",
                   argv[I]);
      printUsage(stderr);
      return 2;
    }
  }
  // No stale verdict may survive a run that dies before writing one.
  std::remove(Opt.OutPath.c_str());

  // The allocation check runs first (it is also a correctness run).
  assembler::Program AllocProg =
      assembleOrDie(barrierProgram(/*NumHarts=*/16, /*Rounds=*/12));
  sim::SimConfig AllocCfg = sim::SimConfig::lbp(4);
  AllocCfg.FastPath = false;
  uint64_t RefAllocs = steadyStateAllocs(AllocProg, AllocCfg, 16);
  AllocCfg.FastPath = true;
  uint64_t FastAllocs = steadyStateAllocs(AllocProg, AllocCfg, 16);
  std::printf("steady-state allocations: reference %llu, fastpath %llu\n",
              static_cast<unsigned long long>(RefAllocs),
              static_cast<unsigned long long>(FastAllocs));

  std::vector<WorkloadResult> Results;
  if (Opt.Quick) {
    Results.push_back(benchBarrier(Opt, 4, 8));
    Results.push_back(benchPhases(Opt, 16));
  } else {
    Results.push_back(benchBarrier(Opt, 4, 32));
    Results.push_back(benchBarrier(Opt, 16, 16));
    Results.push_back(benchBarrier(Opt, 64, 8));
    Results.push_back(benchPhases(Opt, 16));
    Results.push_back(benchPhases(Opt, 64));
    Results.push_back(benchMatMul(Opt, 16, workloads::MatMulVersion::Base));
    Results.push_back(benchMatMul(Opt, 64, workloads::MatMulVersion::Tiled));
    Results.push_back(
        benchMatMul(Opt, 256, workloads::MatMulVersion::Tiled));
  }

  KnobCost Counters;
  if (Opt.Counters)
    Counters = benchKnob(Opt, "counters", [](sim::SimConfig &C, bool On) {
      C.CollectCounters = On;
    });

  // Every gate is evaluated here, before the JSON is written, so the
  // file and the exit status always tell the same story.
  std::vector<Gate> Gates;
  Gates.push_back({"engine-divergence",
                   static_cast<double>(Divergences.size()), 0, false});
  Gates.push_back({"steady-state-allocs",
                   static_cast<double>(RefAllocs + FastAllocs), 0, false});
  if (!Opt.Quick && Opt.RunReference && Opt.RunFastPath)
    for (const WorkloadResult &W : Results)
      if (W.Cores == 64 && W.Name.rfind("barrier", 0) == 0)
        Gates.push_back({"fastpath-speedup-barrier-c64", W.FastSpeedup, 3.0,
                         true});
  if (Opt.Counters) {
    Gates.push_back({"counters-hash-changed",
                     Counters.HashIdentical ? 0.0 : 1.0, 0, false});
    Gates.push_back({"counters-steady-state-allocs",
                     static_cast<double>(Counters.SteadyAllocs), 0, false});
  }
  std::string ExitReason = "ok";
  for (const Gate &G : Gates) {
    if (G.pass())
      continue;
    std::fprintf(stderr,
                 "bench_simspeed: gate %s failed: %.6g (want %s %.6g)\n",
                 G.Name.c_str(), G.Value, G.AtLeast ? ">=" : "<=",
                 G.Threshold);
    if (ExitReason == "ok")
      ExitReason = G.Name;
  }

  writeJson(Opt, Results, Gates, ExitReason, RefAllocs, FastAllocs,
            Opt.Counters ? &Counters : nullptr);
  return ExitReason == "ok" ? 0 : 1;
}
