//===- lbpbench/main.cpp - The repo benchmark -----------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for a fixed host time, checks every output, and
// prints every metric by name with its unit; the last stdout line is a
// JSON object {"correct", "attempted", "failed", "metrics"}. Without
// --trace the metrics are the end-to-end ones (see README.md); with
// --trace 1 they are the per-layer ones, computed from in-memory spans
// that are also written to <out>/spans-<workload>-seed<seed>.json.
//
// Usage: lbpbench --workload matmul-dense|sync-barrier|fleet-ckpt
//                 --seed N --seconds S --trace 0|1
//                 [--commit SHA] [--out DIR]
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// JSON line still says which counts), 2 on a bad command line or a
// build that is not Release.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Harness.h"
#include "HostProbe.h"
#include "Spans.h"
#include "Stats.h"

#include "workloads/MatMul.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace lbp;
using namespace lbpbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Commit = "unknown";
  std::string OutDir = ".bench_out";
};

/// Set-up is repeated this many times per invocation; setup_s is the
/// median, and every repeat must reproduce the first one's fingerprints.
constexpr unsigned SetupRepeats = 5;
/// Programs per sync-barrier run and images per fleet-ckpt campaign.
constexpr unsigned SyncPrograms = 8;
constexpr unsigned FleetImages = 16;
/// Op ids of the untimed engine differential and of the fleet replays.
constexpr int64_t DifferentialOp = -100;
constexpr int64_t ReplayOpBase = 1000000;

/// Attempted and failed checks; a failure also goes to stderr.
struct Tally {
  uint64_t Attempted = 0, Failed = 0;

  void check(bool Ok, const char *What, const std::string &Name) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "lbpbench: check failed: %s (%s)\n", What,
                   Name.c_str());
    }
  }
};

/// Program generation, codegen, assembly and the in-process reference
/// fingerprints for one workload. Returns false when a program could
/// not be built (a failed run is counted in \p T instead).
bool buildSetup(const Options &Opt, SpanLog &Log, int64_t Op, Tally &T,
                std::vector<BenchProgram> &Progs) {
  SpanLog::Scope Whole = Log.scope("setup", Opt.Workload, Op);
  Progs.clear();
  if (Opt.Workload == "matmul-dense") {
    std::shared_ptr<const MatMulInputs> In;
    {
      SpanLog::Scope Sc = Log.scope("gen.inputs", "", Op);
      In = std::make_shared<const MatMulInputs>(makeMatMulInputs(Opt.Seed));
    }
    for (workloads::MatMulVersion V :
         {workloads::MatMulVersion::Tiled, workloads::MatMulVersion::Base}) {
      BenchProgram P;
      if (!buildMatMul(V, In, Log, Op, P))
        return false;
      Progs.push_back(std::move(P));
    }
  } else {
    bool Fleet = Opt.Workload == "fleet-ckpt";
    unsigned N = Fleet ? FleetImages : SyncPrograms;
    SyncSchedule First;
    for (unsigned K = 0; K != N; ++K) {
      SyncSchedule S =
          makeSyncSchedule(subSeed(Opt.Seed, Fleet ? 1000 + K : K));
      BenchProgram P;
      if (!buildSync("sb" + std::to_string(K), S, /*DetC=*/false, Log, Op, P))
        return false;
      Progs.push_back(std::move(P));
      if (K == 0)
        First = S;
    }
    // The first schedule again through the Det-C translator: it must
    // leave the same words in memory as the romp-emitted program.
    BenchProgram D;
    if (!buildSync("detc", First, /*DetC=*/true, Log, Op, D))
      return false;
    T.check(runOp(D, Log, Op).Ok, "Det-C program output", D.Name);
  }
  for (BenchProgram &P : Progs) {
    OpSample S = runOp(P, Log, Op);
    T.check(S.Ok, "reference run output", P.Name);
    P.Ref = S.Fp;
  }
  return true;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Peak RSS of this process without the host probe's table (resident
/// from the start of main, so it adds exactly its size), plus that of
/// its largest child when \p WithChildren.
double peakRssMb(bool WithChildren) {
  struct rusage Self {}, Kids {};
  getrusage(RUSAGE_SELF, &Self);
  long Kb = Self.ru_maxrss -
            static_cast<long>(HostProbe::TableBytes / 1024);
  if (WithChildren && getrusage(RUSAGE_CHILDREN, &Kids) == 0)
    Kb += Kids.ru_maxrss;
  return static_cast<double>(Kb) / 1024.0;
}

/// One end-to-end sample: a round of ops (matmul: one tiled and one
/// base op) or one fleet campaign.
struct Round {
  double RunS = 0, WallS = 0;
  uint64_t Retired = 0, Cycles = 0, Runs = 0;
  /// The host probe's slowdown sampled right after the round; 1 for a
  /// fleet campaign, whose rates are reported as measured.
  double Slowdown = 1;
};

/// Metric name -> (value, unit), printed in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> List;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    List.push_back({Name, {Value, Unit}});
  }
};

std::string hostJson(const Options &Opt) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"lto\": %s, \"commit\": \"%s\", "
                "\"sim_host_threads\": 1, \"fleet_workers\": %u}",
                sysconf(_SC_NPROCESSORS_ONLN), LBPBENCH_COMPILER,
                LBPBENCH_BUILD_TYPE, LBPBENCH_LTO ? "true" : "false",
                Opt.Commit.c_str(), FleetWorkers);
  return Buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: lbpbench --workload matmul-dense|sync-barrier|"
               "fleet-ckpt --seed N --seconds S --trace 0|1\n"
               "                [--commit SHA] [--out DIR]\n");
}

bool parseArgs(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Opt.Workload = V;
    } else if (A == "--seed") {
      Opt.Seed = std::strtoull(V, &End, 10);
      if (*V == '\0' || *V == '-' || *End != '\0')
        return false;
    } else if (A == "--seconds") {
      Opt.Seconds = std::strtod(V, &End);
      if (*End != '\0' || !(Opt.Seconds > 0.0) || Opt.Seconds > 3600.0)
        return false;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        return false;
      Opt.Trace = V[0] == '1';
    } else if (A == "--commit") {
      Opt.Commit = V;
    } else if (A == "--out") {
      Opt.OutDir = V;
    } else {
      return false;
    }
  }
  return Opt.Workload == "matmul-dense" || Opt.Workload == "sync-barrier" ||
         Opt.Workload == "fleet-ckpt";
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    usage();
    return 2;
  }
  if (std::strcmp(LBPBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "lbpbench: refusing to report timings from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 LBPBENCH_BUILD_TYPE);
    return 2;
  }
  // The fleet's injected crash aborts a worker; keep it from dumping
  // core into the working directory.
  struct rlimit NoCore {0, 0};
  setrlimit(RLIMIT_CORE, &NoCore);
  std::string CkptDir = Opt.OutDir + "/ckpt";
  mkdir(Opt.OutDir.c_str(), 0755);
  mkdir(CkptDir.c_str(), 0755);

  const bool Fleet = Opt.Workload == "fleet-ckpt";
  const bool MatMul = Opt.Workload == "matmul-dense";
  const std::string Host = hostJson(Opt);
  std::printf("host %s\n", Host.c_str());

  HostProbe Probe;
  SpanLog Log(Opt.Trace);
  Tally T;

  // -- Set-up; setup_s is the median of SetupRepeats ----------------------
  // Each set-up time is also kept divided by the probe's slowdown just
  // before it (HostProbe.h).
  std::vector<BenchProgram> Progs;
  std::vector<double> SetupTimes, SetupAtRef;
  Probe.sample();
  {
    auto T0 = std::chrono::steady_clock::now();
    if (!buildSetup(Opt, Log, -1, T, Progs))
      return 1;
    SetupTimes.push_back(secondsSince(T0));
    SetupAtRef.push_back(SetupTimes.back() / Probe.latest());
  }
  // The repeats are spread over the timed window (one is due each time
  // another 1/SetupRepeats of it has passed), so a few slow seconds on
  // the host cannot slow them all.
  std::chrono::steady_clock::time_point Start;
  auto RepeatSetup = [&](bool OnlyWhenDue) {
    double Due = Opt.Seconds * static_cast<double>(SetupTimes.size()) /
                 SetupRepeats;
    if (SetupTimes.size() == SetupRepeats ||
        (OnlyWhenDue && secondsSince(Start) < Due))
      return;
    std::vector<BenchProgram> Again;
    auto T0 = std::chrono::steady_clock::now();
    int64_t Op = -1 - static_cast<int64_t>(SetupTimes.size());
    bool Built = buildSetup(Opt, Log, Op, T, Again);
    SetupTimes.push_back(secondsSince(T0));
    SetupAtRef.push_back(SetupTimes.back() / Probe.latest());
    for (size_t I = 0; I != Progs.size(); ++I)
      T.check(Built && Again[I].Ref == Progs[I].Ref,
              "same-seed set-up fingerprint", Progs[I].Name);
  };

  // -- Untimed engine differential: the FastPath=false oracle ------------
  for (size_t I = 0; I != (MatMul ? Progs.size() : 1); ++I) {
    OpSample S = runOp(Progs[I], Log, DifferentialOp, /*FastPath=*/false);
    T.check(S.Ok && S.Fp == Progs[I].Ref, "engine differential",
            Progs[I].Name);
  }

  // -- Timed ops --------------------------------------------------------
  std::vector<Round> Rounds;
  std::vector<OpSample> Ops;          // matmul-dense / sync-barrier
  std::vector<unsigned> OpProgram;    // index into Progs per op
  std::vector<fleet::CampaignResult> Campaigns;
  int CrashRun = static_cast<int>(Opt.Seed % FleetImages);
  fleet::FleetConfig FC = fleetConfig(CkptDir, CrashRun);
  Start = std::chrono::steady_clock::now();
  if (!Fleet) {
    // Whole passes over the program set; in a traced run every other
    // pass collects counters, so each program is timed both ways.
    size_t N = Progs.size();
    size_t RoundOps = MatMul ? N : 1;
    for (int64_t Op = 0;; ++Op) {
      size_t Pass = static_cast<size_t>(Op) / N;
      if (static_cast<size_t>(Op) % N == 0) {
        if (secondsSince(Start) >= Opt.Seconds && Pass >= (Opt.Trace ? 2 : 1))
          break;
        RepeatSetup(/*OnlyWhenDue=*/true);
      }
      unsigned PI = static_cast<unsigned>(Op % N);
      OpSample S = runOp(Progs[PI], Log, Op, true, Opt.Trace && Pass % 2);
      T.check(S.Ok && S.Fp == Progs[PI].Ref, "timed op", Progs[PI].Name);
      if (static_cast<size_t>(Op) % RoundOps == 0)
        Rounds.emplace_back();
      Round &R = Rounds.back();
      R.RunS += S.Run;
      R.WallS += S.Total;
      R.Retired += S.Fp.Retired;
      R.Cycles += S.Fp.Cycles;
      ++R.Runs;
      Ops.push_back(S);
      OpProgram.push_back(PI);
      Probe.sample();
      R.Slowdown = Probe.latest();
    }
  } else {
    std::vector<assembler::Program> Images;
    for (const BenchProgram &P : Progs)
      Images.push_back(P.Image);
    std::vector<fleet::RunSpec> Specs = fleetSpecs(Progs);
    for (int64_t Op = 0; Op == 0 || secondsSince(Start) < Opt.Seconds;
         ++Op) {
      RepeatSetup(/*OnlyWhenDue=*/true);
      SpanLog::Scope Sc = Log.scope("fleet.campaign", "", Op);
      fleet::CampaignResult C = fleet::runCampaign(Images, Specs, FC);
      Round R;
      R.WallS = R.RunS = Sc.stop();
      for (size_t I = 0; I != C.Runs.size(); ++I) {
        const fleet::RunResult &Run = C.Runs[I];
        Fingerprint Fp{Run.Status, Run.Cycles, Run.Retired, Run.TraceHash};
        bool Crashed = static_cast<int>(I) == CrashRun;
        T.check(Run.V == fleet::Verdict::Pass && Fp == Progs[I].Ref,
                "campaign run verdict and fingerprint", Run.Name);
        T.check(Run.Attempts.size() == (Crashed ? 2u : 1u) &&
                    Run.ResumedFromCheckpoint == Crashed,
                "campaign attempts and resume", Run.Name);
        R.Retired += Run.Retired;
        R.Cycles += Run.Cycles;
        ++R.Runs;
      }
      Rounds.push_back(R);
      Campaigns.push_back(std::move(C));
      // For the set-up repeats only: the campaign ran in two workers on
      // other vCPUs, which this process's probe does not see, so its
      // rates stay as measured.
      Probe.sample();
    }
  }
  while (SetupTimes.size() != SetupRepeats)
    RepeatSetup(/*OnlyWhenDue=*/false);
  double PeakRss = peakRssMb(Fleet);

  // -- Fleet replay (traced runs): each campaign run in-process, once
  // without and once with counters, interleaved so host drift hits both.
  std::vector<ReplayResult> Replays[2]; // [counters off, on]
  if (Fleet && Opt.Trace) {
    std::string Path = CkptDir + "/replay.ckpt";
    for (unsigned I = 0; I != Progs.size(); ++I)
      for (int Counters = 0; Counters != 2; ++Counters) {
        ReplayResult R = replayFleetRun(
            Progs[I], FC, Path, static_cast<int>(I) == CrashRun, Log,
            ReplayOpBase + Counters * 1000 + I, Counters);
        T.check(R.Ok && R.Fp == Progs[I].Ref &&
                    R.Resumed == (static_cast<int>(I) == CrashRun),
                "fleet replay fingerprint", Progs[I].Name);
        Replays[Counters].push_back(R);
      }
  }

  // -- Report -----------------------------------------------------------
  uint64_t PassCycles = 0, PassRetired = 0, PassHash = 0;
  for (const BenchProgram &P : Progs) {
    PassCycles += P.Ref.Cycles;
    PassRetired += P.Ref.Retired;
    PassHash = PassHash * 0x100000001b3ULL ^ P.Ref.Hash;
  }
  std::printf("workload %s seed %llu: %zu rounds, %llu checks, %llu failed, "
              "error_rate %.6f\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Rounds.size(), static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed),
              static_cast<double>(T.Failed) /
                  static_cast<double>(T.Attempted));
  std::printf("sim_cycles %llu (one pass over %zu programs), trace_hash "
              "%016llx\n",
              static_cast<unsigned long long>(PassCycles), Progs.size(),
              static_cast<unsigned long long>(PassHash));

  std::printf("host probe: slowdown %.4f (median of %zu passes, reference "
              "%.4g s)\n",
              Probe.slowdown(), Probe.samples().size(),
              HostProbe::ReferenceSeconds);
  Metrics M;
  if (!Opt.Trace) {
    // Host times at the reference host speed: each round's rate times
    // the probe's slowdown right after it (HostProbe.h), each set-up
    // time over the slowdown right before it.
    std::vector<double> Mips, Cps, RunsPerS, RawMips, RawCps, RawRunsPerS;
    for (const Round &R : Rounds) {
      RawMips.push_back(static_cast<double>(R.Retired) / R.RunS / 1e6);
      RawCps.push_back(static_cast<double>(R.Cycles) / R.RunS);
      RawRunsPerS.push_back(static_cast<double>(R.Runs) / R.WallS);
      Mips.push_back(RawMips.back() * R.Slowdown);
      Cps.push_back(RawCps.back() * R.Slowdown);
      RunsPerS.push_back(RawRunsPerS.back() * R.Slowdown);
    }
    std::printf("as measured: mips %.6g, sim_cycles_per_s %.6g, runs_per_s "
                "%.6g, setup_s %.6g\n",
                median(RawMips), median(RawCps), median(RawRunsPerS),
                median(SetupTimes));
    M.add("mips", median(Mips), "MIPS");
    M.add("sim_cycles_per_s", median(Cps), "cycles/s");
    M.add("runs_per_s", median(RunsPerS), "1/s");
    M.add("setup_s", median(SetupAtRef), "s");
    M.add("peak_rss_mb", PeakRss, "MB");
    M.add("sim_cycles", static_cast<double>(PassCycles), "cycles");
    M.add("ipc",
          static_cast<double>(PassRetired) / static_cast<double>(PassCycles),
          "instr/cycle");
    std::vector<double> Wall;
    for (const Round &R : Rounds)
      Wall.push_back(R.WallS);
    std::array<double, 3> Q = quartiles(Wall);
    Tail Tl = tailPercentile(Wall);
    std::printf("round wall time: p25 %.6f s, p50 %.6f s, p75 %.6f s, "
                "p%g %.6f s over %zu rounds\n",
                Q[0], Q[1], Q[2], Tl.Percentile, Tl.Value, Tl.Samples);
  } else {
    auto SetupSum = [&](const char *Name) {
      return median(Log.perOpTotals(Name, /*Setup=*/true));
    };
    uint64_t TextBytes = 0;
    for (const BenchProgram &P : Progs)
      TextBytes += P.Image.textSize();
    M.add("asm.assemble_s", SetupSum("asm.assemble"), "s");
    M.add("asm.text_bytes", static_cast<double>(TextBytes), "bytes");
    M.add("dsl.codegen_s", SetupSum("dsl.codegen"), "s");
    M.add("romp.emit_s", SetupSum("romp.emit"), "s");
    M.add("frontend.compile_s", SetupSum("frontend.compile"), "s");

    // Runs without counters give the speeds; runs with counters give the
    // deterministic counts (one pass over the program set).
    std::vector<double> RunS = Log.perOpTotals("sim.run");
    double RunSum = 0, RetSum = 0, CycSum = 0, EvSum = 0;
    SimCounts Pass;
    double OverheadPct = 0;
    if (!Fleet) {
      std::vector<bool> Seen(Progs.size(), false);
      std::vector<uint64_t> EventsOf(Progs.size(), 0);
      for (size_t I = 0; I != Ops.size(); ++I)
        if (Ops[I].Counted && !Seen[OpProgram[I]]) {
          Seen[OpProgram[I]] = true;
          Pass.add(Ops[I].Counts);
          EventsOf[OpProgram[I]] = Ops[I].Counts.Events;
        }
      for (size_t I = 0; I != Ops.size(); ++I)
        if (!Ops[I].Counted) {
          RunSum += Ops[I].Run;
          RetSum += static_cast<double>(Ops[I].Fp.Retired);
          CycSum += static_cast<double>(Ops[I].Fp.Cycles);
          EvSum += static_cast<double>(EventsOf[OpProgram[I]]);
        }
      double Ratio = 0;
      for (const BenchProgram &P : Progs)
        Ratio += median(Log.durations("sim.run+counters", P.Name)) /
                 median(Log.durations("sim.run", P.Name));
      OverheadPct = (Ratio / static_cast<double>(Progs.size()) - 1.0) * 100;
    } else {
      double TracedSum = 0;
      for (const ReplayResult &R : Replays[1])
        Pass.add(R.Counts);
      for (const BenchProgram &P : Progs) {
        RetSum += static_cast<double>(P.Ref.Retired);
        CycSum += static_cast<double>(P.Ref.Cycles);
      }
      EvSum = static_cast<double>(Pass.Events);
      for (double S : RunS)
        RunSum += S;
      for (double S : Log.perOpTotals("sim.run+counters"))
        TracedSum += S;
      OverheadPct = (TracedSum / RunSum - 1.0) * 100;
    }
    M.add("sim.construct_load_s",
          median(Fleet ? Log.perOpTotals("sim.construct_load")
                    : Log.durations("sim.construct_load")),
          "s");
    Tail RunTail = tailPercentile(RunS);
    M.add("sim.run_s", median(RunS), "s");
    M.add("sim.run_s.tail", RunTail.Value, "s");
    M.add("sim.run_s.tail_percentile", RunTail.Percentile, "%");
    M.add("sim.run_s.samples", static_cast<double>(RunTail.Samples), "count");
    M.add("sim.run_s.tiled", median(Log.durations("sim.run", "tiled")), "s");
    M.add("sim.run_s.base", median(Log.durations("sim.run", "base")), "s");
    M.add("sim.ns_per_retired", RunSum / RetSum * 1e9, "ns");
    M.add("sim.ns_per_event", RunSum / EvSum * 1e9, "ns");
    M.add("sim.ns_per_cycle", RunSum / CycSum * 1e9, "ns");
    M.add("sim.verify_s", median(Log.durations("bench.verify")), "s");
    M.add("sim.trace_events", static_cast<double>(Pass.Events), "count");
    M.add("sim.commits", static_cast<double>(Pass.Commits), "count");
    M.add("sim.forks", static_cast<double>(Pass.Forks), "count");
    M.add("sim.token_passes", static_cast<double>(Pass.TokenPasses), "count");
    M.add("sim.joins", static_cast<double>(Pass.Joins), "count");
    M.add("sim.bank_accesses", static_cast<double>(Pass.BankAccesses),
          "count");
    M.add("sim.local_accesses", static_cast<double>(Pass.LocalAccesses),
          "count");
    M.add("sim.remote_accesses", static_cast<double>(Pass.RemoteAccesses),
          "count");
    M.add("sim.contention_cycles", static_cast<double>(Pass.ContentionCycles),
          "cycles");

    double CampaignS = median(Log.durations("fleet.campaign"));
    double ReplayS = 0, Saves = 0, BlobBytes = 0, Attempts = 0;
    for (const ReplayResult &R : Replays[0]) {
      Saves += R.Saves;
      BlobBytes = static_cast<double>(R.BlobBytes);
      ReplayS += R.Seconds;
    }
    for (const fleet::CampaignResult &C : Campaigns)
      for (const fleet::RunResult &Run : C.Runs)
        Attempts += static_cast<double>(Run.Attempts.size());
    double Runs = Fleet ? FleetImages : 1;
    M.add("snapshot.save_s", median(Log.durations("snapshot.save")), "s");
    M.add("snapshot.write_s", median(Log.durations("snapshot.write")), "s");
    M.add("snapshot.restore_s", median(Log.durations("snapshot.restore")), "s");
    M.add("snapshot.blob_bytes", BlobBytes, "bytes");
    M.add("snapshot.saves_per_run", Saves / Runs, "count");
    M.add("fleet.campaign_s", CampaignS, "s");
    M.add("fleet.worker_busy_frac",
          Fleet ? ReplayS / (FleetWorkers * CampaignS) : 0, "ratio");
    M.add("fleet.overhead_s_per_run",
          Fleet ? (FleetWorkers * CampaignS - ReplayS) / Runs : 0, "s");
    M.add("fleet.attempts_per_run",
          Campaigns.empty() ? 0
                            : Attempts / (Runs * static_cast<double>(
                                                     Campaigns.size())),
          "count");
    M.add("obs.counters_overhead_pct", OverheadPct, "%");
    M.add("host.slowdown", Probe.slowdown(), "ratio");

    std::string SpanPath = Opt.OutDir + "/spans-" + Opt.Workload + "-seed" +
                           std::to_string(Opt.Seed) + ".json";
    if (!Log.writeJson(SpanPath, Host))
      std::fprintf(stderr, "lbpbench: cannot write %s\n", SpanPath.c_str());
    else
      std::printf("spans written to %s\n", SpanPath.c_str());
  }

  for (const auto &[Name, VU] : M.List)
    std::printf("  %-28s %.6g %s\n", Name.c_str(), VU.first,
                VU.second.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              T.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed));
  for (size_t I = 0; I != M.List.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.List[I].first.c_str(), M.List[I].second.first,
                M.List[I].second.second.c_str());
  std::printf("}}\n");
  return T.Failed == 0 ? 0 : 1;
}
