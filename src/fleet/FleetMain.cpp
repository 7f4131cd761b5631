//===- fleet/FleetMain.cpp - lbp_fleet command-line driver --------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// lbp_fleet: run a campaign of independent simulations across worker
/// processes and emit the canonical aggregate report.
///
///   lbp_fleet [options]
///     --workload W         phases | matmul | pipeline (default phases);
///                          the programs lbp_prof and lbp_triage run
///                          (obs/ToolInput.h)
///     --asm FILE           program file instead of a workload:
///                          assembly by its .s/.asm suffix, else
///                          Det-C source
///     --cores N            machine size per run, 1..64 (default 4)
///     --runs N             queue length, 1..1000000 (default 4)
///     --seed-base N        run i uses fault seed N + i (default 1)
///     --drops/--delays/--flips/--stuck N
///                          injected faults per run (default 0)
///     --engine E           reference | fast (default fast)
///     --deadline-cycles N  deterministic per-run deadline
///                          (default 10000000)
///     --workers N          concurrent worker processes, 1..256
///                          (default 4)
///     --max-attempts N     attempts per run before incomplete,
///                          1..100 (default 2)
///     --checkpoint-interval N
///                          checkpoint every N simulated cycles
///                          (default 0 = off)
///     --checkpoint-dir D   where checkpoints live (default ".")
///     --wall-timeout-ms N  wall-clock watchdog per attempt
///                          (default 0 = off)
///     --inject-crash I     run I's first attempt aborts (CI smoke)
///     --inject-hang I      run I's first attempt hangs (CI smoke)
///     --cross-check LIST   run every queue entry once per engine
///                          (comma list of reference | fast) and
///                          compare fingerprints within each group;
///                          a mismatch is triaged in-process
///                          (obs/Triage.h) and the report gains a
///                          "divergence_triage" array
///     --perturb N          arm SimConfig::PerturbForTest at cycle N on
///                          every run (seeded divergence for CI)
///     --out FILE           report destination (default stdout)
///     --strict             exit 1 on any non-pass verdict
///
/// Every numeric flag is range-checked at parse time; a negative,
/// malformed or out-of-range value is a usage error.
///
/// Exit status: 0 = campaign complete (and, with --strict, all pass);
/// 1 = degraded report (incomplete verdicts), cross-check divergence,
/// or --strict failure; 2 = usage/input error. The report is written
/// in every case but 2.
///
//===----------------------------------------------------------------------===//

#include "fleet/Fleet.h"

#include "asm/Assembler.h"
#include "obs/ToolInput.h"
#include "obs/Triage.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace lbp;

namespace {

struct Options {
  std::string Workload = "phases";
  std::string AsmFile;
  unsigned Cores = 4;
  unsigned Runs = 4;
  uint64_t SeedBase = 1;
  unsigned Drops = 0, Delays = 0, Flips = 0, Stuck = 0;
  bool FastPath = true;
  uint64_t DeadlineCycles = 10000000;
  fleet::FleetConfig FC;
  std::string Out;
  bool Strict = false;
  std::vector<std::string> CrossCheck;
  uint64_t Perturb = 0;
};

/// One --cross-check engine variant, named like the specs lbp_triage
/// accepts so the variant can ride inside a run name.
struct EngineVariant {
  std::string Name;
  bool FastPath = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lbp_fleet [--workload %s] [--asm FILE]\n"
      "  --cores N  --runs N  --seed-base N\n"
      "  --drops N  --delays N  --flips N  --stuck N\n"
      "  --engine reference|fast  --deadline-cycles N\n"
      "  --workers N  --max-attempts N\n"
      "  --checkpoint-interval N  --checkpoint-dir D\n"
      "  --wall-timeout-ms N  --inject-crash I  --inject-hang I\n"
      "  --cross-check reference,fast  --perturb N\n"
      "  --out FILE  --strict\n"
      "See docs/ROBUSTNESS.md (\"Fleet failure taxonomy\").\n",
      obs::WorkloadNames);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  constexpr int64_t MaxCount = 1 << 20;
  constexpr int64_t NoLimit = INT64_MAX;
  const char *Tool = "lbp_fleet";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool Ok = true;
    if (A == "--workload" && I + 1 < Argc)
      O.Workload = Argv[++I];
    else if (A == "--asm" && I + 1 < Argc)
      O.AsmFile = Argv[++I];
    else if (A == "--engine" && I + 1 < Argc) {
      std::string E = Argv[++I];
      if (E == "reference")
        O.FastPath = false;
      else if (E == "fast")
        O.FastPath = true;
      else
        return false;
    } else if (A == "--cross-check" && I + 1 < Argc) {
      std::string List = Argv[++I];
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        O.CrossCheck.push_back(List.substr(
            Pos, Comma == std::string::npos ? Comma : Comma - Pos));
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
      if (O.CrossCheck.size() < 2)
        return false; // a cross-check needs something to compare
    } else if (A == "--checkpoint-dir" && I + 1 < Argc)
      O.FC.CheckpointDir = Argv[++I];
    else if (A == "--out" && I + 1 < Argc)
      O.Out = Argv[++I];
    else if (A == "--strict")
      O.Strict = true;
    else if (A == "--cores")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 1, 64, O.Cores);
    else if (A == "--runs")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 1, 1000000, O.Runs);
    else if (A == "--seed-base")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit, O.SeedBase);
    else if (A == "--drops")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, O.Drops);
    else if (A == "--delays")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, O.Delays);
    else if (A == "--flips")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, O.Flips);
    else if (A == "--stuck")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, O.Stuck);
    else if (A == "--deadline-cycles")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 1, NoLimit, O.DeadlineCycles);
    else if (A == "--perturb")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit, O.Perturb);
    else if (A == "--workers")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 1, 256, O.FC.Workers);
    else if (A == "--max-attempts")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 1, 100, O.FC.MaxAttempts);
    else if (A == "--checkpoint-interval")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit,
                            O.FC.CheckpointInterval);
    else if (A == "--wall-timeout-ms")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit,
                            O.FC.WallTimeoutMs);
    else if (A == "--inject-crash")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, INT32_MAX,
                            O.FC.InjectCrashRun);
    else if (A == "--inject-hang")
      Ok = parseFlagInteger(Tool, Argc, Argv, I, 0, INT32_MAX,
                            O.FC.InjectHangRun);
    else
      Ok = false;
    if (!Ok)
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage();

  std::string Err;
  std::string Asm = obs::loadAsmText(
      O.AsmFile, O.AsmFile.empty() ? O.Workload : std::string(), O.Cores, Err);
  if (Asm.empty()) {
    std::fprintf(stderr, "lbp_fleet: %s\n", Err.c_str());
    return 2;
  }
  assembler::AsmResult R = assembler::assemble(Asm);
  if (!R.succeeded()) {
    std::fprintf(stderr, "lbp_fleet: assembly failed:\n%s\n",
                 R.errorText().c_str());
    return 2;
  }

  // One shared read-only image; the workers inherit it copy-on-write.
  std::vector<assembler::Program> Images;
  Images.push_back(std::move(R.Prog));

  // The cross-check variant list; a plain campaign is the degenerate
  // single-variant case with the --engine configuration.
  std::vector<EngineVariant> Variants;
  if (O.CrossCheck.empty())
    Variants.push_back({"", O.FastPath});
  for (const std::string &Spec : O.CrossCheck) {
    if (Spec != "reference" && Spec != "fast") {
      std::fprintf(stderr,
                   "lbp_fleet: bad --cross-check variant '%s' (want "
                   "reference | fast)\n",
                   Spec.c_str());
      return 2;
    }
    Variants.push_back({Spec, Spec == "fast"});
  }

  // Queue order is group-major: every variant of seed i before any of
  // seed i+1, so the report reads as consecutive comparable groups.
  std::vector<fleet::RunSpec> Specs;
  for (unsigned I = 0; I != O.Runs; ++I) {
    for (const EngineVariant &V : Variants) {
      fleet::RunSpec S;
      uint64_t Seed = O.SeedBase + I;
      S.Name = (O.AsmFile.empty() ? O.Workload : O.AsmFile) + "-seed" +
               std::to_string(Seed);
      if (!O.CrossCheck.empty())
        S.Name += ":" + V.Name;
      S.Cfg = sim::SimConfig::lbp(O.Cores);
      S.Cfg.FastPath = V.FastPath;
      S.Cfg.PerturbForTest = O.Perturb;
      S.Cfg.Faults.Seed = Seed;
      S.Cfg.Faults.Drops = O.Drops;
      S.Cfg.Faults.Delays = O.Delays;
      S.Cfg.Faults.BitFlips = O.Flips;
      S.Cfg.Faults.StuckBanks = O.Stuck;
      S.DeadlineCycles = O.DeadlineCycles;
      Specs.push_back(std::move(S));
    }
  }

  fleet::CampaignResult Result =
      fleet::runCampaign(Images, Specs, O.FC);

  // Cross-check: compare fingerprints within each group and triage
  // every mismatching pair in-process against the group's first
  // completed run. Reports are canonical, so the campaign JSON stays
  // byte-identical across repeat invocations.
  bool Diverged = false;
  std::string Extra;
  if (Variants.size() > 1) {
    std::string Reports;
    size_t G = Variants.size();
    for (size_t Base = 0; Base + G <= Result.Runs.size(); Base += G) {
      size_t Ref = Base;
      while (Ref != Base + G &&
             Result.Runs[Ref].V == fleet::Verdict::Incomplete)
        ++Ref;
      if (Ref == Base + G)
        continue; // nothing in this group completed
      for (size_t I = Ref + 1; I != Base + G; ++I) {
        const fleet::RunResult &A = Result.Runs[Ref];
        const fleet::RunResult &B = Result.Runs[I];
        if (B.V == fleet::Verdict::Incomplete)
          continue;
        if (A.Status == B.Status && A.Cycles == B.Cycles &&
            A.TraceHash == B.TraceHash)
          continue;
        Diverged = true;
        obs::TriageRunSpec SA{A.Name, Specs[Ref].Cfg};
        obs::TriageRunSpec SB{B.Name, Specs[I].Cfg};
        obs::TriageOptions TOpts;
        TOpts.MaxCycles = O.DeadlineCycles;
        obs::TriageResult TR =
            obs::triageDivergence(Images[0], SA, SB, TOpts);
        if (!Reports.empty())
          Reports += ",\n    ";
        Reports += obs::triageReportToJson(
            TR, O.AsmFile.empty() ? O.Workload : O.AsmFile);
      }
    }
    Extra = formatString("  \"divergence_triage\": [%s],\n",
                         Reports.empty()
                             ? ""
                             : ("\n    " + Reports + "\n  ").c_str());
  }
  std::string Json = fleet::campaignToJson(Result, Extra);

  if (O.Out.empty()) {
    std::fwrite(Json.data(), 1, Json.size(), stdout);
  } else {
    std::ofstream Out(O.Out, std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "lbp_fleet: cannot write '%s'\n",
                   O.Out.c_str());
      return 2;
    }
    Out << Json;
  }

  if (Diverged) {
    std::fprintf(stderr, "lbp_fleet: cross-check divergence; see "
                         "\"divergence_triage\" in the report\n");
    return 1;
  }
  if (!Result.Complete)
    return 1;
  if (O.Strict)
    for (const fleet::RunResult &Run : Result.Runs)
      if (Run.V != fleet::Verdict::Pass)
        return 1;
  return 0;
}
