//===- obs/TriageMain.cpp - lbp_triage driver ---------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lbp_triage command-line divergence triager
/// (docs/OBSERVABILITY.md "Divergence triage"): runs one program under
/// two configurations, bisects their interval-digest sequences to the
/// last agreeing boundary, replays both sides from an anchor there,
/// and reports the first divergent trace event as a canonical
/// lbp-triage-report-v1 JSON document.
///
///   lbp_triage [options] file.c | file.s | -
///     --workload NAME      phases | matmul | pipeline (instead of a
///                          file)
///     --cores N            machine size, 1..64 (default 4)
///     --side-a SPEC        engine spec: reference | fast
///     --side-b SPEC        (defaults: side-a reference, side-b fast)
///     --seed-a N           per-side fault-plan seed (with --drops /
///     --seed-b N           --delays / --flips event counts)
///     --drops N  --delays N  --flips N
///                          injected faults per side, 0..2^20 each
///     --perturb N          arm SimConfig::PerturbForTest at cycle N on
///                          both sides (seeded divergence for tests)
///     --digest-interval N  digest stride, >= 1 (default 4096)
///     --context K          events of context around the divergence,
///                          0..2^20 (default 8)
///     --max-cycles N       cycle budget, >= 1 (default 20000000)
///     --out FILE           write the report there instead of stdout
///
/// Every numeric flag is range-checked at parse time; a negative,
/// malformed or out-of-range value is a usage error.
///
/// Exit status: 0 = no divergence, 1 = divergence reported,
/// 2 = usage/input error, 3 = triage failure (a side stopped before the
/// replay anchor).
///
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/ToolInput.h"
#include "obs/Triage.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace lbp;

namespace {

struct Options {
  std::string Input;
  std::string Workload;
  std::string Out;
  std::string SideA = "reference";
  std::string SideB = "fast";
  unsigned Cores = 4;
  uint64_t SeedA = 0, SeedB = 0;
  unsigned Drops = 0, Delays = 0, Flips = 0;
  uint64_t Perturb = 0;
  uint64_t DigestInterval = 4096;
  unsigned Context = 8;
  uint64_t MaxCycles = 20000000;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lbp_triage [options] file.c|file.s|-\n"
      "       lbp_triage [options] --workload %s\n"
      "  --cores N  --side-a SPEC  --side-b SPEC   (SPEC = reference | "
      "fast)\n"
      "  --seed-a N  --seed-b N  --drops N  --delays N  --flips N\n"
      "  --perturb N  --digest-interval N  --context K  --max-cycles N\n"
      "  --out FILE\n"
      "See docs/OBSERVABILITY.md, \"Divergence triage\".\n",
      obs::WorkloadNames);
  return 2;
}

/// Parses an engine spec ("reference" or "fast") into \p Cfg; false on
/// any other spelling.
bool applyEngineSpec(const std::string &Spec, sim::SimConfig &Cfg) {
  if (Spec != "reference" && Spec != "fast")
    return false;
  Cfg.FastPath = Spec == "fast";
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  constexpr int64_t MaxCount = 1 << 20, NoLimit = INT64_MAX;
  const char *Tool = "lbp_triage";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextString = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    if (A == "--workload") {
      if (!NextString(Opts.Workload))
        return usage();
    } else if (A == "--cores") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 1, 64, Opts.Cores))
        return usage();
    } else if (A == "--side-a") {
      if (!NextString(Opts.SideA))
        return usage();
    } else if (A == "--side-b") {
      if (!NextString(Opts.SideB))
        return usage();
    } else if (A == "--seed-a") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit, Opts.SeedA))
        return usage();
    } else if (A == "--seed-b") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit, Opts.SeedB))
        return usage();
    } else if (A == "--drops") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, Opts.Drops))
        return usage();
    } else if (A == "--delays") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, Opts.Delays))
        return usage();
    } else if (A == "--flips") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, Opts.Flips))
        return usage();
    } else if (A == "--perturb") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit, Opts.Perturb))
        return usage();
    } else if (A == "--digest-interval") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 1, NoLimit,
                            Opts.DigestInterval))
        return usage();
    } else if (A == "--context") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, Opts.Context))
        return usage();
    } else if (A == "--max-cycles") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 1, NoLimit, Opts.MaxCycles))
        return usage();
    } else if (A == "--out") {
      if (!NextString(Opts.Out))
        return usage();
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (A.size() > 1 && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "lbp_triage: unknown option '%s'\n", A.c_str());
      return usage();
    } else if (Opts.Input.empty()) {
      Opts.Input = A;
    } else {
      return usage();
    }
  }
  if (Opts.Input.empty() == Opts.Workload.empty())
    return usage(); // exactly one program source

  std::string Err;
  std::string Asm =
      obs::loadAsmText(Opts.Input, Opts.Workload, Opts.Cores, Err);
  if (Asm.empty()) {
    std::fprintf(stderr, "lbp_triage: %s\n", Err.c_str());
    return 2;
  }
  assembler::AsmResult AR = assembler::assemble(Asm);
  if (!AR.succeeded()) {
    std::fprintf(stderr, "lbp_triage: assembly failed:\n%s",
                 AR.errorText().c_str());
    return 2;
  }

  sim::SimConfig Base = sim::SimConfig::lbp(Opts.Cores);
  Base.PerturbForTest = Opts.Perturb;
  Base.Faults.Drops = Opts.Drops;
  Base.Faults.Delays = Opts.Delays;
  Base.Faults.BitFlips = Opts.Flips;

  obs::TriageRunSpec A{Opts.SideA, Base}, B{Opts.SideB, Base};
  A.Cfg.Faults.Seed = Opts.SeedA;
  B.Cfg.Faults.Seed = Opts.SeedB;
  if (!applyEngineSpec(Opts.SideA, A.Cfg) ||
      !applyEngineSpec(Opts.SideB, B.Cfg)) {
    std::fprintf(stderr,
                 "lbp_triage: bad engine spec (want reference | fast)\n");
    return usage();
  }

  obs::TriageOptions TOpts;
  TOpts.DigestInterval = Opts.DigestInterval;
  TOpts.ContextEvents = Opts.Context;
  TOpts.MaxCycles = Opts.MaxCycles;
  obs::TriageResult R = obs::triageDivergence(AR.Prog, A, B, TOpts);

  std::string Label =
      !Opts.Workload.empty() ? Opts.Workload : Opts.Input;
  std::string Report = obs::triageReportToJson(R, Label) + "\n";
  if (!Opts.Out.empty()) {
    std::ofstream OutFile(Opts.Out);
    if (!OutFile) {
      std::fprintf(stderr, "lbp_triage: cannot open '%s'\n",
                   Opts.Out.c_str());
      return 2;
    }
    OutFile << Report;
  } else {
    std::fputs(Report.c_str(), stdout);
  }

  if (!R.Ran) {
    std::fprintf(stderr, "lbp_triage: %s\n", R.Error.c_str());
    return 3;
  }
  return R.Diverged ? 1 : 0;
}
