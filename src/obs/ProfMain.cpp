//===- obs/ProfMain.cpp - lbp_prof driver -------------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lbp_prof command-line profiler (docs/OBSERVABILITY.md): loads a
/// program (Det-C source, LBP assembly, or a built-in workload), runs it
/// under a chosen engine and configuration with the deterministic
/// counters on, and reports.
///
///   lbp_prof [options] file.c | file.s | -
///     --workload NAME      phases | matmul | pipeline (instead of a
///                          file)
///     --cores N            machine size, 1..64 (default 4)
///     --engine E           reference | fast (default fast)
///     --max-cycles N       cycle budget, >= 1 (default 100000000)
///     --seed N             fault-plan seed; --drops/--delays/
///     --drops N            --flips add that many injected faults
///     --delays N           (0..2^20 each)
///     --flips N
///     --no-stalls          skip the stall-cause classification
///     --top N              rows in the "hottest" tables, 0..2^20
///                          (default 8)
///     --perfetto OUT.json  write a Chrome/Perfetto timeline
///     --jsonl OUT.jsonl    write the raw event stream as JSON lines
///     --counters OUT.json  write the canonical counter snapshot
///     --digests            print the interval digests (the running
///                          trace-hash chain at every boundary;
///                          docs/OBSERVABILITY.md "Interval digests")
///     --digest-interval N  digest stride (default 4096; 0 keeps the
///                          default)
///
/// Every numeric flag is range-checked at parse time; a negative,
/// malformed or out-of-range value is a usage error.
///
/// Exit status: 0 = run exited cleanly, 1 = run failed (fault, livelock,
/// cycle budget), 2 = usage/input error.
///
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Perfetto.h"
#include "obs/Report.h"
#include "obs/ToolInput.h"
#include "obs/Triage.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

using namespace lbp;

namespace {

struct Options {
  std::string Input;
  std::string Workload;
  std::string PerfettoOut;
  std::string JsonlOut;
  std::string CountersOut;
  unsigned Cores = 4;
  bool FastPath = true;
  bool Stalls = true;
  unsigned TopN = 8;
  uint64_t MaxCycles = 100000000;
  uint64_t Seed = 0;
  unsigned Drops = 0, Delays = 0, Flips = 0;
  bool Digests = false;          ///< Print the interval digests.
  uint64_t DigestInterval = 4096;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lbp_prof [options] file.c|file.s|-\n"
      "       lbp_prof [options] --workload %s\n"
      "  --cores N  --engine reference|fast\n"
      "  --max-cycles N  --seed N  --drops N  --delays N  --flips N\n"
      "  --no-stalls  --top N\n"
      "  --perfetto OUT.json  --jsonl OUT.jsonl  --counters OUT.json\n"
      "  --digests  --digest-interval N\n"
      "See docs/OBSERVABILITY.md.\n",
      obs::WorkloadNames);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  constexpr int64_t MaxCount = 1 << 20, NoLimit = INT64_MAX;
  const char *Tool = "lbp_prof";
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
    } else if (A == "--engine") {
      std::string E;
      if (!NextString(E))
        return usage();
      if (E == "reference")
        Opts.FastPath = false;
      else if (E == "fast")
        Opts.FastPath = true;
      else
        return usage();
    } else if (A == "--max-cycles") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 1, NoLimit, Opts.MaxCycles))
        return usage();
    } else if (A == "--seed") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit, Opts.Seed))
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
    } else if (A == "--no-stalls") {
      Opts.Stalls = false;
    } else if (A == "--top") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, MaxCount, Opts.TopN))
        return usage();
    } else if (A == "--perfetto") {
      if (!NextString(Opts.PerfettoOut))
        return usage();
    } else if (A == "--jsonl") {
      if (!NextString(Opts.JsonlOut))
        return usage();
    } else if (A == "--counters") {
      if (!NextString(Opts.CountersOut))
        return usage();
    } else if (A == "--digests") {
      Opts.Digests = true;
    } else if (A == "--digest-interval") {
      if (!parseFlagInteger(Tool, Argc, Argv, I, 0, NoLimit,
                            Opts.DigestInterval))
        return usage();
      if (Opts.DigestInterval == 0) // keeps the default
        Opts.DigestInterval = Options().DigestInterval;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (A.size() > 1 && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "lbp_prof: unknown option '%s'\n", A.c_str());
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
    std::fprintf(stderr, "lbp_prof: %s\n", Err.c_str());
    return 2;
  }
  assembler::AsmResult AR = assembler::assemble(Asm);
  if (!AR.succeeded()) {
    std::fprintf(stderr, "lbp_prof: assembly failed:\n%s",
                 AR.errorText().c_str());
    return 2;
  }

  sim::SimConfig Cfg = sim::SimConfig::lbp(Opts.Cores);
  Cfg.FastPath = Opts.FastPath;
  Cfg.CollectCounters = true;
  Cfg.CollectStallStats = Opts.Stalls;
  Cfg.Faults.Seed = Opts.Seed;
  Cfg.Faults.Drops = Opts.Drops;
  Cfg.Faults.Delays = Opts.Delays;
  Cfg.Faults.BitFlips = Opts.Flips;

  sim::Machine M(Cfg);

  // Sinks must attach before load(): the boot HartStart is an event.
  std::ofstream PerfettoFile, JsonlFile;
  std::unique_ptr<obs::PerfettoSink> Perfetto;
  std::unique_ptr<obs::JsonlSink> Jsonl;
  obs::PhaseProfiler Phases;
  M.addTraceSink(&Phases);
  obs::DigestSink Digests(M, Opts.DigestInterval);
  if (!Opts.PerfettoOut.empty()) {
    PerfettoFile.open(Opts.PerfettoOut);
    if (!PerfettoFile) {
      std::fprintf(stderr, "lbp_prof: cannot open '%s'\n",
                   Opts.PerfettoOut.c_str());
      return 2;
    }
    Perfetto = std::make_unique<obs::PerfettoSink>(PerfettoFile, Cfg);
    M.addTraceSink(Perfetto.get());
  }
  if (!Opts.JsonlOut.empty()) {
    JsonlFile.open(Opts.JsonlOut);
    if (!JsonlFile) {
      std::fprintf(stderr, "lbp_prof: cannot open '%s'\n",
                   Opts.JsonlOut.c_str());
      return 2;
    }
    Jsonl = std::make_unique<obs::JsonlSink>(JsonlFile);
    M.addTraceSink(Jsonl.get());
  }

  M.load(AR.Prog);
  sim::RunStatus St = M.run(Opts.MaxCycles);
  Digests.finish(M.cycles());
  if (Perfetto)
    Perfetto->finish(M.cycles());

  obs::ReportOptions ROpts;
  ROpts.TopN = Opts.TopN;
  std::fputs(obs::buildReport(M, &Phases, ROpts).c_str(), stdout);

  if (Opts.Digests) {
    std::printf("\ninterval digests (interval %llu, %zu recorded):\n",
                static_cast<unsigned long long>(Digests.interval()),
                Digests.digests().size());
    if (Digests.digests().empty())
      std::printf("  no boundary crossed (run shorter than the "
                  "interval)\n");
    for (const obs::DigestSink::Digest &D : Digests.digests())
      std::printf("  @%-12llu 0x%016llx\n",
                  static_cast<unsigned long long>(D.Boundary),
                  static_cast<unsigned long long>(D.Hash));
  }

  if (!Opts.CountersOut.empty()) {
    std::ofstream Out(Opts.CountersOut);
    if (!Out) {
      std::fprintf(stderr, "lbp_prof: cannot open '%s'\n",
                   Opts.CountersOut.c_str());
      return 2;
    }
    // The counter snapshot, wrapped with run metadata (which engine
    // executed and the terminal message — for a livelock, the per-hart
    // wait report) and the interval digests.
    Out << "{\n  \"meta\": {\"engine\": \"" << jsonEscape(M.engineName())
        << "\", \"status\": \"" << sim::runStatusName(St)
        << "\", \"message\": \"" << jsonEscape(M.faultMessage())
        << "\",\n           \"digest_interval\": " << Digests.interval()
        << ", \"digest_count\": " << Digests.digests().size()
        << "},\n  \"digests\": [";
    const char *Sep = "";
    for (const obs::DigestSink::Digest &D : Digests.digests()) {
      Out << Sep
          << formatString("{\"boundary\":%llu,\"hash\":\"0x%016llx\"}",
                          static_cast<unsigned long long>(D.Boundary),
                          static_cast<unsigned long long>(D.Hash));
      Sep = ",";
    }
    Out << "],\n  \"counters\": " << obs::countersToJson(M) << "}\n";
  }
  return St == sim::RunStatus::Exited ? 0 : 1;
}
