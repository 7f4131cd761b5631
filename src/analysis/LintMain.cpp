//===- analysis/LintMain.cpp - lbp_lint driver --------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lbp_lint command-line driver (docs/ANALYSIS.md): runs the Det-C
/// determinism analyzer and the X_PAR protocol verifier over source
/// files, assembly files or the built-in workload generators, with an
/// optional dynamic-oracle cross-check.
///
///   lbp_lint [options] file.c ... file.s ... | -
///     --Werror            treat warnings as errors (exit 1)
///     --machine-harts N   validate team sizes against an N-hart machine
///                         (1..32768, the line's largest team)
///     --cores N           simulator size for the oracle, 1..64
///                         (default 4)
///     --bank-bits N       log2 of the global bank size for the
///                         bank-disjointness rule, 1..31 (default 16)
///     --oracle            run the program and cross-check the verdict
///     --oracle-refine     run the oracle and refine race.may findings:
///                         a dynamic witness upgrades them to
///                         race.confirmed errors with hart/address/cycle
///                         evidence; no witness annotates them
///                         unconfirmed-on-corpus
///     --json              emit one machine-readable JSON report on
///                         stdout instead of text diagnostics
///     --asm               treat every input (and stdin) as assembly
///     --workloads         verify the built-in workload generators
///
/// Every numeric flag is range-checked at parse time; a negative,
/// malformed or out-of-range value is a usage error.
///
/// Exit status: 0 = clean, 1 = findings, 2 = usage/input error.
///
//===----------------------------------------------------------------------===//

#include "analysis/DetRace.h"
#include "analysis/Oracle.h"
#include "analysis/XParVerify.h"
#include "asm/Assembler.h"
#include "dsl/CodeGen.h"
#include "frontend/Compiler.h"
#include "romp/Runtime.h"
#include "support/StringUtils.h"
#include "workloads/Dma.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/Pipeline.h"
#include "workloads/SensorFusion.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace lbp;
using namespace lbp::analysis;

namespace {

struct Options {
  bool Werror = false;
  bool Oracle = false;
  bool OracleRefine = false;
  bool Json = false;
  bool ForceAsm = false;
  bool Workloads = false;
  unsigned MachineHarts = 0;
  unsigned Cores = 4;
  unsigned BankBits = 16;
  std::vector<std::string> Inputs;
};

/// Everything lbp_lint learned about one input, kept structured so the
/// --json report is assembled from the same data the text path prints.
struct InputReport {
  std::string File;
  std::string Kind; ///< "detc", "asm" or "workload".
  AnalysisResult Res; ///< Static + X_PAR findings, oracle-refined.
  bool OracleRan = false;
  unsigned OracleConflicts = 0;
  std::string HardError; ///< Parse/assembly failure; implies Status 2.
  int Status = 0; ///< 0 = clean, 1 = findings, 2 = hard error.
};

void printDiags(const std::string &Name, const AnalysisResult &Res) {
  for (const Diag &D : Res.Diags) {
    const char *Sev = D.Sev == Severity::Error ? "error" : "warning";
    if (D.Line)
      std::printf("%s:%u: %s: [%s] %s\n", Name.c_str(), D.Line, Sev,
                  D.Rule.c_str(), D.Message.c_str());
    else
      std::printf("%s: %s: [%s] %s\n", Name.c_str(), Sev, D.Rule.c_str(),
                  D.Message.c_str());
  }
  for (const RegionCert &C : Res.Certs)
    std::printf("%s:%u: note: [region.certificate] parallel region '%s' "
                "(team %u): %u affine, %u banked, %u may accesses; "
                "discharged %u by banks, %u by residue; %u may-race "
                "finding%s; reduction %s\n",
                Name.c_str(), C.Line, C.Region.c_str(), C.Team, C.Affine,
                C.Banked, C.May, C.BankDischarged, C.ResidueDischarged,
                C.MayRaces, C.MayRaces == 1 ? "" : "s",
                C.ReductionCertified ? "certified" : "not certified");
}

std::string reportToJson(const InputReport &R) {
  return formatString(
      "{\"file\":\"%s\",\"kind\":\"%s\",\"hard_error\":\"%s\","
      "\"oracle_ran\":%s,\"oracle_conflicts\":%u,\"report\":%s}",
      jsonEscape(R.File).c_str(), jsonEscape(R.Kind).c_str(),
      jsonEscape(R.HardError).c_str(), R.OracleRan ? "true" : "false",
      R.OracleConflicts, resultToJson(R.Res).c_str());
}

bool endsWith(const std::string &S, const char *Suffix) {
  std::string Suf(Suffix);
  return S.size() >= Suf.size() &&
         S.compare(S.size() - Suf.size(), Suf.size(), Suf) == 0;
}

int statusOf(const AnalysisResult &Res, const Options &Opts) {
  return Res.hasErrors() || (Opts.Werror && !Res.clean()) ? 1 : 0;
}

/// Assembles \p Text, runs the X_PAR verifier and (when requested) the
/// dynamic oracle, accumulating into \p Rep. \p Static, when non-null,
/// receives the oracle refinement before the X_PAR findings are merged
/// into it — the race.may lifecycle belongs to the Det-C analyzer.
void lintAsmInto(const std::string &Text, const Options &Opts,
                 const dsl::Module *M, AnalysisResult *Static,
                 InputReport &Rep) {
  assembler::AsmResult R = assembler::assemble(Text);
  if (!R.succeeded()) {
    Rep.HardError = "assembly failed: " + R.errorText();
    Rep.Status = 2;
    return;
  }
  XParVerifyOptions VOpts;
  VOpts.MachineHarts = Opts.MachineHarts;
  AnalysisResult XRes = verifyProgram(R.Prog, VOpts);

  OracleResult Dyn;
  if (Opts.Oracle || Opts.OracleRefine) {
    OracleOptions OOpts;
    OOpts.Cores = Opts.Cores;
    Dyn = runOracle(R.Prog, M, OOpts);
    Rep.OracleRan = Dyn.Ran;
    Rep.OracleConflicts = static_cast<unsigned>(Dyn.Conflicts.size());
    if (!Dyn.Ran) {
      if (!Opts.Json)
        std::printf("%s: oracle: %s\n", Rep.File.c_str(),
                    Dyn.RunError.c_str());
      Rep.Res.error(0, "oracle.run-error", Dyn.RunError);
      Rep.Status = std::max(Rep.Status, 1);
    } else if (!Opts.Json) {
      for (const DynamicConflict &C : Dyn.Conflicts) {
        std::string Where =
            C.Symbol.empty() ? std::string() : C.Symbol + " at ";
        std::printf("%s: oracle: harts %u and %u conflict on %s0x%x in "
                    "epoch %llu (%s)\n",
                    Rep.File.c_str(), C.HartA, C.HartB, Where.c_str(),
                    C.Addr, static_cast<unsigned long long>(C.Epoch),
                    C.WriteWrite ? "write-write" : "read-write");
      }
    }
    if (Dyn.dynamicallyRacy())
      Rep.Status = std::max(Rep.Status, 1);
  }

  if (Static) {
    if (Opts.OracleRefine && Dyn.Ran)
      refineWithOracle(*Static, Dyn);
    Static->append(XRes);
    Rep.Res.append(*Static);
  } else {
    Rep.Res.append(XRes);
  }
  Rep.Status = std::max(Rep.Status, statusOf(Rep.Res, Opts));
}

InputReport lintAsm(const std::string &Name, const std::string &Text,
                    const std::string &Kind, const Options &Opts,
                    const dsl::Module *M) {
  InputReport Rep;
  Rep.File = Name;
  Rep.Kind = Kind;
  lintAsmInto(Text, Opts, M, nullptr, Rep);
  return Rep;
}

InputReport lintDetC(const std::string &Name, const std::string &Text,
                     const Options &Opts) {
  InputReport Rep;
  Rep.File = Name;
  Rep.Kind = "detc";
  frontend::FrontendResult FR = frontend::parseDetC(Text);
  if (!FR.succeeded()) {
    Rep.HardError = "parse failed: " + FR.errorText();
    Rep.Status = 2;
    return Rep;
  }
  DetRaceOptions DOpts;
  DOpts.MachineHarts = Opts.MachineHarts;
  DOpts.GlobalBankSizeLog2 = Opts.BankBits;
  AnalysisResult Res = analyzeModule(*FR.M, DOpts);

  // Region-shape errors mean codegen would refuse (fatal) or emit a
  // protocol the machine cannot run; stop at the static verdict.
  bool RegionErrors = false;
  for (const Diag &D : Res.Diags)
    if (D.Sev == Severity::Error && D.Rule.rfind("region.", 0) == 0)
      RegionErrors = true;
  if (RegionErrors) {
    Rep.Res = std::move(Res);
    Rep.Status = statusOf(Rep.Res, Opts);
    return Rep;
  }

  std::string Asm = dsl::compileModule(*FR.M);
  lintAsmInto(Asm, Opts, FR.M.get(), &Res, Rep);
  return Rep;
}

void lintWorkloads(const Options &Opts, std::vector<InputReport> &Out) {
  struct Gen {
    const char *Name;
    std::string Text;
  };
  std::vector<Gen> Gens;
  Gens.push_back({"workload:dma", workloads::buildDmaStreamProgram({})});
  for (workloads::MatMulVersion V :
       {workloads::MatMulVersion::Base, workloads::MatMulVersion::Copy,
        workloads::MatMulVersion::Distributed,
        workloads::MatMulVersion::DistCopy,
        workloads::MatMulVersion::Tiled})
    Gens.push_back({"workload:matmul", workloads::buildMatMulProgram(
                                           workloads::MatMulSpec::paper(
                                               16, V))});
  Gens.push_back({"workload:phases", workloads::buildPhasesProgram({})});
  Gens.push_back(
      {"workload:pipeline", workloads::buildPipelineProgram({})});
  Gens.push_back(
      {"workload:sensor-fusion", workloads::buildSensorFusionProgram({})});
  for (const Gen &G : Gens)
    Out.push_back(lintAsm(G.Name, G.Text, "workload", Opts, nullptr));
}

int usage() {
  std::fprintf(
      stderr,
      "usage: lbp_lint [--Werror] [--machine-harts N] [--cores N]\n"
      "                [--bank-bits N] [--oracle] [--oracle-refine]\n"
      "                [--json] [--asm] [--workloads] [file|-]...\n"
      "  .c/.detc inputs run the Det-C determinism analyzer, then the\n"
      "  X_PAR protocol verifier on the compiled assembly; .s/.asm\n"
      "  inputs run the verifier only. --oracle-refine upgrades\n"
      "  race.may warnings with a dynamic witness to race.confirmed\n"
      "  errors. --json prints one lbp-lint-report-v1 object on\n"
      "  stdout. See docs/ANALYSIS.md.\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--Werror") {
      Opts.Werror = true;
    } else if (A == "--oracle") {
      Opts.Oracle = true;
    } else if (A == "--oracle-refine") {
      Opts.OracleRefine = true;
    } else if (A == "--json") {
      Opts.Json = true;
    } else if (A == "--asm") {
      Opts.ForceAsm = true;
    } else if (A == "--workloads") {
      Opts.Workloads = true;
    } else if (A == "--machine-harts") {
      if (!parseFlagInteger("lbp_lint", Argc, Argv, I, 1, romp::MaxTeamHarts,
                            Opts.MachineHarts))
        return usage();
    } else if (A == "--cores") {
      if (!parseFlagInteger("lbp_lint", Argc, Argv, I, 1, 64, Opts.Cores))
        return usage();
    } else if (A == "--bank-bits") {
      if (!parseFlagInteger("lbp_lint", Argc, Argv, I, 1, 31, Opts.BankBits))
        return usage();
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (A.size() > 1 && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "lbp_lint: unknown option '%s'\n", A.c_str());
      return usage();
    } else {
      Opts.Inputs.push_back(A);
    }
  }
  if (Opts.Inputs.empty() && !Opts.Workloads)
    return usage();

  std::vector<InputReport> Reports;
  if (Opts.Workloads)
    lintWorkloads(Opts, Reports);

  int Status = 0;
  for (const std::string &Input : Opts.Inputs) {
    std::string Name = Input == "-" ? "<stdin>" : Input;
    std::string Text;
    if (Input == "-") {
      std::ostringstream SS;
      SS << std::cin.rdbuf();
      Text = SS.str();
    } else {
      std::ifstream In(Input);
      if (!In) {
        std::fprintf(stderr, "lbp_lint: cannot open '%s'\n",
                     Input.c_str());
        return 2;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Text = SS.str();
    }
    bool IsAsm = Opts.ForceAsm || endsWith(Name, ".s") ||
                 endsWith(Name, ".asm");
    Reports.push_back(IsAsm ? lintAsm(Name, Text, "asm", Opts, nullptr)
                            : lintDetC(Name, Text, Opts));
  }

  for (const InputReport &R : Reports) {
    if (!Opts.Json) {
      if (!R.HardError.empty())
        std::fprintf(stderr, "%s: %s", R.File.c_str(),
                     R.HardError.c_str());
      printDiags(R.File, R.Res);
    }
    Status = std::max(Status, R.Status);
  }

  if (Opts.Json) {
    std::string S = formatString("{\"tool\":\"lbp-lint-report-v1\","
                                 "\"exit\":%d,\"inputs\":[",
                                 Status);
    for (size_t I = 0; I != Reports.size(); ++I) {
      if (I)
        S += ',';
      S += reportToJson(Reports[I]);
    }
    S += "]}";
    std::printf("%s\n", S.c_str());
  }
  return Status;
}
