//===- obs/ToolInput.cpp - The program a tool runs ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obs/ToolInput.h"

#include "frontend/Compiler.h"
#include "sim/Config.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/Pipeline.h"

#include <fstream>
#include <iostream>
#include <sstream>

using namespace lbp;

static bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::string obs::loadAsmText(const std::string &Input,
                             const std::string &Workload, unsigned Cores,
                             std::string &Err) {
  if (!Workload.empty()) {
    if (Workload == "phases") {
      workloads::PhasesSpec S;
      S.NumHarts = Cores * sim::HartsPerCore;
      return workloads::buildPhasesProgram(S);
    }
    if (Workload == "matmul") {
      // Laid out for the banks the tools simulate (SimConfig::lbp), so
      // each bank holds its share of the distributed matrices.
      workloads::MatMulSpec S;
      S.NumHarts = Cores * sim::HartsPerCore;
      S.Version = workloads::MatMulVersion::Distributed;
      S.BankSizeLog2 = sim::SimConfig::lbp(Cores).GlobalBankSizeLog2;
      return workloads::buildMatMulProgram(S);
    }
    if (Workload == "pipeline")
      return workloads::buildPipelineProgram({});
    Err = "unknown workload '" + Workload + "'";
    return std::string();
  }

  std::ostringstream SS;
  if (Input == "-") {
    SS << std::cin.rdbuf();
  } else {
    std::ifstream In(Input);
    if (!In) {
      Err = "cannot open '" + Input + "'";
      return std::string();
    }
    SS << In.rdbuf();
  }
  if (endsWith(Input, ".s") || endsWith(Input, ".asm"))
    return SS.str();
  // Det-C goes through the frontend.
  std::string FrontErr;
  std::string Asm = frontend::compileDetCToAsm(SS.str(), FrontErr);
  if (Asm.empty())
    Err = FrontErr.empty() ? "compilation produced no code" : FrontErr;
  return Asm;
}
