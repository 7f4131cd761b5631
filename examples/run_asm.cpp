//===- examples/run_asm.cpp - Assemble-and-run command-line tool ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// A small tool over the public API: assembles an RV32IM+X_PAR source
// file, runs it on a simulated LBP and reports statistics. Useful for
// experimenting with the PISC instructions directly.
//
//   ./run_asm program.s [cores] [--trace] [--fast] [--disasm]
//
// The core count is 1..64 (default 4). A bad count, an unknown option or
// a missing program prints the usage and exits 2.
//
// With --trace, every event is printed as it happens, one JSON line
// each ("at cycle C, ..."), the style of the paper's Section 1 example
// statements, ahead of the summary. With
// --fast the program runs on the sequential reference interpreter (the
// paper's referential order) instead of the cycle model. --disasm dumps
// the assembled text section and exits.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "isa/Disasm.h"
#include "obs/Perfetto.h"
#include "sim/Interp.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace lbp;
using namespace lbp::sim;

static int usage() {
  std::fprintf(stderr, "usage: run_asm program.s [cores 1..64] [--trace] "
                       "[--fast] [--disasm]\n");
  return 2;
}

int main(int argc, char **argv) {
  if (argc < 2 || argv[1][0] == '-')
    return usage();

  unsigned Cores = 4;
  bool TraceOn = false, Fast = false, Disasm = false;
  for (int A = 2; A < argc; ++A) {
    if (std::strcmp(argv[A], "--trace") == 0) {
      TraceOn = true;
    } else if (std::strcmp(argv[A], "--fast") == 0) {
      Fast = true;
    } else if (std::strcmp(argv[A], "--disasm") == 0) {
      Disasm = true;
    } else {
      // Anything else must be the core count. A misspelt flag is no
      // number, and a count the machine cannot have is out of range.
      std::optional<int64_t> N = parseInteger(argv[A]);
      if (!N || *N < 1 || *N > 64)
        return usage();
      Cores = static_cast<unsigned>(*N);
    }
  }

  std::ifstream In(argv[1]);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();

  assembler::AsmResult R = assembler::assemble(Buffer.str());
  if (!R.succeeded()) {
    std::fprintf(stderr, "%s", R.errorText().c_str());
    return 1;
  }

  if (Disasm) {
    for (const assembler::Segment &S : R.Prog.segments()) {
      if (!S.IsText)
        continue;
      for (uint32_t Off = 0; Off + 4 <= S.Bytes.size(); Off += 4) {
        uint32_t Addr = S.Base + Off;
        // Label any symbol that points here.
        for (const auto &[Name, Value] : R.Prog.symbols())
          if (Value == Addr)
            std::printf("%s:\n", Name.c_str());
        std::printf("  %08x: %s\n", Addr,
                    isa::disassembleWord(R.Prog.readWord(Addr)).c_str());
      }
    }
    return 0;
  }

  if (Fast) {
    Interp I(R.Prog);
    InterpStatus S = I.run(1000000000ull);
    const char *Why = S == InterpStatus::Exited     ? "exited"
                      : S == InterpStatus::MaxSteps ? "budget exhausted"
                      : S == InterpStatus::BadInstr ? "bad instruction"
                      : S == InterpStatus::Fault    ? "fault"
                                                    : "unsupported op";
    std::printf("[fast] %s after %llu instructions (sequential "
                "reference order)\n",
                Why, static_cast<unsigned long long>(I.steps()));
    return S == InterpStatus::Exited ? 0 : 1;
  }

  Machine M(SimConfig::lbp(Cores));
  obs::JsonlSink Trace(std::cout);
  if (TraceOn)
    M.addTraceSink(&Trace);
  M.load(R.Prog);
  RunStatus S = M.run(1000000000ull);

  const char *Why = S == RunStatus::Exited     ? "exited"
                    : S == RunStatus::MaxCycles ? "cycle budget exhausted"
                    : S == RunStatus::Livelock  ? "livelock detected"
                                                : "fault";
  std::printf("%s after %llu cycles, %llu instructions retired, "
              "IPC %.2f\n",
              Why, static_cast<unsigned long long>(M.cycles()),
              static_cast<unsigned long long>(M.retired()), M.ipc());
  if (S == RunStatus::Fault)
    std::printf("fault: %s\n", M.faultMessage().c_str());
  else if (S == RunStatus::Livelock)
    std::printf("%s\n", M.faultMessage().c_str());
  std::printf("trace hash: %016llx\n",
              static_cast<unsigned long long>(M.traceHash()));
  return S == RunStatus::Exited ? 0 : 1;
}
