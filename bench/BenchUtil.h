//===- bench/BenchUtil.h - Shared benchmark plumbing ---------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark binaries: running a matmul spec on a
/// matching machine, printing the paper-style histogram tables (cycles /
/// IPC / retired instructions per version), and the host descriptor the
/// JSON-writing benches record next to their timings.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_BENCH_BENCHUTIL_H
#define LBP_BENCH_BENCHUTIL_H

#include "asm/Assembler.h"
#include "sim/Machine.h"
#include "workloads/MatMul.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

namespace lbp {
namespace bench {

struct MatMulOutcome {
  std::string Version;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  double Ipc = 0.0;
  uint64_t Remote = 0;
  uint64_t Contention = 0;
  uint64_t TraceHash = 0;
};

/// Runs one spec to completion; aborts the binary on any failure (a
/// bench must never silently report a broken run).
inline MatMulOutcome runMatMul(const workloads::MatMulSpec &Spec) {
  assembler::AsmResult R =
      assembler::assemble(workloads::buildMatMulProgram(Spec));
  if (!R.succeeded()) {
    std::fprintf(stderr, "bench: assembly failed:\n%s",
                 R.errorText().c_str());
    std::exit(1);
  }
  sim::SimConfig Cfg = sim::SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  sim::Machine M(Cfg);
  M.load(R.Prog);
  sim::RunStatus S = M.run();
  if (S != sim::RunStatus::Exited) {
    std::fprintf(stderr, "bench: run did not exit cleanly: %s\n",
                 M.faultMessage().c_str());
    std::exit(1);
  }
  // Verify the product before reporting numbers.
  unsigned H = Spec.h();
  for (unsigned I = 0; I < H; I += H / 8) {
    for (unsigned J = 0; J < H; J += H / 8) {
      uint32_t Got =
          M.debugReadWord(workloads::zElementAddress(Spec, I, J));
      if (Got != H / 2) {
        std::fprintf(stderr, "bench: wrong Z[%u][%u] = %u\n", I, J, Got);
        std::exit(1);
      }
    }
  }
  MatMulOutcome Out;
  Out.Version = workloads::matMulVersionName(Spec.Version);
  Out.Cycles = M.cycles();
  Out.Retired = M.retired();
  Out.Ipc = M.ipc();
  Out.Remote = M.remoteAccesses();
  Out.Contention = M.contentionCycles();
  Out.TraceHash = M.traceHash();
  return Out;
}

/// Prints the paper-style figure table (one row per version).
inline void printFigureTable(const char *Figure, unsigned NumHarts,
                             const std::vector<MatMulOutcome> &Rows) {
  std::printf("\n%s — matmul on a %u-core / %u-hart LBP "
              "(X: %ux%u, Y: %ux%u, int32)\n",
              Figure, NumHarts / 4, NumHarts, NumHarts, NumHarts / 2,
              NumHarts / 2, NumHarts);
  std::printf("%-12s %14s %8s %14s %12s %14s\n", "version", "cycles",
              "IPC", "retired", "remote", "queue-cycles");
  for (const MatMulOutcome &R : Rows)
    std::printf("%-12s %14llu %8.2f %14llu %12llu %14llu\n",
                R.Version.c_str(),
                static_cast<unsigned long long>(R.Cycles), R.Ipc,
                static_cast<unsigned long long>(R.Retired),
                static_cast<unsigned long long>(R.Remote),
                static_cast<unsigned long long>(R.Contention));
}

/// First line of \p Cmd's standard output ("" when it prints nothing or
/// cannot run).
inline std::string firstLineOf(const char *Cmd) {
  std::string Line;
  if (std::FILE *P = popen(Cmd, "r")) {
    char Buf[128] = {};
    if (std::fgets(Buf, sizeof(Buf), P))
      Line = Buf;
    pclose(P);
  }
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return Line;
}

/// The host block of a bench JSON: cpus online, compiler, build type,
/// link-time optimization and the source tree's git commit, with a
/// "-dirty" suffix when tracked files differ from it ("none" outside a
/// git checkout). Two timing records are comparable only when their
/// host blocks agree.
inline std::string hostJson() {
  std::string Commit =
      firstLineOf("git -C '" LBP_SOURCE_DIR "' rev-parse HEAD 2>/dev/null");
  if (Commit.size() != 40 ||
      Commit.find_first_not_of("0123456789abcdef") != std::string::npos)
    Commit = "none";
  else if (!firstLineOf("git -C '" LBP_SOURCE_DIR
                        "' status --porcelain --untracked-files=no "
                        "2>/dev/null")
                .empty())
    Commit += "-dirty";
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"lto\": %s, \"commit\": \"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), LBP_BENCH_COMPILER,
                LBP_BENCH_BUILD_TYPE, LBP_BENCH_LTO ? "true" : "false",
                Commit.c_str());
  return Buf;
}

inline const workloads::MatMulVersion AllVersions[5] = {
    workloads::MatMulVersion::Base, workloads::MatMulVersion::Copy,
    workloads::MatMulVersion::Distributed,
    workloads::MatMulVersion::DistCopy, workloads::MatMulVersion::Tiled};

} // namespace bench
} // namespace lbp

#endif // LBP_BENCH_BENCHUTIL_H
