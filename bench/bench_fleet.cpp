//===- bench/bench_fleet.cpp - Checkpoint and fleet overhead ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The robustness layer's second cost question (bench_faults asked the
// first): what does crash recovery cost when nothing crashes?
// Measured here:
//
//  * snapshot mechanics — blob size and save/restore round-trip time
//    for representative machine sizes, plus the bit-identity assertion
//    (save -> restore -> save must reproduce the exact bytes);
//  * checkpointing overhead — the same workload run uninterrupted vs
//    chunked with a checkpoint after every chunk, as a slowdown
//    factor; the trace hashes must match, or the numbers are void;
//  * fleet throughput — a clean seed-sweep campaign of 16-core matmul
//    runs end to end (fork, pipe, reap) at 1 and 4 workers, in runs per
//    second. Each run simulates for a few hundred milliseconds, so the
//    cell shows how campaigns scale across host cpus — the repo's only
//    host parallelism — rather than fork overhead.
//
// Results land in BENCH_fleet.json, with the host block of BenchUtil.h,
// so the cost trajectory is recorded per commit. Exit nonzero on any
// identity violation or failed run; the output file is deleted first,
// so such a run leaves none behind.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "asm/Assembler.h"
#include "fleet/Fleet.h"
#include "sim/Machine.h"
#include "sim/Snapshot.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace lbp;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

assembler::Program assembleOrDie(const std::string &Source) {
  assembler::AsmResult R = assembler::assemble(Source);
  if (!R.succeeded()) {
    std::fprintf(stderr, "bench_fleet: assembly failed:\n%s",
                 R.errorText().c_str());
    std::exit(1);
  }
  return std::move(R.Prog);
}

assembler::Program phasesImage(unsigned Cores) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 4 * Cores;
  return assembleOrDie(workloads::buildPhasesProgram(Spec));
}

struct SnapshotCost {
  unsigned Cores = 0;
  size_t BlobBytes = 0;
  double SaveSeconds = 0.0;
  double RestoreSeconds = 0.0;
};

/// Blob size and save/restore latency at a mid-run machine state.
SnapshotCost measureSnapshot(unsigned Cores) {
  assembler::Program Prog = phasesImage(Cores);
  sim::SimConfig Cfg = sim::SimConfig::lbp(Cores);
  sim::Machine M(Cfg);
  M.load(Prog);
  M.run(200); // a busy, representative state — not the idle boot image

  SnapshotCost C;
  C.Cores = Cores;
  constexpr int Reps = 20;
  std::vector<uint8_t> Blob;
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Reps; ++I) {
    Blob.clear();
    M.saveSnapshot(Blob);
  }
  C.SaveSeconds = secondsSince(T0) / Reps;
  C.BlobBytes = Blob.size();

  sim::Machine Restored(Cfg);
  std::string Err;
  T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Reps; ++I)
    if (!Restored.restoreSnapshot(Blob, Err)) {
      std::fprintf(stderr, "bench_fleet: restore failed: %s\n",
                   Err.c_str());
      std::exit(1);
    }
  C.RestoreSeconds = secondsSince(T0) / Reps;

  // save -> restore -> save must reproduce the exact bytes.
  std::vector<uint8_t> Blob2;
  Restored.saveSnapshot(Blob2);
  if (Blob2 != Blob) {
    std::fprintf(stderr,
                 "bench_fleet: %u-core snapshot not byte-stable across "
                 "restore\n",
                 Cores);
    std::exit(1);
  }
  return C;
}

struct CheckpointOverhead {
  uint64_t IntervalCycles = 0;
  double PlainSeconds = 0.0;
  double CheckpointedSeconds = 0.0;
  double Slowdown = 0.0;
  unsigned Checkpoints = 0;
};

/// The same run uninterrupted vs chunked-with-save; hash must agree.
CheckpointOverhead measureCheckpointing(unsigned Cores,
                                        uint64_t Interval) {
  assembler::Program Prog = phasesImage(Cores);
  sim::SimConfig Cfg = sim::SimConfig::lbp(Cores);

  sim::Machine Plain(Cfg);
  Plain.load(Prog);
  auto T0 = std::chrono::steady_clock::now();
  sim::RunStatus St = Plain.run();
  CheckpointOverhead O;
  O.IntervalCycles = Interval;
  O.PlainSeconds = secondsSince(T0);
  if (St != sim::RunStatus::Exited) {
    std::fprintf(stderr, "bench_fleet: plain run did not exit: %s\n",
                 Plain.faultMessage().c_str());
    std::exit(1);
  }

  sim::Machine Ckpt(Cfg);
  Ckpt.load(Prog);
  std::vector<uint8_t> Blob;
  T0 = std::chrono::steady_clock::now();
  while (Ckpt.run(Interval) == sim::RunStatus::MaxCycles) {
    Blob.clear();
    Ckpt.saveSnapshot(Blob);
    ++O.Checkpoints;
  }
  O.CheckpointedSeconds = secondsSince(T0);
  if (Ckpt.traceHash() != Plain.traceHash() ||
      Ckpt.cycles() != Plain.cycles()) {
    std::fprintf(stderr, "bench_fleet: checkpointed run diverged\n");
    std::exit(1);
  }
  if (O.PlainSeconds > 0.0)
    O.Slowdown = O.CheckpointedSeconds / O.PlainSeconds;
  return O;
}

/// The fleet cell's machine size: the lbp_fleet `--workload matmul
/// --cores 16` campaign.
constexpr unsigned FleetCores = 16;

struct FleetThroughput {
  unsigned Workers = 0;
  unsigned Runs = 0;
  double Seconds = 0.0;
  double RunsPerSec = 0.0;
};

/// A clean seed-sweep campaign end to end: process fan-out included.
FleetThroughput measureFleet(unsigned Workers, unsigned Runs) {
  workloads::MatMulSpec Spec;
  Spec.NumHarts = 4 * FleetCores;
  Spec.Version = workloads::MatMulVersion::Distributed;
  std::vector<assembler::Program> Images;
  Images.push_back(assembleOrDie(workloads::buildMatMulProgram(Spec)));
  std::vector<fleet::RunSpec> Specs;
  for (unsigned I = 0; I != Runs; ++I) {
    fleet::RunSpec S;
    S.Name = "matmul-seed" + std::to_string(I + 1);
    S.Cfg = sim::SimConfig::lbp(FleetCores);
    S.Cfg.Faults.Seed = I + 1;
    Specs.push_back(std::move(S));
  }
  fleet::FleetConfig FC;
  FC.Workers = Workers;

  FleetThroughput T;
  T.Workers = Workers;
  T.Runs = Runs;
  auto T0 = std::chrono::steady_clock::now();
  fleet::CampaignResult R = fleet::runCampaign(Images, Specs, FC);
  T.Seconds = secondsSince(T0);
  for (const fleet::RunResult &Run : R.Runs)
    if (Run.V != fleet::Verdict::Pass) {
      std::fprintf(stderr, "bench_fleet: campaign run %s failed: %s\n",
                   Run.Name.c_str(), Run.Message.c_str());
      std::exit(1);
    }
  if (T.Seconds > 0.0)
    T.RunsPerSec = Runs / T.Seconds;
  return T;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_fleet.json";
  bool Quick = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_fleet [--quick] [--out FILE]\n"
                   "Checkpoint and fleet-runner overhead "
                   "(docs/ROBUSTNESS.md). Exit 1 on any\n"
                   "bit-identity violation.\n");
      return 2;
    }
  }
  // No stale result may survive a run that exits before writing one.
  std::remove(OutPath.c_str());

  std::vector<SnapshotCost> Snaps;
  for (unsigned Cores : Quick ? std::vector<unsigned>{4}
                              : std::vector<unsigned>{4, 16, 64}) {
    Snaps.push_back(measureSnapshot(Cores));
    std::printf("snapshot %2u cores: %zu bytes, save %.1f us, "
                "restore %.1f us\n",
                Snaps.back().Cores, Snaps.back().BlobBytes,
                Snaps.back().SaveSeconds * 1e6,
                Snaps.back().RestoreSeconds * 1e6);
  }

  std::vector<CheckpointOverhead> Ckpts;
  for (uint64_t Interval : Quick ? std::vector<uint64_t>{500}
                                 : std::vector<uint64_t>{100, 500, 2000}) {
    Ckpts.push_back(measureCheckpointing(4, Interval));
    std::printf("checkpoint every %4llu cycles: %ux saved, "
                "slowdown %.3fx\n",
                static_cast<unsigned long long>(
                    Ckpts.back().IntervalCycles),
                Ckpts.back().Checkpoints, Ckpts.back().Slowdown);
  }

  std::vector<FleetThroughput> Fleets;
  unsigned Runs = Quick ? 4 : 8;
  for (unsigned Workers : {1u, 4u}) {
    Fleets.push_back(measureFleet(Workers, Runs));
    std::printf("fleet %u workers: %u %u-core matmul runs in %.3f s "
                "(%.2f runs/s)\n",
                Fleets.back().Workers, Fleets.back().Runs, FleetCores,
                Fleets.back().Seconds, Fleets.back().RunsPerSec);
  }

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "bench_fleet: cannot open %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n  \"bench\": \"fleet\",\n  \"quick\": %s,\n",
               Quick ? "true" : "false");
  std::fprintf(F, "  \"host\": %s,\n", bench::hostJson().c_str());
  std::fprintf(F, "  \"snapshot_format_version\": %u,\n",
               sim::SnapshotFormatVersion);
  std::fprintf(F, "  \"snapshots\": [\n");
  for (size_t I = 0; I != Snaps.size(); ++I)
    std::fprintf(F,
                 "    {\"cores\": %u, \"blob_bytes\": %zu, "
                 "\"save_us\": %.2f, \"restore_us\": %.2f}%s\n",
                 Snaps[I].Cores, Snaps[I].BlobBytes,
                 Snaps[I].SaveSeconds * 1e6,
                 Snaps[I].RestoreSeconds * 1e6,
                 I + 1 == Snaps.size() ? "" : ",");
  std::fprintf(F, "  ],\n  \"checkpointing\": [\n");
  for (size_t I = 0; I != Ckpts.size(); ++I)
    std::fprintf(F,
                 "    {\"interval_cycles\": %llu, \"checkpoints\": %u, "
                 "\"plain_seconds\": %.6f, \"checkpointed_seconds\": "
                 "%.6f, \"slowdown\": %.4f}%s\n",
                 static_cast<unsigned long long>(Ckpts[I].IntervalCycles),
                 Ckpts[I].Checkpoints, Ckpts[I].PlainSeconds,
                 Ckpts[I].CheckpointedSeconds, Ckpts[I].Slowdown,
                 I + 1 == Ckpts.size() ? "" : ",");
  std::fprintf(F, "  ],\n  \"fleet\": [\n");
  for (size_t I = 0; I != Fleets.size(); ++I)
    std::fprintf(F,
                 "    {\"workload\": \"matmul\", \"cores\": %u, "
                 "\"workers\": %u, \"runs\": %u, \"seconds\": %.4f, "
                 "\"runs_per_sec\": %.2f}%s\n",
                 FleetCores, Fleets[I].Workers, Fleets[I].Runs,
                 Fleets[I].Seconds, Fleets[I].RunsPerSec,
                 I + 1 == Fleets.size() ? "" : ",");
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
