//===- lbpbench/Harness.cpp - Timed calls into the simulator --------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "asm/Assembler.h"
#include "frontend/Compiler.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>

using namespace lbp;
using namespace lbpbench;

namespace {

/// Counts every event of the canonical trace stream.
class EventCounter : public sim::TraceSink {
public:
  uint64_t Events = 0;
  void onEvent(uint64_t, sim::EventKind, uint64_t, uint64_t) override {
    ++Events;
  }
};

SimCounts countsOf(const sim::Machine &M, const EventCounter &Ev) {
  const obs::PerfCounters &PC = M.counters();
  SimCounts C;
  C.Events = Ev.Events;
  for (uint64_t N : PC.CommitsPerCore)
    C.Commits += N;
  C.Forks = PC.Forks;
  C.TokenPasses = PC.TokenPasses;
  C.Joins = PC.Joins;
  for (uint64_t N : PC.BankReads)
    C.BankAccesses += N;
  for (uint64_t N : PC.BankWrites)
    C.BankAccesses += N;
  C.LocalAccesses = M.localAccesses();
  C.RemoteAccesses = M.remoteAccesses();
  C.ContentionCycles = M.contentionCycles();
  return C;
}

void fillInputs(const BenchProgram &P, sim::Machine &M) {
  uint32_t X = *P.Image.lookup("X"), Y = *P.Image.lookup("Y");
  for (size_t I = 0; I != P.Inputs->X.size(); ++I)
    M.debugWriteWord(X + 4 * static_cast<uint32_t>(I), P.Inputs->X[I]);
  for (size_t I = 0; I != P.Inputs->Y.size(); ++I)
    M.debugWriteWord(Y + 4 * static_cast<uint32_t>(I), P.Inputs->Y[I]);
}

bool outputsOk(const BenchProgram &P, const sim::Machine &M) {
  if (M.status() != sim::RunStatus::Exited)
    return false;
  if (P.Inputs) {
    unsigned H = P.Spec.h();
    for (unsigned I = 0; I != H; ++I)
      for (unsigned J = 0; J != H; ++J)
        if (M.debugReadWord(workloads::zElementAddress(P.Spec, I, J)) !=
            P.Inputs->Z[I * H + J])
          return false;
  }
  for (const auto &[Addr, Value] : P.Expected)
    if (M.debugReadWord(Addr) != Value)
      return false;
  return true;
}

bool assembleInto(BenchProgram &P, const std::string &Src, SpanLog &Log,
                  int64_t Op) {
  SpanLog::Scope Sc = Log.scope("asm.assemble", P.Name, Op);
  assembler::AsmResult R = assembler::assemble(Src);
  if (!R.succeeded()) {
    std::fprintf(stderr, "lbpbench: assembly of %s failed:\n%s",
                 P.Name.c_str(), R.errorText().c_str());
    return false;
  }
  P.Image = std::move(R.Prog);
  return true;
}

const char *runSpanName(bool Counters) {
  return Counters ? "sim.run+counters" : "sim.run";
}

/// The fleet worker's checkpoint write: temporary file, then rename.
bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    if (!Out.good())
      return false;
  }
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

} // namespace

Fingerprint lbpbench::fingerprintOf(const sim::Machine &M) {
  return {M.status(), M.cycles(), M.retired(), M.traceHash()};
}

bool lbpbench::buildMatMul(workloads::MatMulVersion V,
                           std::shared_ptr<const MatMulInputs> In,
                           SpanLog &Log, int64_t Op, BenchProgram &P) {
  P.Name = workloads::matMulVersionName(V);
  P.Spec = workloads::MatMulSpec::paper(MatMulHarts, V);
  P.Inputs = std::move(In);
  P.Cfg = sim::SimConfig::lbp(P.Spec.cores());
  P.Cfg.GlobalBankSizeLog2 = P.Spec.BankSizeLog2;
  std::string Src;
  {
    SpanLog::Scope Sc = Log.scope("dsl.codegen", P.Name, Op);
    Src = workloads::buildMatMulProgram(P.Spec);
  }
  return assembleInto(P, Src, Log, Op);
}

bool lbpbench::buildSync(const std::string &Name, const SyncSchedule &S,
                         bool DetC, SpanLog &Log, int64_t Op,
                         BenchProgram &P) {
  P.Name = Name;
  P.Cfg = sim::SimConfig::lbp(SyncCores);
  P.Expected = S.expected();
  std::string Src;
  if (DetC) {
    std::string Errs;
    {
      SpanLog::Scope Sc = Log.scope("frontend.compile", Name, Op);
      Src = frontend::compileDetCToAsm(emitSyncDetC(S), Errs);
    }
    if (Src.empty()) {
      std::fprintf(stderr, "lbpbench: Det-C compile of %s failed:\n%s",
                   Name.c_str(), Errs.c_str());
      return false;
    }
  } else {
    SpanLog::Scope Sc = Log.scope("romp.emit", Name, Op);
    Src = emitSyncAsm(S);
  }
  return assembleInto(P, Src, Log, Op);
}

void SimCounts::add(const SimCounts &O) {
  Events += O.Events;
  Commits += O.Commits;
  Forks += O.Forks;
  TokenPasses += O.TokenPasses;
  Joins += O.Joins;
  BankAccesses += O.BankAccesses;
  LocalAccesses += O.LocalAccesses;
  RemoteAccesses += O.RemoteAccesses;
  ContentionCycles += O.ContentionCycles;
}

OpSample lbpbench::runOp(const BenchProgram &P, SpanLog &Log, int64_t Op,
                         bool FastPath, bool Counters) {
  OpSample S;
  SpanLog::Scope Whole = Log.scope("op", P.Name, Op);
  sim::SimConfig Cfg = P.Cfg;
  Cfg.FastPath = FastPath;
  Cfg.CollectCounters = Counters;
  EventCounter Events; // outlives the machine, as addTraceSink requires
  std::optional<sim::Machine> M;
  {
    SpanLog::Scope Sc = Log.scope("sim.construct_load", P.Name, Op);
    M.emplace(Cfg);
    if (Counters)
      M->addTraceSink(&Events);
    M->load(P.Image);
  }
  if (P.Inputs) {
    SpanLog::Scope Sc = Log.scope("bench.fill", P.Name, Op);
    fillInputs(P, *M);
  }
  {
    SpanLog::Scope Sc = Log.scope(runSpanName(Counters), P.Name, Op);
    M->run();
    S.Run = Sc.stop();
  }
  {
    SpanLog::Scope Sc = Log.scope("bench.verify", P.Name, Op);
    S.Fp = fingerprintOf(*M);
    S.Ok = outputsOk(P, *M);
  }
  if (Counters) {
    S.Counted = true;
    S.Counts = countsOf(*M, Events);
  }
  M.reset(); // tearing the machine down is part of every run's cost
  S.Total = Whole.stop();
  return S;
}

fleet::FleetConfig lbpbench::fleetConfig(const std::string &CheckpointDir,
                                         int CrashRun) {
  fleet::FleetConfig FC;
  FC.Workers = FleetWorkers;
  FC.CheckpointInterval = CheckpointInterval;
  FC.CheckpointDir = CheckpointDir;
  FC.InjectCrashRun = CrashRun;
  return FC;
}

std::vector<fleet::RunSpec>
lbpbench::fleetSpecs(const std::vector<BenchProgram> &Images) {
  std::vector<fleet::RunSpec> Specs;
  for (unsigned I = 0; I != Images.size(); ++I) {
    fleet::RunSpec S;
    S.Name = Images[I].Name;
    S.ProgramIndex = I;
    S.Cfg = Images[I].Cfg;
    Specs.push_back(std::move(S));
  }
  return Specs;
}

ReplayResult lbpbench::replayFleetRun(const BenchProgram &P,
                                      const fleet::FleetConfig &FC,
                                      const std::string &CheckpointPath,
                                      bool Crash, SpanLog &Log, int64_t Op,
                                      bool Counters) {
  ReplayResult R;
  SpanLog::Scope Whole = Log.scope("fleet.replay", P.Name, Op);
  sim::SimConfig Cfg = P.Cfg;
  Cfg.CollectCounters = Counters;
  EventCounter Events;
  std::optional<sim::Machine> M;
  {
    SpanLog::Scope Sc = Log.scope("sim.construct_load", P.Name, Op);
    M.emplace(Cfg);
    if (Counters)
      M->addTraceSink(&Events);
    M->load(P.Image);
  }
  const uint64_t Deadline = fleet::RunSpec().DeadlineCycles;
  sim::RunStatus St = sim::RunStatus::MaxCycles;
  bool StepsOk = true;
  while (M->cycles() < Deadline) {
    uint64_t Chunk =
        std::min(FC.CheckpointInterval, Deadline - M->cycles());
    {
      SpanLog::Scope Sc = Log.scope(runSpanName(Counters), P.Name, Op);
      St = M->run(Chunk);
    }
    if (St != sim::RunStatus::MaxCycles)
      break;
    std::vector<uint8_t> Blob;
    {
      SpanLog::Scope Sc = Log.scope("snapshot.save", P.Name, Op);
      M->saveSnapshot(Blob);
    }
    {
      SpanLog::Scope Sc = Log.scope("snapshot.write", P.Name, Op);
      StepsOk &= writeFileAtomic(CheckpointPath, Blob);
    }
    ++R.Saves;
    R.BlobBytes = Blob.size();
    if (Crash && !R.Resumed) {
      // The injected crash: this attempt's machine is gone; the retry
      // builds a fresh one and restores the checkpoint just written.
      R.Resumed = true;
      SpanLog::Scope Sc = Log.scope("sim.construct_load", P.Name, Op);
      M.emplace(Cfg);
      if (Counters)
        M->addTraceSink(&Events);
      Sc.stop();
      std::vector<uint8_t> Saved;
      std::string Err;
      {
        SpanLog::Scope Rd = Log.scope("snapshot.read", P.Name, Op);
        StepsOk &= readFileBytes(CheckpointPath, Saved);
      }
      SpanLog::Scope Rs = Log.scope("snapshot.restore", P.Name, Op);
      if (!M->restoreSnapshot(Saved, Err)) {
        std::fprintf(stderr, "lbpbench: restore of %s failed: %s\n",
                     P.Name.c_str(), Err.c_str());
        StepsOk = false;
        break;
      }
    }
  }
  // The fleet's deterministic timeout classification (fleet/Fleet.cpp).
  if (St == sim::RunStatus::MaxCycles)
    St = sim::RunStatus::Deadline;
  R.Fp = fingerprintOf(*M);
  R.Fp.Status = St;
  {
    SpanLog::Scope Sc = Log.scope("bench.verify", P.Name, Op);
    R.Ok = StepsOk && outputsOk(P, *M);
  }
  if (Counters)
    R.Counts = countsOf(*M, Events);
  std::remove(CheckpointPath.c_str());
  R.Seconds = Whole.stop();
  return R;
}
