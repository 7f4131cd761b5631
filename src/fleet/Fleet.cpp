//===- fleet/Fleet.cpp - Crash-isolated simulation campaigns ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-level half of the fleet runner. One fork()ed child per
/// attempt: the parent assembles the program images once and the
/// children inherit them copy-on-write, so an N-run campaign shares one
/// read-only image instead of N copies. The child executes the
/// simulation in checkpoint-sized chunks, streams its verdict back over
/// a pipe (support/Serialize.h wire format), and _exit()s; the parent
/// poll()s every child's pipe, so it wakes the moment a child writes or
/// closes it, reaps with waitpid(), applies the wall-clock watchdog and
/// the bounded-retry policy, and never blocks on a single worker.
///
/// Failure handling invariants (docs/ROBUSTNESS.md):
///  * any child death — signal, nonzero exit, truncated result — costs
///    exactly one attempt of one run;
///  * the parent always terminates: every run ends in a verdict, with
///    Incomplete as the exhausted-retries floor;
///  * pipes are drained nonblockingly after every wakeup, so a child
///    with a large result (a long livelock report) can never deadlock
///    against a full pipe buffer;
///  * the poll timeout is the nearest thing that can happen without a
///    pipe event — a watchdog deadline, or a retry's backoff ending
///    while a worker slot is free. A child's pipe closes when it exits;
///    between that and its reap, the parent polls every millisecond, so
///    an exited worker frees its slot at once instead of on a fixed
///    tick.
///
//===----------------------------------------------------------------------===//

#include "fleet/Fleet.h"

#include "support/Serialize.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace lbp;
using namespace lbp::fleet;

const char *lbp::fleet::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Pass:
    return "pass";
  case Verdict::Fault:
    return "fault";
  case Verdict::Livelock:
    return "livelock";
  case Verdict::Deadline:
    return "deadline";
  case Verdict::Incomplete:
    return "incomplete";
  }
  return "unknown";
}

const char *lbp::fleet::attemptOutcomeName(AttemptOutcome O) {
  switch (O) {
  case AttemptOutcome::Completed:
    return "completed";
  case AttemptOutcome::Crashed:
    return "crashed";
  case AttemptOutcome::Hung:
    return "hung";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t ResultMagic = 0x52544C46u;   // 'FLTR'
constexpr uint32_t ResultTrailer = 0x444E4C46u; // 'FLND'

/// Checkpoint files are tagged with the campaign parent's pid so that
/// concurrent campaigns sharing a checkpoint directory (parallel test
/// runners, two fleets on one box) can never clobber or reap each
/// other's checkpoints. Children receive the parent pid explicitly —
/// their own getpid() differs after fork().
std::string checkpointPath(const FleetConfig &FC, pid_t CampaignPid,
                           unsigned RunIdx) {
  return FC.CheckpointDir + "/fleet-" + std::to_string(CampaignPid) +
         "-run" + std::to_string(RunIdx) + ".ckpt";
}

/// Reads the regular file at \p Path into \p Out, sized from fstat and
/// read in one call (more only if a read is cut short). False when the
/// file is missing, not a regular file, unreadable, or shorter than its
/// size said.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  int Fd = open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  if (Ok) {
    Out.resize(static_cast<size_t>(St.st_size));
    size_t Off = 0;
    while (Off < Out.size()) {
      ssize_t N = read(Fd, Out.data() + Off, Out.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    Ok = Off == Out.size();
  }
  close(Fd);
  return Ok;
}

/// The worker's verdict record on the pipe, written by childAttempt and
/// read by parseResult.
template <class Ar, class R> void resultRecord(Ar &A, R &Res) {
  A.expect(ResultMagic, "bad magic");
  A.u8(Res.Status, sim::RunStatus::Deadline, "invalid run status");
  A.u64(Res.Cycles);
  A.u64(Res.Retired);
  A.u64(Res.TraceHash);
  A.u32(Res.FaultsFired);
  A.bytes(Res.Message);
  A.u8(Res.ResumedFromCheckpoint);
  A.finish(ResultTrailer, "truncated or trailing-garbage record");
}

/// Atomic checkpoint write: the blob lands under a temporary name and
/// is rename()d into place, so a worker killed mid-write can never
/// leave a torn checkpoint for its retry to trip over.
bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    if (!Out.good())
      return false;
  }
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}

/// The whole child-side of one attempt. Never returns.
[[noreturn]] void childAttempt(const assembler::Program &Image,
                               const RunSpec &Spec, const FleetConfig &FC,
                               pid_t CampaignPid, unsigned RunIdx,
                               unsigned Attempt, int WriteFd) {
  // First-attempt failure injection for the CI smoke campaign.
  bool InjectCrash =
      Attempt == 0 && FC.InjectCrashRun == static_cast<int>(RunIdx);
  bool InjectHang =
      Attempt == 0 && FC.InjectHangRun == static_cast<int>(RunIdx);
  if (InjectHang)
    for (;;)
      pause(); // wedged worker; only the watchdog can end this attempt

  sim::Machine M(Spec.Cfg);
  bool Resumed = false;
  if (Attempt > 0 && FC.CheckpointInterval != 0) {
    std::vector<uint8_t> Blob;
    std::string Err;
    if (readFileBytes(checkpointPath(FC, CampaignPid, RunIdx), Blob) &&
        M.restoreSnapshot(Blob, Err))
      Resumed = true;
    // A missing or rejected checkpoint is not an error: the attempt
    // simply starts from the beginning.
  }
  if (!Resumed)
    M.load(Image);

  if (InjectCrash && FC.CheckpointInterval == 0)
    abort();

  sim::RunStatus St = sim::RunStatus::MaxCycles;
  while (true) {
    if (M.cycles() >= Spec.DeadlineCycles)
      break;
    uint64_t Remaining = Spec.DeadlineCycles - M.cycles();
    uint64_t Chunk = FC.CheckpointInterval != 0
                         ? std::min(FC.CheckpointInterval, Remaining)
                         : Remaining;
    St = M.run(Chunk);
    if (St != sim::RunStatus::MaxCycles)
      break;
    if (FC.CheckpointInterval != 0) {
      std::vector<uint8_t> Blob;
      M.saveSnapshot(Blob);
      writeFileAtomic(checkpointPath(FC, CampaignPid, RunIdx), Blob);
      if (InjectCrash)
        abort(); // after the first checkpoint: the retry must restore it
    }
  }
  // The fleet's deterministic timeout classification: exhausting the
  // cycle deadline is Deadline, not MaxCycles (Machine.h).
  if (St == sim::RunStatus::MaxCycles)
    St = sim::RunStatus::Deadline;

  RunResult R;
  R.Status = St;
  R.Cycles = M.cycles();
  R.Retired = M.retired();
  R.TraceHash = M.traceHash();
  R.FaultsFired = M.faultPlan().firedCount();
  R.Message = M.faultMessage();
  R.ResumedFromCheckpoint = Resumed;
  ArchiveWriter W;
  resultRecord(W, std::as_const(R));

  const std::vector<uint8_t> &Buf = W.buffer();
  size_t Off = 0;
  while (Off < Buf.size()) {
    ssize_t N = write(WriteFd, Buf.data() + Off, Buf.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      _exit(3);
    }
    Off += static_cast<size_t>(N);
  }
  close(WriteFd);
  _exit(0);
}

/// Parses a child's result stream into \p R. False on any malformation
/// (the attempt then counts as crashed).
bool parseResult(const std::vector<uint8_t> &Bytes, RunResult &R) {
  ArchiveReader Rd(Bytes);
  resultRecord(Rd, R);
  if (!Rd.ok())
    return false;
  switch (R.Status) {
  case sim::RunStatus::Exited:
    R.V = Verdict::Pass;
    break;
  case sim::RunStatus::Fault:
    R.V = Verdict::Fault;
    break;
  case sim::RunStatus::Livelock:
    R.V = Verdict::Livelock;
    break;
  case sim::RunStatus::MaxCycles:
  case sim::RunStatus::Deadline:
    R.V = Verdict::Deadline;
    break;
  }
  return true;
}

/// Retry backoff: attempt k (k >= 1) becomes eligible
/// min(BackoffBaseMs << (k - 1), BackoffCapMs) after the failure.
constexpr uint64_t BackoffBaseMs = 50;
constexpr uint64_t BackoffCapMs = 2000;

/// One queued attempt waiting for a worker slot (and its backoff).
struct PendingAttempt {
  unsigned RunIdx;
  unsigned Attempt;
  Clock::time_point ReadyAt;
};

/// One live worker process.
struct ActiveWorker {
  pid_t Pid = -1;
  unsigned RunIdx = 0;
  unsigned Attempt = 0;
  int Fd = -1; ///< Parent's read end, O_NONBLOCK; -1 once at EOF.
  std::vector<uint8_t> Buf;
  Clock::time_point Started;
  bool WatchdogKilled = false;
};

/// Drains \p W's pipe without blocking. Returns false once EOF is seen.
void drainPipe(ActiveWorker &W) {
  if (W.Fd < 0)
    return;
  uint8_t Tmp[4096];
  for (;;) {
    ssize_t N = read(W.Fd, Tmp, sizeof(Tmp));
    if (N > 0) {
      W.Buf.insert(W.Buf.end(), Tmp, Tmp + N);
      continue;
    }
    if (N == 0) { // EOF: writer side fully closed
      close(W.Fd);
      W.Fd = -1;
    }
    // N < 0: EAGAIN (nothing now) or EINTR — either way, try later.
    return;
  }
}

/// Whole milliseconds from \p Since to \p Now (not earlier), the
/// watchdog's clock.
uint64_t elapsedMs(Clock::time_point Since, Clock::time_point Now) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Now - Since)
          .count());
}

/// Milliseconds from \p Now until \p At, rounded up so that a wakeup
/// never lands before \p At; 0 when \p At has passed.
uint64_t msUntil(Clock::time_point Now, Clock::time_point At) {
  if (At <= Now)
    return 0;
  return static_cast<uint64_t>(
      std::chrono::ceil<std::chrono::milliseconds>(At - Now).count());
}

} // namespace

CampaignResult
lbp::fleet::runCampaign(const std::vector<assembler::Program> &Images,
                        const std::vector<RunSpec> &Specs,
                        const FleetConfig &FC) {
  CampaignResult Result;
  Result.Runs.resize(Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I)
    Result.Runs[I].Name = Specs[I].Name;

  pid_t CampaignPid = getpid();
  unsigned Workers = std::max(1u, FC.Workers);
  unsigned MaxAttempts = std::max(1u, FC.MaxAttempts);

  std::vector<PendingAttempt> Pending;
  for (unsigned I = 0; I != Specs.size(); ++I)
    Pending.push_back({I, 0, Clock::now()});
  std::vector<ActiveWorker> Active;

  auto FailAttempt = [&](unsigned RunIdx, unsigned Attempt,
                         AttemptOutcome O) {
    Result.Runs[RunIdx].Attempts.push_back(O);
    if (Attempt + 1 < MaxAttempts) {
      uint64_t Shift = std::min<uint64_t>(Attempt, 62);
      uint64_t Backoff = std::min(BackoffBaseMs << Shift, BackoffCapMs);
      Pending.push_back({RunIdx, Attempt + 1,
                         Clock::now() + std::chrono::milliseconds(Backoff)});
    } else {
      // Retries exhausted: graceful degradation, explicit verdict.
      Result.Runs[RunIdx].V = Verdict::Incomplete;
      Result.Complete = false;
    }
  };

  while (!Pending.empty() || !Active.empty()) {
    // Launch every ready pending attempt into a free slot, lowest run
    // index first (stable order; the report is index-ordered anyway).
    std::sort(Pending.begin(), Pending.end(),
              [](const PendingAttempt &A, const PendingAttempt &B) {
                return A.RunIdx < B.RunIdx;
              });
    Clock::time_point Now = Clock::now();
    for (size_t I = 0; I < Pending.size() && Active.size() < Workers;) {
      if (Pending[I].ReadyAt > Now) {
        ++I;
        continue;
      }
      PendingAttempt P = Pending[I];
      Pending.erase(Pending.begin() + I);

      int Fds[2];
      if (pipe(Fds) != 0) {
        FailAttempt(P.RunIdx, P.Attempt, AttemptOutcome::Crashed);
        continue;
      }
      pid_t Pid = fork();
      if (Pid < 0) {
        close(Fds[0]);
        close(Fds[1]);
        FailAttempt(P.RunIdx, P.Attempt, AttemptOutcome::Crashed);
        continue;
      }
      if (Pid == 0) {
        close(Fds[0]);
        const RunSpec &Spec = Specs[P.RunIdx];
        childAttempt(Images[Spec.ProgramIndex], Spec, FC, CampaignPid,
                     P.RunIdx, P.Attempt, Fds[1]);
      }
      close(Fds[1]);
      fcntl(Fds[0], F_SETFL, O_NONBLOCK);
      ActiveWorker W;
      W.Pid = Pid;
      W.RunIdx = P.RunIdx;
      W.Attempt = P.Attempt;
      W.Fd = Fds[0];
      W.Started = Clock::now();
      Active.push_back(std::move(W));
    }

    // Sleep until a worker writes or closes its pipe, or until the
    // nearest timed event: a watchdog deadline, the reap of a worker
    // whose pipe has closed, or — when a slot is free — the end of a
    // pending retry's backoff. Worked out in whole milliseconds, so a
    // huge budget saturates instead of overflowing the clock.
    Now = Clock::now();
    int Timeout = -1; // no timed event: wait for the pipes
    auto Within = [&](uint64_t Ms) {
      int T = static_cast<int>(std::min<uint64_t>(Ms, INT32_MAX));
      if (Timeout < 0 || T < Timeout)
        Timeout = T;
    };
    std::vector<pollfd> Polls;
    for (const ActiveWorker &W : Active) {
      if (W.Fd >= 0)
        Polls.push_back({W.Fd, POLLIN, 0});
      else
        Within(1);
      // The watchdog fires once the elapsed whole milliseconds exceed
      // the budget.
      if (FC.WallTimeoutMs != 0 && !W.WatchdogKilled) {
        uint64_t Ms = elapsedMs(W.Started, Now);
        Within(Ms > FC.WallTimeoutMs
                   ? 0
                   : std::min<uint64_t>(FC.WallTimeoutMs - Ms, INT32_MAX) + 1);
      }
    }
    if (Active.size() < Workers)
      for (const PendingAttempt &P : Pending)
        Within(msUntil(Now, P.ReadyAt));
    // An interrupted or failed poll only means an early rescan.
    poll(Polls.data(), Polls.size(), Timeout);

    for (ActiveWorker &W : Active)
      drainPipe(W);

    // Watchdog: SIGKILL attempts past the wall budget. A host backstop
    // only — the classification a hung run eventually gets is the
    // deterministic one, from its retry.
    if (FC.WallTimeoutMs != 0) {
      Clock::time_point T = Clock::now();
      for (ActiveWorker &W : Active) {
        if (W.WatchdogKilled)
          continue;
        if (elapsedMs(W.Started, T) > FC.WallTimeoutMs) {
          kill(W.Pid, SIGKILL);
          W.WatchdogKilled = true;
        }
      }
    }

    // Reap finished workers.
    for (size_t I = 0; I < Active.size();) {
      ActiveWorker &W = Active[I];
      int WStatus = 0;
      pid_t Got = waitpid(W.Pid, &WStatus, WNOHANG);
      if (Got == 0) {
        ++I;
        continue;
      }
      drainPipe(W); // final bytes raced the exit
      if (W.Fd >= 0) {
        close(W.Fd);
        W.Fd = -1;
      }
      unsigned RunIdx = W.RunIdx, Attempt = W.Attempt;
      bool CleanExit = Got == W.Pid && WIFEXITED(WStatus) &&
                       WEXITSTATUS(WStatus) == 0;
      RunResult Parsed;
      if (CleanExit && parseResult(W.Buf, Parsed)) {
        Parsed.Name = Result.Runs[RunIdx].Name;
        Parsed.Engine = sim::engineName(Specs[RunIdx].Cfg);
        Parsed.Attempts = Result.Runs[RunIdx].Attempts;
        Parsed.Attempts.push_back(AttemptOutcome::Completed);
        Result.Runs[RunIdx] = std::move(Parsed);
        if (FC.CheckpointInterval != 0) {
          std::string Ckpt = checkpointPath(FC, CampaignPid, RunIdx);
          std::remove(Ckpt.c_str());
          std::remove((Ckpt + ".tmp").c_str());
        }
      } else {
        FailAttempt(RunIdx, Attempt,
                    W.WatchdogKilled ? AttemptOutcome::Hung
                                     : AttemptOutcome::Crashed);
      }
      Active.erase(Active.begin() + I);
    }
  }

  // Campaign-end hygiene: no checkpoint survives a resolved campaign.
  if (FC.CheckpointInterval != 0)
    for (unsigned I = 0; I != Specs.size(); ++I) {
      std::string Ckpt = checkpointPath(FC, CampaignPid, I);
      std::remove(Ckpt.c_str());
      std::remove((Ckpt + ".tmp").c_str());
    }
  return Result;
}
