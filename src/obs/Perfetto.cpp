//===- obs/Perfetto.cpp - Timeline export of the canonical event stream ----===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obs/Perfetto.h"
#include "support/StringUtils.h"

using namespace lbp;
using namespace lbp::obs;
using sim::EventKind;

/// Cycle stride of the commit counter samples.
static constexpr uint64_t CounterInterval = 64;

PerfettoSink::PerfettoSink(std::ostream &OS, const sim::SimConfig &Cfg)
    : OS(OS), NumCores(Cfg.NumCores), NextSample(CounterInterval),
      SpanOpen(Cfg.numHarts(), false),
      CommitsByCore(Cfg.NumCores, 0) {
  OS << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  // Name the lanes: one "process" per core, one "thread" per hart.
  for (unsigned C = 0; C != NumCores; ++C) {
    emitJson(formatString("{\"name\":\"process_name\",\"ph\":\"M\","
                          "\"pid\":%u,\"args\":{\"name\":\"core %u\"}}",
                          C, C)
                 .c_str());
    emitJson(formatString("{\"name\":\"process_sort_index\",\"ph\":\"M\","
                          "\"pid\":%u,\"args\":{\"sort_index\":%u}}",
                          C, C)
                 .c_str());
    for (unsigned H = 0; H != sim::HartsPerCore; ++H) {
      unsigned Hart = C * sim::HartsPerCore + H;
      emitJson(formatString("{\"name\":\"thread_name\",\"ph\":\"M\","
                            "\"pid\":%u,\"tid\":%u,"
                            "\"args\":{\"name\":\"hart %u\"}}",
                            C, Hart, Hart)
                   .c_str());
    }
  }
}

void PerfettoSink::emitJson(const char *Json) {
  if (!First)
    OS << ",\n";
  First = false;
  OS << Json;
}

void PerfettoSink::beginSpan(uint64_t Cycle, unsigned Hart, uint64_t Pc) {
  // A start on an already-open lane (join resume after a drop fault
  // replay, say) would unbalance the B/E nesting; close it first.
  if (SpanOpen[Hart])
    endSpan(Cycle, Hart);
  SpanOpen[Hart] = true;
  emitJson(formatString(
               "{\"name\":\"active\",\"cat\":\"hart\",\"ph\":\"B\","
               "\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
               "\"args\":{\"pc\":%llu}}",
               static_cast<unsigned long long>(Cycle),
               Hart / sim::HartsPerCore, Hart,
               static_cast<unsigned long long>(Pc))
               .c_str());
}

void PerfettoSink::endSpan(uint64_t Cycle, unsigned Hart) {
  if (!SpanOpen[Hart])
    return;
  SpanOpen[Hart] = false;
  emitJson(formatString("{\"ph\":\"E\",\"ts\":%llu,\"pid\":%u,\"tid\":%u}",
                        static_cast<unsigned long long>(Cycle),
                        Hart / sim::HartsPerCore, Hart)
               .c_str());
}

void PerfettoSink::instant(uint64_t Cycle, unsigned Hart, const char *Name,
                           uint64_t Arg) {
  emitJson(formatString(
               "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\","
               "\"s\":\"t\",\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
               "\"args\":{\"v\":%llu}}",
               Name, static_cast<unsigned long long>(Cycle),
               Hart / sim::HartsPerCore, Hart,
               static_cast<unsigned long long>(Arg))
               .c_str());
}

void PerfettoSink::sampleCounters(uint64_t Cycle) {
  for (unsigned C = 0; C != NumCores; ++C)
    emitJson(formatString("{\"name\":\"commits\",\"ph\":\"C\","
                          "\"ts\":%llu,\"pid\":%u,"
                          "\"args\":{\"retired\":%llu}}",
                          static_cast<unsigned long long>(Cycle), C,
                          static_cast<unsigned long long>(CommitsByCore[C]))
                 .c_str());
}

void PerfettoSink::onEvent(uint64_t Cycle, EventKind Kind, uint64_t A,
                           uint64_t B) {
  if (Cycle >= NextSample) {
    // Stamp the sample at the first event past the boundary; events
    // arrive in canonical order, so this point is deterministic.
    sampleCounters(Cycle);
    NextSample = (Cycle / CounterInterval + 1) * CounterInterval;
  }
  switch (Kind) {
  case EventKind::Commit:
    ++CommitsByCore[A / sim::HartsPerCore];
    return; // counter tracks only; one instant per commit would drown
            // the timeline
  case EventKind::BankRead:
  case EventKind::BankWrite:
    return; // likewise: visible through the bank counters in lbp_prof
  case EventKind::HartStart:
    beginSpan(Cycle, static_cast<unsigned>(A), B);
    return;
  case EventKind::HartEnd:
    endSpan(Cycle, static_cast<unsigned>(A));
    return;
  case EventKind::HartReserve:
    instant(Cycle, static_cast<unsigned>(B), "fork", A);
    return;
  case EventKind::TokenPass:
    instant(Cycle, static_cast<unsigned>(B), "token", A);
    return;
  case EventKind::Join:
    instant(Cycle, static_cast<unsigned>(A), "join", B);
    return;
  case EventKind::IoRead:
    instant(Cycle, 0, "io-read", A);
    return;
  case EventKind::IoWrite:
    instant(Cycle, 0, "io-write", A);
    return;
  case EventKind::Exit:
    instant(Cycle, static_cast<unsigned>(A), "exit", 0);
    return;
  case EventKind::FaultInject:
    instant(Cycle, static_cast<unsigned>(B), "fault-inject", A);
    return;
  case EventKind::MachineCheck:
    instant(Cycle, static_cast<unsigned>(B), "machine-check", A);
    return;
  case EventKind::Perturb:
    instant(Cycle, static_cast<unsigned>(A), "perturb", B);
    return;
  }
}

void PerfettoSink::finish(uint64_t FinalCycle) {
  if (Finished)
    return;
  Finished = true;
  for (unsigned Hart = 0; Hart != SpanOpen.size(); ++Hart)
    endSpan(FinalCycle, Hart);
  sampleCounters(FinalCycle);
  OS << "]}\n";
}

void JsonlSink::onEvent(uint64_t Cycle, EventKind Kind, uint64_t A,
                        uint64_t B) {
  OS << formatString("{\"cycle\":%llu,\"kind\":\"%s\",\"a\":%llu,"
                     "\"b\":%llu}\n",
                     static_cast<unsigned long long>(Cycle),
                     sim::eventKindName(Kind),
                     static_cast<unsigned long long>(A),
                     static_cast<unsigned long long>(B));
}
