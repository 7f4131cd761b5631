//===- lbpbench/Spans.cpp - In-memory timing spans ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdio>
#include <map>

using namespace lbpbench;

uint64_t SpanLog::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Origin)
          .count());
}

SpanLog::Scope::Scope(SpanLog &Log, std::string Name, std::string Label,
                      int64_t Op)
    : Log(Log) {
  if (Log.Record) {
    Span S;
    S.Name = std::move(Name);
    S.Label = std::move(Label);
    S.Op = Op;
    S.Parent = Log.Open.empty() ? -1 : Log.Open.back();
    Index = static_cast<int>(Log.Spans.size());
    Log.Spans.push_back(std::move(S));
    Log.Open.push_back(Index);
  }
  // Last, so the bookkeeping above is outside the timed interval.
  StartNs = Log.nowNs();
}

double SpanLog::Scope::stop() {
  if (Seconds >= 0.0)
    return Seconds;
  uint64_t EndNs = Log.nowNs();
  Seconds = static_cast<double>(EndNs - StartNs) / 1e9;
  if (Index >= 0) {
    Span &S = Log.Spans[Index];
    S.StartNs = StartNs;
    S.EndNs = EndNs;
    Log.Open.pop_back();
  }
  return Seconds;
}

std::vector<double> SpanLog::durations(const std::string &Name,
                                       const std::string &Label) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Op >= 0 && S.Name == Name && (Label.empty() || S.Label == Label))
      Out.push_back(S.seconds());
  return Out;
}

std::vector<double> SpanLog::perOpTotals(const std::string &Name,
                                         bool Setup) const {
  std::map<int64_t, double> ByOp;
  for (const Span &S : Spans)
    if ((S.Op < 0) == Setup && S.Name == Name)
      ByOp[S.Op] += S.seconds();
  std::vector<double> Out;
  for (const auto &[Op, Sec] : ByOp)
    Out.push_back(Sec);
  return Out;
}

bool SpanLog::writeJson(const std::string &Path,
                        const std::string &HostJson) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\n\"host\": %s,\n\"spans\": [\n", HostJson.c_str());
  struct Layer {
    uint64_t Count = 0, TotalNs = 0, SelfNs = 0;
  };
  std::map<std::string, Layer> Layers;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    uint64_t Dur = S.EndNs - S.StartNs;
    uint64_t Self = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    Layer &L = Layers[S.Name];
    ++L.Count;
    L.TotalNs += Dur;
    L.SelfNs += Self;
    std::fprintf(F,
                 "{\"name\": \"%s\", \"label\": \"%s\", \"op\": %lld, "
                 "\"parent\": %d, \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"self_ns\": %llu}%s\n",
                 S.Name.c_str(), S.Label.c_str(),
                 static_cast<long long>(S.Op), S.Parent,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<unsigned long long>(Self),
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "],\n\"layers\": {\n");
  size_t K = 0;
  for (const auto &[Name, L] : Layers)
    std::fprintf(F,
                 "\"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 Name.c_str(), static_cast<unsigned long long>(L.Count),
                 static_cast<double>(L.TotalNs) / 1e9,
                 static_cast<double>(L.SelfNs) / 1e9,
                 ++K == Layers.size() ? "" : ",");
  std::fprintf(F, "}\n}\n");
  return std::fclose(F) == 0;
}
