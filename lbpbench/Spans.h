//===- lbpbench/Spans.h - In-memory timing spans --------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every call the benchmark makes into a layer of the repo runs inside a
/// Scope, which times it with steady_clock. In a traced run the scopes
/// are also kept as spans (name, label, op id, parent, start, end) in
/// memory and written out once the run ends, with each span's self time
/// (its duration minus the time its child spans cover). The per-layer
/// metrics are computed from these spans.
///
//===----------------------------------------------------------------------===//

#ifndef LBPBENCH_SPANS_H
#define LBPBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lbpbench {

struct Span {
  std::string Name;  ///< Layer call, e.g. "sim.run".
  std::string Label; ///< Program or variant, e.g. "tiled".
  int64_t Op = -1;   ///< Op the span belongs to; -1 for set-up.
  int Parent = -1;   ///< Index of the enclosing span, -1 at top level.
  uint64_t StartNs = 0, EndNs = 0;

  double seconds() const { return static_cast<double>(EndNs - StartNs) / 1e9; }
};

class SpanLog {
public:
  explicit SpanLog(bool Record)
      : Record(Record), Origin(std::chrono::steady_clock::now()) {}

  /// Times one call; keeps it as a span when the log records.
  class Scope {
  public:
    Scope(SpanLog &Log, std::string Name, std::string Label, int64_t Op);
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { stop(); }

    /// Ends the span (once) and returns its duration in seconds.
    double stop();

  private:
    SpanLog &Log;
    int Index = -1;
    uint64_t StartNs = 0;
    double Seconds = -1.0;
  };

  Scope scope(std::string Name, std::string Label = "", int64_t Op = -1) {
    return Scope(*this, std::move(Name), std::move(Label), Op);
  }

  bool recording() const { return Record; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Durations in seconds of the timed ops' spans (op id >= 0) named
  /// \p Name, and labelled \p Label when it is non-empty.
  std::vector<double> durations(const std::string &Name,
                                const std::string &Label = "") const;

  /// Per op id, the summed duration of its spans named \p Name: over
  /// the set-up ops (negative ids) when \p Setup, else the timed ops.
  std::vector<double> perOpTotals(const std::string &Name,
                                  bool Setup = false) const;

  /// Writes {"host", "spans", "layers"} JSON to \p Path; "layers" sums
  /// count, total and self time per span name.
  bool writeJson(const std::string &Path, const std::string &HostJson) const;

private:
  uint64_t nowNs() const;

  bool Record;
  std::chrono::steady_clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Open; ///< Stack of open span indices.
};

} // namespace lbpbench

#endif // LBPBENCH_SPANS_H
