//===- lbpbench/Stats.h - Summary statistics for timings ------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The few order statistics the benchmark reports. quartiles() follows
/// Python's statistics.quantiles(values, n=4) (its default "exclusive"
/// method), so spreads computed here and by a script over the printed
/// values agree.
///
//===----------------------------------------------------------------------===//

#ifndef LBPBENCH_STATS_H
#define LBPBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lbpbench {

/// Median; 0 for an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// The three cut points of statistics.quantiles(V, n=4). A sample of
/// one value gives that value three times; an empty one gives zeros.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  if (V.size() < 2)
    return V.empty() ? std::array<double, 3>{0, 0, 0}
                     : std::array<double, 3>{V[0], V[0], V[0]};
  std::sort(V.begin(), V.end());
  long Len = static_cast<long>(V.size());
  long M = Len + 1;
  std::array<double, 3> Q{};
  for (long I = 1; I != 4; ++I) {
    // Exclusive method: clamp to the sample's ends, then interpolate
    // with the exact integer weights, as Python does.
    long J = std::clamp(I * M / 4, 1L, Len - 1);
    long Delta = I * M - J * 4;
    Q[I - 1] = (V[J - 1] * static_cast<double>(4 - Delta) +
                V[J] * static_cast<double>(Delta)) /
               4.0;
  }
  return Q;
}

/// A tail timing: the highest of the standard percentiles that still
/// has at least ten samples beyond it (nearest rank), or the median
/// when the sample is too small for any.
struct Tail {
  double Percentile = 50.0;
  double Value = 0.0;
  size_t Samples = 0;
};

inline Tail tailPercentile(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  T.Value = median(V);
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  for (double P : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    size_t Rank = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(V.size())));
    if (Rank == 0 || V.size() - Rank < 10)
      break;
    T.Percentile = P;
    T.Value = V[Rank - 1];
  }
  return T;
}

} // namespace lbpbench

#endif // LBPBENCH_STATS_H
