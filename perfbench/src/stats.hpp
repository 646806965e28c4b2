// Order statistics for the benchmark's latency and throughput samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of `v`: the smallest sample with at
/// least q·n samples at or below it. 0 for an empty vector.
double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Arithmetic mean; 0 for an empty vector.
double mean(const std::vector<double>& v);

/// The highest whole percentile that still has at least `min_beyond`
/// samples strictly above its nearest rank. With fewer than 2·min_beyond
/// samples no percentile >= 50 qualifies, and the tail falls back to the
/// median with `beyond` saying how few samples lie past it.
struct Tail {
  int pct = 50;
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count n
  std::size_t beyond = 0;   ///< samples ranked above the percentile
};
Tail tail_percentile(const std::vector<double>& v, std::size_t min_beyond = 10);

}  // namespace perfbench
