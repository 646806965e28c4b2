#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q over n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto r =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Tail tail_percentile(const std::vector<double>& v, std::size_t min_beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  // Integer arithmetic on the percentile keeps ceil() exact: rank of
  // percentile p is ceil(p·n / 100).
  for (int p = 99; p >= 50; --p) {
    const std::size_t rank =
        (static_cast<std::size_t>(p) * v.size() + 99) / 100;
    if (v.size() - std::max<std::size_t>(rank, 1) >= min_beyond || p == 50) {
      t.pct = p;
      break;
    }
  }
  const std::size_t rank = std::max<std::size_t>(
      (static_cast<std::size_t>(t.pct) * v.size() + 99) / 100, 1);
  t.beyond = v.size() - rank;
  std::vector<double> s = v;
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   s.end());
  t.value = s[rank - 1];
  return t;
}

}  // namespace perfbench
