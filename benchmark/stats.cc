#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace m3dfl::benchmark {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  // 1-based rank ceil(q/100 * n), clamped to [1, n].
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q / 100.0 * n), 1.0, n));
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace m3dfl::benchmark
