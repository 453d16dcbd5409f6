// Order statistics for benchmark reporting.
#ifndef M3DFL_BENCHMARK_STATS_H_
#define M3DFL_BENCHMARK_STATS_H_

#include <vector>

namespace m3dfl::benchmark {

// Nearest-rank percentile: the smallest value such that at least q% of the
// values are at or below it, q in (0, 100].  No interpolation, so the result
// is always a measured value.  0 for an empty input.
double percentile(std::vector<double> values, double q);

// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& values);

}  // namespace m3dfl::benchmark

#endif  // M3DFL_BENCHMARK_STATS_H_
