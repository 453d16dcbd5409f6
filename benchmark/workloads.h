// The benchmark's two workloads (README.md explains why each exists).
#ifndef M3DFL_BENCHMARK_WORKLOADS_H_
#define M3DFL_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace m3dfl::benchmark {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 45.0;  // length of the timed window
  bool trace = false;     // report per-layer metrics instead of end-to-end
  bool smoke = false;     // tiny sizes, for tests
  // Service worker threads; 0 gives every core but one to the service and
  // keeps that one for the load generator.
  std::int32_t workers = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int32_t workers = 0;
  // Attempted and failed requests; a result that is not kOk, or whose
  // rendering differs from the reference chain's, fails.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Why the run is invalid; empty for a valid run.
  std::vector<std::string> problems;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // Sample counts and other context, printed but not compared.
  std::vector<Metric> notes;
  std::vector<Span> spans;  // traced replay (traced run only)
};

const std::vector<std::string>& workload_names();

// Throws m3dfl::Error for an unknown workload.
RunResult run_workload(const RunOptions& options);

}  // namespace m3dfl::benchmark

#endif  // M3DFL_BENCHMARK_WORKLOADS_H_
