// Uniform-stride response thinning.
//
// Every suspect extraction — the batch and streaming back-traces
// (graph/backtrace.cc, diag/stream_backtrace.cc) and the ATPG engine's
// suspect-net pass (diag/atpg_diagnosis.cc) — caps how many failing tester
// responses it traces: the per-response suspect intersection converges after
// a handful of responses, so tracing thousands buys nothing but runtime.
// Each thins the responses of the one shared collector
// (collect_failing_responses in graph/backtrace.h, or the stream's
// canonical-order equivalent) with the same deterministic uniform stride over
// log order — early and late patterns both contribute, and the same
// (size, cap) pair always selects the same responses, so the passes can
// never drift apart.
#ifndef M3DFL_UTIL_THINNING_H_
#define M3DFL_UTIL_THINNING_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace m3dfl {

// Indices selected by thinning `size` elements down to at most `max_kept`
// with a uniform stride.  Ascending, unique; identity when size <= max_kept.
inline std::vector<std::size_t> uniform_stride_indices(std::size_t size,
                                                       std::int32_t max_kept) {
  std::vector<std::size_t> indices;
  if (max_kept <= 0 || size <= static_cast<std::size_t>(max_kept)) {
    indices.reserve(size);
    for (std::size_t i = 0; i < size; ++i) indices.push_back(i);
    return indices;
  }
  indices.reserve(static_cast<std::size_t>(max_kept));
  const double stride =
      static_cast<double>(size) / static_cast<double>(max_kept);
  for (std::int32_t i = 0; i < max_kept; ++i) {
    indices.push_back(static_cast<std::size_t>(std::floor(i * stride)));
  }
  return indices;
}

// Thins `items` in place to at most `max_kept` elements with a uniform
// stride.  Returns the original index of each kept element (the caller may
// need to cite pre-thinning positions, e.g. for quarantine reports).
template <typename T>
std::vector<std::size_t> thin_uniform_stride(std::vector<T>& items,
                                             std::int32_t max_kept) {
  std::vector<std::size_t> kept = uniform_stride_indices(items.size(),
                                                         max_kept);
  if (kept.size() == items.size()) return kept;
  std::vector<T> thinned;
  thinned.reserve(kept.size());
  for (std::size_t i : kept) thinned.push_back(std::move(items[i]));
  items = std::move(thinned);
  return kept;
}

}  // namespace m3dfl

#endif  // M3DFL_UTIL_THINNING_H_
