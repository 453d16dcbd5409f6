// The serial reference chain: for one failure log, the public layer calls a
// DiagnosisService worker makes, in the same order, with the result rendered
// by serve::result_to_string.  It is the oracle of the correctness gate (a
// served result must render byte-identically) and, with a Tracer attached,
// the traced replay that yields the per-layer metrics.
#ifndef M3DFL_BENCHMARK_CHAIN_H_
#define M3DFL_BENCHMARK_CHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.h"
#include "diag/failure_log.h"
#include "trace.h"

namespace m3dfl::benchmark {

struct ChainInput {
  const Design* design = nullptr;
  std::int32_t design_id = 0;  // the design's id in the service under test
  const FailureLog* log = nullptr;
  std::int32_t index = 0;      // workload input index, recorded on spans
};

// Work counts of one chain run.
struct ChainCounts {
  std::int64_t candidates = 0;   // back-trace candidates
  std::int64_t quarantined = 0;  // responses the back-trace quarantined
  std::int64_t subgraph_nodes = 0;
};

// Runs the chain for `input`.  With `cached`, it replays the service's
// cache-hit path: the cacheable prefix (back-trace, subgraph, adjacency,
// ATPG) runs under a "cache_fill" span before the "request" span, as a
// cache fill precedes every hit; otherwise the whole chain runs inside the
// request span, as on a cache miss.
std::string run_chain(const DiagnosisFramework& framework,
                      const ChainInput& input, bool cached, Tracer* tracer,
                      ChainCounts* counts);

// Runs the chain for every input, serially and untraced, and returns the
// renderings in input order.
std::vector<std::string> render_chains(const DiagnosisFramework& framework,
                                       const std::vector<ChainInput>& inputs,
                                       bool cached);

}  // namespace m3dfl::benchmark

#endif  // M3DFL_BENCHMARK_CHAIN_H_
