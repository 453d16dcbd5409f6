// Back-tracing (paper Fig. 3), hardened against semantically noisy logs.
//
// For every erroneous tester response, the nodes of the failing Topnode's
// fan-in cone that transition under the failing pattern form the response's
// suspect set; the intersection across all responses is the candidate list
// handed to the GNN models as a subgraph.  The cones are not walked here:
// the graph's top level already holds them (HeteroGraph::cone).  The
// suspect filter below reads that index for the batch and streaming
// (diag/stream_backtrace.h) paths, and the response collector below also
// feeds the ATPG engine's suspect nets (diag/atpg_diagnosis.h).
//
// Compacted logs yield several Topnodes per response (the aliased cells of
// the XOR channel), whose suspect sets are unioned — the paper's
// FailedTopnode(r) set.  When the strict intersection is empty (multi-fault
// dies), a majority relaxation keeps the best-supported nodes so diagnosis
// can still proceed.
//
// Real tester logs are not clean: intermittent delay faults near threshold
// drop failing patterns, flipped fail-memory bits invent responses at
// observation points the defect never reached, and store-depth truncation
// clips the evidence (diag/noise.h models exactly these).  A single spurious
// response used to silently wreck the strict intersection — the fall-back
// relaxation then kept whatever cleared a majority, with no record of which
// response poisoned the list.  backtrace_with_support() therefore returns a
// BacktraceResult carrying per-node support fractions and an outlier
// quarantine: when the strict intersection dies, responses whose suspect
// set has near-zero overlap with the support-weighted consensus core are
// detected, excluded from the intersection, and reported, so downstream
// layers can distinguish "clean localization" from "best effort under
// suspect data".
#ifndef M3DFL_GRAPH_BACKTRACE_H_
#define M3DFL_GRAPH_BACKTRACE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "diag/datagen.h"
#include "diag/failure_log.h"
#include "graph/hetero_graph.h"

namespace m3dfl {

struct BacktraceOptions {
  // Majority fraction used when the strict intersection is empty.
  double relaxed_fraction = 0.75;
  // Responses beyond this cap are thinned with a uniform stride (the
  // intersection converges after a handful of responses).
  std::int32_t max_traced_responses = 60;
  // Outlier quarantine (runs only when the strict intersection is empty,
  // where the relaxation used to kick in — a non-empty strict intersection
  // is untouched, which keeps clean logs byte-identical to the pre-noise
  // path).  A response whose suspect set covers less than this fraction of
  // the support-weighted consensus core (Jaccard-style overlap coefficient:
  // |S_r ∩ core| / min(|S_r|, |core|)) is quarantined.  <= 0 disables.
  double quarantine_overlap = 0.35;
  // Quarantine needs a consensus to measure against: with fewer traced
  // responses than this, the detector stays off.
  std::int32_t min_responses_for_quarantine = 3;
  // At most this fraction of the traced responses may be quarantined; a log
  // where "most responses are outliers" has no consensus to trust, so the
  // detector backs off to the plain relaxation instead.
  double max_quarantine_fraction = 0.34;
};

// One quarantined tester response.
struct QuarantinedResponse {
  // Index of the response in log order (scan_fails, then channel_fails,
  // then po_fails), before thinning.
  std::int32_t response_index = 0;
  std::int32_t pattern = 0;
  // Overlap coefficient against the consensus core that condemned it.
  double overlap = 0.0;
};

// Candidate list plus the evidence quality behind it.
struct BacktraceResult {
  // Candidate heterogeneous-graph nodes, sorted ascending.
  std::vector<NodeId> candidates;
  // Per-candidate support: fraction of the kept (non-quarantined) traced
  // responses whose suspect set contains the candidate.  Parallel to
  // `candidates`; 1.0 everywhere when the strict intersection held.
  std::vector<double> support;
  // Responses traced after thinning.
  std::int32_t num_responses = 0;
  // Outliers excluded from the intersection (empty on clean logs).
  std::vector<QuarantinedResponse> quarantined;
  // The strict intersection over the kept responses was empty and the
  // majority relaxation (or last-resort best-count fallback) produced the
  // candidates.
  bool relaxed = false;

  // Minimum support among the candidates (1.0 when strict; 0.0 when empty).
  double min_support() const;
  // Evidence was suspect: responses were quarantined or the relaxation ran.
  bool noisy() const { return relaxed || !quarantined.empty(); }
};

// One erroneous tester response: its failing pattern, its position in
// canonical log order (scan_fails, then channel_fails, then po_fails) before
// any thinning, and the observation points it failed at — indices into
// HeteroGraph::topnodes().  A compacted channel bit fails at every scan cell
// the compactor aliases onto it (the paper's FailedTopnode(r) set).
struct FailingResponse {
  std::int32_t pattern = 0;
  std::int32_t response_index = 0;
  std::vector<std::int32_t> observation_points;
};

// The responses of `log` in canonical order — the single collector behind
// the batch back-trace and the ATPG engine's suspect pass (the streaming
// back-trace collects the same responses record by record).
std::vector<FailingResponse> collect_failing_responses(
    const DesignContext& design, const FailureLog& log);

// Suspect set of one response (lines 2-12 of the paper's pseudocode): the
// union of the indexed cones (HeteroGraph::cone) of its observation points,
// keeping the nodes whose net transitions under the failing pattern.  The
// filter keeps stamped visited marks for the union, so one instance serves
// any number of responses.
class SuspectFilter {
 public:
  // `design.good` must be non-null.
  SuspectFilter(const HeteroGraph& graph, const DesignContext& design);

  // Sorted ascending.
  std::vector<NodeId> suspects(
      std::span<const std::int32_t> observation_points, std::int32_t pattern);

 private:
  const HeteroGraph* graph_;
  const LocSimulator* good_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
};

// One traced response after thinning: its failing pattern, its pre-thinning
// position in canonical log order (scan_fails, then channel_fails, then
// po_fails — cited by quarantine reports), and a view of its suspect set.
struct TracedResponse {
  std::int32_t pattern = 0;
  std::int32_t response_index = 0;
  const std::vector<NodeId>* suspects = nullptr;  // sorted ascending
};

// Candidate selection + outlier quarantine over already-extracted suspect
// sets (post-thinning): strict intersection, then — when it is empty — the
// quarantine detector and the majority relaxation / best-count fallback.
// This is the entire decision layer of backtrace_with_support, shared with
// diag::StreamingBacktrace so the batch and incremental paths can never
// drift.  When `quarantined_positions` is non-null it receives the index
// into `responses` of each quarantined entry (parallel to
// result.quarantined).
BacktraceResult select_backtrace_candidates(
    std::span<const TracedResponse> responses, std::size_t num_nodes,
    const BacktraceOptions& options,
    std::vector<std::size_t>* quarantined_positions = nullptr);

// Full back-trace: candidates + support + quarantine.
BacktraceResult backtrace_with_support(const HeteroGraph& graph,
                                       const DesignContext& design,
                                       const FailureLog& log,
                                       const BacktraceOptions& options = {});

}  // namespace m3dfl

#endif  // M3DFL_GRAPH_BACKTRACE_H_
