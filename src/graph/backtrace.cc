#include "graph/backtrace.h"

#include <algorithm>
#include <cmath>

#include "util/thinning.h"

namespace m3dfl {
namespace {

// In how many of the `kept` suspect sets each node appears.
std::vector<std::int32_t> count_support(
    std::span<const TracedResponse> responses,
    const std::vector<char>& kept, std::size_t n_nodes) {
  std::vector<std::int32_t> count(n_nodes, 0);
  for (std::size_t r = 0; r < responses.size(); ++r) {
    if (!kept[r]) continue;
    for (NodeId n : *responses[r].suspects) ++count[static_cast<std::size_t>(n)];
  }
  return count;
}

// Jaccard-style overlap coefficient |a ∩ b| / min(|a|, |b|) for sorted
// vectors; 0 when either is empty (an empty suspect set agrees with
// nothing).
double overlap_coefficient(const std::vector<NodeId>& a,
                           const std::vector<NodeId>& b) {
  if (a.empty() || b.empty()) return 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t both = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++both;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(both) /
         static_cast<double>(std::min(a.size(), b.size()));
}

// Fills result.candidates/support from the kept-response counts: strict
// intersection first; majority relaxation, then best-count fallback, when it
// is empty.
void select_candidates(const std::vector<std::int32_t>& count,
                       std::int32_t n_kept, const BacktraceOptions& options,
                       BacktraceResult& result) {
  const auto n_nodes = static_cast<NodeId>(count.size());
  const auto emit_at_least = [&](std::int32_t threshold) {
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (count[static_cast<std::size_t>(n)] >= threshold) {
        result.candidates.push_back(n);
        result.support.push_back(
            static_cast<double>(count[static_cast<std::size_t>(n)]) /
            static_cast<double>(n_kept));
      }
    }
  };
  emit_at_least(n_kept);  // strict intersection
  if (!result.candidates.empty()) return;
  result.relaxed = true;
  emit_at_least(static_cast<std::int32_t>(
      std::ceil(options.relaxed_fraction * n_kept)));
  if (!result.candidates.empty()) return;
  std::int32_t best = 0;
  for (std::int32_t c : count) best = std::max(best, c);
  if (best == 0) return;
  emit_at_least(best);
}

}  // namespace

std::vector<FailingResponse> collect_failing_responses(
    const DesignContext& design, const FailureLog& log) {
  const auto num_flops =
      static_cast<std::int32_t>(design.netlist->flops().size());
  std::vector<FailingResponse> responses;
  std::int32_t index = 0;
  for (const Observation& o : log.scan_fails) {
    responses.push_back(FailingResponse{o.pattern, index++, {o.index}});
  }
  for (const ChannelFail& c : log.channel_fails) {
    responses.push_back(FailingResponse{
        c.pattern, index++,
        design.compactor->cells_at(*design.scan, c.channel, c.position)});
  }
  for (const Observation& o : log.po_fails) {
    responses.push_back(
        FailingResponse{o.pattern, index++, {num_flops + o.index}});
  }
  return responses;
}

SuspectFilter::SuspectFilter(const HeteroGraph& graph,
                             const DesignContext& design)
    : graph_(&graph),
      good_(design.good),
      seen_(static_cast<std::size_t>(graph.num_nodes()), 0) {
  M3DFL_REQUIRE(good_ != nullptr, "design context missing simulation");
}

std::vector<NodeId> SuspectFilter::suspects(
    std::span<const std::int32_t> observation_points, std::int32_t pattern) {
  const std::int32_t w = pattern / kWordBits;
  const std::int32_t b = pattern % kWordBits;
  const auto transitions = [&](NodeId u) {
    const NetId net = graph_->node_net(u);
    return net != kNullNet && ((good_->transition(net, w) >> b) & 1) != 0;
  };
  std::vector<NodeId> suspects;
  if (observation_points.size() == 1) {
    // One cone lists each node once, sorted: filter it in place, without
    // stamps or branches on the transition.
    const std::span<const NodeId> cone = graph_->cone(observation_points[0]);
    suspects.resize(cone.size());
    std::size_t n = 0;
    for (const NodeId u : cone) {
      suspects[n] = u;
      n += transitions(u) ? 1 : 0;
    }
    suspects.resize(n);
    return suspects;
  }
  ++stamp_;
  for (std::int32_t obs : observation_points) {
    for (NodeId u : graph_->cone(obs)) {
      if (seen_[static_cast<std::size_t>(u)] == stamp_) continue;
      seen_[static_cast<std::size_t>(u)] = stamp_;
      if (transitions(u)) suspects.push_back(u);
    }
  }
  // A union of several cones is not sorted.
  std::sort(suspects.begin(), suspects.end());
  return suspects;
}

double BacktraceResult::min_support() const {
  if (support.empty()) return 0.0;
  return *std::min_element(support.begin(), support.end());
}

BacktraceResult select_backtrace_candidates(
    std::span<const TracedResponse> responses, std::size_t num_nodes,
    const BacktraceOptions& options,
    std::vector<std::size_t>* quarantined_positions) {
  BacktraceResult result;
  const auto n_responses = static_cast<std::int32_t>(responses.size());
  result.num_responses = n_responses;
  if (responses.empty()) return result;

  std::vector<char> kept(responses.size(), 1);
  std::vector<std::int32_t> count = count_support(responses, kept, num_nodes);

  // Strict intersection across every response: the clean-log fast path,
  // bit-identical to the historical behaviour (with unit support).
  bool strict_empty = true;
  for (std::int32_t c : count) {
    if (c == n_responses) {
      strict_empty = false;
      break;
    }
  }

  // The intersection died — before falling back to the majority relaxation
  // (which silently absorbs spurious responses), try to identify and
  // quarantine the outliers.  The consensus core is the best-supported node
  // set: with a lone corrupted response among n the true site still sits in
  // n-1 cones, so the best-count nodes are exactly what the strict
  // intersection would recover once the outlier is excluded.  A genuine
  // response's cone contains the site and therefore most of the core; a
  // spurious response at a random observation point shares almost nothing
  // with it.  (A broader majority-threshold core blurs into the union of
  // cones on small dense designs and stops separating the two.)
  std::int32_t best = 0;
  for (std::int32_t c : count) best = std::max(best, c);
  if (strict_empty && best > 0 && options.quarantine_overlap > 0.0 &&
      n_responses >= options.min_responses_for_quarantine) {
    std::vector<NodeId> core;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      if (count[n] >= best) {
        core.push_back(static_cast<NodeId>(n));
      }
    }
    std::vector<std::size_t> outliers;
    std::vector<double> overlaps(responses.size(), 0.0);
    for (std::size_t r = 0; r < responses.size(); ++r) {
      overlaps[r] = overlap_coefficient(*responses[r].suspects, core);
      if (overlaps[r] < options.quarantine_overlap) outliers.push_back(r);
    }
    const auto max_quarantined = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(options.max_quarantine_fraction * n_responses)));
    // A minority of outliers against a clear consensus: exclude them.  More
    // than that means there is no consensus to trust (multi-fault dies split
    // their responses between cones), so the detector backs off and the
    // plain relaxation below handles the log as before.
    if (!outliers.empty() && outliers.size() <= max_quarantined &&
        outliers.size() < responses.size()) {
      for (std::size_t r : outliers) {
        kept[r] = 0;
        result.quarantined.push_back(QuarantinedResponse{
            responses[r].response_index, responses[r].pattern, overlaps[r]});
        if (quarantined_positions != nullptr) {
          quarantined_positions->push_back(r);
        }
      }
      count = count_support(responses, kept, num_nodes);
    }
  }

  const auto n_kept = static_cast<std::int32_t>(
      n_responses - static_cast<std::int32_t>(result.quarantined.size()));
  select_candidates(count, n_kept, options, result);
  return result;
}

BacktraceResult backtrace_with_support(const HeteroGraph& graph,
                                       const DesignContext& design,
                                       const FailureLog& log,
                                       const BacktraceOptions& options) {
  M3DFL_REQUIRE(design.good != nullptr, "design context missing simulation");
  M3DFL_REQUIRE(!log.compacted || design.compactor != nullptr,
                "compacted log requires a compactor");
  BacktraceResult result;
  if (log.empty()) return result;

  std::vector<FailingResponse> responses =
      collect_failing_responses(design, log);
  thin_uniform_stride(responses, options.max_traced_responses);

  SuspectFilter filter(graph, design);
  std::vector<std::vector<NodeId>> suspects;
  suspects.reserve(responses.size());  // never reallocates: `traced` points in
  std::vector<TracedResponse> traced;
  traced.reserve(responses.size());
  for (const FailingResponse& r : responses) {
    suspects.push_back(filter.suspects(r.observation_points, r.pattern));
    traced.push_back(
        TracedResponse{r.pattern, r.response_index, &suspects.back()});
  }
  return select_backtrace_candidates(
      traced, static_cast<std::size_t>(graph.num_nodes()), options);
}

}  // namespace m3dfl
