#include "diag/stream_backtrace.h"

#include <algorithm>

#include "util/error.h"
#include "util/thinning.h"

namespace m3dfl {
namespace {

// In-place intersection of two sorted ascending vectors.
void intersect_sorted(std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  std::size_t out = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      a[out++] = a[i];
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  a.resize(out);
}

}  // namespace

StreamingBacktrace::StreamingBacktrace(const HeteroGraph& graph,
                                       const DesignContext& design,
                                       StreamingOptions options)
    : graph_(&graph),
      design_(design),
      options_(options),
      filter_(graph, design) {
  // Empty-evidence confidence: nothing supports anything yet.
  snapshot_.confidence =
      calibrate_confidence(0.0, false, 0, -1.0, options_.tp_threshold);
}

StreamAccept StreamingBacktrace::add(const StreamRecord& record) {
  switch (record.kind) {
    case StreamRecord::Kind::kNone:
      return StreamAccept::kMeta;
    case StreamRecord::Kind::kEnd:
      return StreamAccept::kEndOfStream;
    case StreamRecord::Kind::kMode:
      M3DFL_REQUIRE(!record.compacted || log_.scan_fails.empty(),
                    "failure log: scan records in compacted mode");
      log_.compacted = record.compacted;
      return StreamAccept::kMeta;
    case StreamRecord::Kind::kLimit:
      log_.pattern_limit = record.pattern_limit;
      return StreamAccept::kMeta;
    case StreamRecord::Kind::kScan: {
      const Observation& o = record.observation;
      M3DFL_REQUIRE(!log_.compacted,
                    "failure log: scan records in compacted mode");
      M3DFL_REQUIRE(o.index >= 0 && o.index < graph_->num_flops(),
                    "failure log: scan flop index out of range");
      if (!seen_scan_.emplace(o.pattern, o.index).second) {
        return StreamAccept::kDuplicate;
      }
      scan_suspects_.push_back(filter_.suspects({&o.index, 1}, o.pattern));
      log_.scan_fails.push_back(o);
      update(scan_suspects_.back());
      return StreamAccept::kAccepted;
    }
    case StreamRecord::Kind::kChan: {
      const ChannelFail& c = record.channel;
      M3DFL_REQUIRE(design_.compactor != nullptr,
                    "compacted log requires a compactor");
      M3DFL_REQUIRE(
          c.channel >= 0 && c.channel < design_.compactor->num_channels(),
          "failure log: chan channel out of range");
      if (!seen_chan_.emplace(c.pattern, c.channel, c.position).second) {
        return StreamAccept::kDuplicate;
      }
      chan_suspects_.push_back(filter_.suspects(
          design_.compactor->cells_at(*design_.scan, c.channel, c.position),
          c.pattern));
      log_.channel_fails.push_back(c);
      update(chan_suspects_.back());
      return StreamAccept::kAccepted;
    }
    case StreamRecord::Kind::kPo: {
      const Observation& o = record.observation;
      M3DFL_REQUIRE(o.index >= 0 &&
                        o.index < graph_->num_topnodes() - graph_->num_flops(),
                    "failure log: po index out of range");
      if (!seen_po_.emplace(o.pattern, o.index).second) {
        return StreamAccept::kDuplicate;
      }
      const std::int32_t obs = graph_->num_flops() + o.index;
      po_suspects_.push_back(filter_.suspects({&obs, 1}, o.pattern));
      log_.po_fails.push_back(o);
      update(po_suspects_.back());
      return StreamAccept::kAccepted;
    }
  }
  return StreamAccept::kMeta;  // unreachable
}

std::vector<TracedResponse> StreamingBacktrace::traced_responses(
    std::vector<RecordKey>* keys) const {
  std::vector<TracedResponse> responses;
  responses.reserve(static_cast<std::size_t>(n_accepted_));
  if (keys != nullptr) keys->reserve(static_cast<std::size_t>(n_accepted_));
  std::int32_t index = 0;
  const auto add_kind = [&](int kind, const auto& records,
                            const std::vector<std::vector<NodeId>>& suspects) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      responses.push_back(
          TracedResponse{records[i].pattern, index++, &suspects[i]});
      if (keys != nullptr) keys->push_back(RecordKey{kind, i});
    }
  };
  add_kind(0, log_.scan_fails, scan_suspects_);
  add_kind(1, log_.channel_fails, chan_suspects_);
  add_kind(2, log_.po_fails, po_suspects_);
  const std::int32_t cap = options_.backtrace.max_traced_responses;
  thin_uniform_stride(responses, cap);
  if (keys != nullptr) thin_uniform_stride(*keys, cap);
  return responses;
}

void StreamingBacktrace::update(const std::vector<NodeId>& added_suspects) {
  ++n_accepted_;
  const bool within_cap =
      n_accepted_ <= options_.backtrace.max_traced_responses;

  // Monotone narrowing: while no thinning is in effect the strict
  // intersection only shrinks, so one sorted-merge pass per response keeps
  // it current.  Once it dies (or the cap engages) the shared decision
  // layer takes over below.
  if (within_cap) {
    if (n_accepted_ == 1) {
      intersection_ = added_suspects;
    } else {
      intersect_sorted(intersection_, added_suspects);
    }
  }

  BacktraceResult result;
  std::set<RecordKey> now_quarantined;
  if (within_cap && !intersection_.empty()) {
    // Exactly what select_backtrace_candidates emits when the strict
    // intersection holds: the intersection with unit support, nothing
    // relaxed, nothing quarantined.
    result.num_responses = n_accepted_;
    result.candidates = intersection_;
    result.support.assign(intersection_.size(), 1.0);
  } else {
    std::vector<RecordKey> keys;
    std::vector<std::size_t> quarantined_positions;
    result = select_backtrace_candidates(
        traced_responses(&keys), static_cast<std::size_t>(graph_->num_nodes()),
        options_.backtrace, &quarantined_positions);
    for (std::size_t p : quarantined_positions) {
      now_quarantined.insert(keys[p]);
    }
  }

  // Online-quarantine churn: condemned = newly quarantined this update,
  // rehabilitated = quarantined before but cleared by the new consensus.
  for (const RecordKey& k : now_quarantined) {
    if (quarantined_keys_.count(k) == 0) ++snapshot_.condemnations;
  }
  for (const RecordKey& k : quarantined_keys_) {
    if (now_quarantined.count(k) == 0) ++snapshot_.rehabilitations;
  }
  quarantined_keys_ = std::move(now_quarantined);

  if (result.candidates == snapshot_.backtrace.candidates &&
      n_accepted_ > 1) {
    ++same_candidates_streak_;
  } else {
    same_candidates_streak_ = 1;
  }

  snapshot_.confidence = calibrate_confidence(
      result.min_support(), result.relaxed,
      static_cast<std::int32_t>(result.quarantined.size()), -1.0,
      options_.tp_threshold);
  snapshot_.backtrace = std::move(result);
  snapshot_.stable =
      !snapshot_.backtrace.candidates.empty() &&
      same_candidates_streak_ >= options_.stability_window &&
      n_accepted_ >= options_.min_responses_for_stability &&
      !snapshot_.confidence.low_confidence;
  if (snapshot_.stable && snapshot_.early_exit_at < 0) {
    snapshot_.early_exit_at = n_accepted_;
  }
}

BacktraceResult StreamingBacktrace::finalize() const {
  return select_backtrace_candidates(
      traced_responses(nullptr),
      static_cast<std::size_t>(graph_->num_nodes()), options_.backtrace);
}

}  // namespace m3dfl
