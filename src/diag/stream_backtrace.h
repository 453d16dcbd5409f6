// Incremental back-trace over a live tester feed (ROADMAP item 4).
//
// The batch pipeline (graph/backtrace.h) needs the complete failure log
// before it produces anything, so first-answer latency is coupled to log
// length and a stalled feed blocks diagnosis entirely.  StreamingBacktrace
// maintains the same intersection / support / quarantine state
// response-by-response:
//
//  * Each arriving response's suspect set comes from the same
//    SuspectFilter the batch path uses (graph/backtrace.h): the union of its
//    observation points' cones, read from the graph's cone index and
//    filtered by the failing pattern's transitions — the same set the batch
//    path extracts, by construction.
//  * While the strict intersection across all accepted responses is
//    non-empty (the clean-feed fast path), each response only narrows it —
//    monotone set intersection, no recount — and the snapshot is exactly
//    what select_backtrace_candidates would emit (unit support, no
//    relaxation, no quarantine).
//  * Once the intersection dies (or the thinning cap engages), every update
//    re-runs the *shared* decision layer select_backtrace_candidates over
//    the accumulated suspect sets in canonical log order, so quarantine is
//    online: a response condemned early is rehabilitated if later consensus
//    outvotes the early evidence, and vice versa.  The snapshot carries
//    cumulative condemnation/rehabilitation counts.
//  * After each response the calibrated confidence (diag/report.h) is
//    re-scored; when the candidate set survives `stability_window`
//    consecutive responses unchanged and the confidence clears the
//    T_P-derived cut, the snapshot turns `stable` — the feed can early-exit.
//
// finalize() assembles the accumulated responses in canonical log order
// (scan_fails, channel_fails, po_fails), applies the same uniform-stride
// thinning, and calls the same select_backtrace_candidates the batch path
// delegates to — so on any feed, finalize() is byte-identical to
// backtrace_with_support(graph, design, log()) by construction, not by
// coincidence.
#ifndef M3DFL_DIAG_STREAM_BACKTRACE_H_
#define M3DFL_DIAG_STREAM_BACKTRACE_H_

#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "diag/datagen.h"
#include "diag/failure_log.h"
#include "diag/log_io.h"
#include "diag/report.h"
#include "graph/backtrace.h"
#include "graph/hetero_graph.h"

namespace m3dfl {

struct StreamingOptions {
  BacktraceOptions backtrace;
  // Framework T_P in [0.5, 1], for the stability cut (1.0 when untrained:
  // only perfect evidence may early-exit then).
  double tp_threshold = 1.0;
  // Consecutive accepted responses the candidate set must survive unchanged
  // before the snapshot may turn stable.
  std::int32_t stability_window = 4;
  // Stability additionally requires at least this many accepted responses
  // (a single-response "intersection" is trivially unchanged).
  std::int32_t min_responses_for_stability = 3;
};

// What feeding one record did to the session state.
enum class StreamAccept {
  kAccepted,     // failing response accepted; snapshot updated
  kDuplicate,    // observation already accepted; state unchanged
  kMeta,         // mode/limit/blank line; no response added
  kEndOfStream,  // 'end' trailer
};

// The diagnosis state after the most recent accepted response.
struct StreamSnapshot {
  // Candidates / support / quarantine exactly as the shared decision layer
  // scores the accepted responses so far.
  BacktraceResult backtrace;
  // Calibrated confidence over the back-trace evidence alone (model margin
  // unknown mid-stream, so confidence.model_margin stays -1).
  DiagnosisConfidence confidence;
  // The candidate set held unchanged for stability_window consecutive
  // responses and the confidence clears the T_P-derived cut: the caller may
  // early-exit the feed.
  bool stable = false;
  // Accepted-response count at which `stable` first turned true; -1 if it
  // never has.  Latched — it survives later instability so the early-exit
  // point remains reportable.
  std::int32_t early_exit_at = -1;
  // Cumulative online-quarantine churn across all updates: responses that
  // entered quarantine (condemnations) and that later left it again
  // (rehabilitations).  A response can contribute to both repeatedly.
  std::int64_t condemnations = 0;
  std::int64_t rehabilitations = 0;
};

class StreamingBacktrace {
 public:
  // `design.good` must be non-null; `design.compactor` is required only once
  // a chan record arrives.  The context is copied (callers may pass a
  // temporary view); the graph and the objects the context points at must
  // outlive the session.
  StreamingBacktrace(const HeteroGraph& graph, const DesignContext& design,
                     StreamingOptions options = {});

  // Feeds one parsed record.  Throws m3dfl::Error on semantic violations
  // (scan record in compacted mode, chan record without a compactor — the
  // same conditions the batch reader rejects — or an observation point the
  // design does not have), before any state changes.
  StreamAccept add(const StreamRecord& record);

  // State after the most recent accepted response.
  const StreamSnapshot& snapshot() const { return snapshot_; }

  // The accumulated failure log (canonical vectors, arrival order within
  // each kind) — what finalize() scores and what the serving layer hands to
  // the ATPG/GNN stages.
  const FailureLog& log() const { return log_; }
  std::int32_t num_responses() const { return n_accepted_; }

  // Canonical-order thinning + the shared decision layer: byte-identical to
  // backtrace_with_support(graph, design, log()).
  BacktraceResult finalize() const;

 private:
  // (kind, within-kind index) — stable identity of an accepted response.
  // Canonical positions shift as records of earlier kinds arrive, so
  // quarantine churn is tracked under these keys instead.
  using RecordKey = std::pair<int, std::size_t>;

  // All accepted responses in canonical log order, thinned exactly as the
  // batch path thins them; fills `keys[i]` with the stable identity of
  // response i.
  std::vector<TracedResponse> traced_responses(
      std::vector<RecordKey>* keys) const;
  void update(const std::vector<NodeId>& added_suspects);

  const HeteroGraph* graph_;
  DesignContext design_;
  StreamingOptions options_;

  FailureLog log_;
  // Suspect sets parallel to log_.scan_fails / channel_fails / po_fails.
  std::vector<std::vector<NodeId>> scan_suspects_;
  std::vector<std::vector<NodeId>> chan_suspects_;
  std::vector<std::vector<NodeId>> po_suspects_;

  SuspectFilter filter_;

  // Duplicate rejection against the accumulated state (same policy the
  // batch reader applies over the whole log).
  std::set<std::pair<std::int32_t, std::int32_t>> seen_scan_;
  std::set<std::tuple<std::int32_t, std::int32_t, std::int32_t>> seen_chan_;
  std::set<std::pair<std::int32_t, std::int32_t>> seen_po_;

  // Fast path: running strict intersection, valid while every accepted
  // response is traced (no thinning) and the intersection is non-empty.
  std::vector<NodeId> intersection_;
  std::int32_t n_accepted_ = 0;

  // Responses currently quarantined, for condemnation/rehabilitation diffs.
  std::set<RecordKey> quarantined_keys_;
  // Consecutive updates that produced the current candidate set.
  std::int32_t same_candidates_streak_ = 0;

  StreamSnapshot snapshot_;
};

}  // namespace m3dfl

#endif  // M3DFL_DIAG_STREAM_BACKTRACE_H_
