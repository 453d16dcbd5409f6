// The per-log diagnosis chain's prefix, and dataset construction on it:
// fault injection -> failure log -> back-trace -> labeled subgraph (the
// per-sample path of paper Fig. 1, left branch).
#ifndef M3DFL_CORE_PIPELINE_H_
#define M3DFL_CORE_PIPELINE_H_

#include <vector>

#include "core/framework.h"
#include "diag/datagen.h"
#include "graph/subgraph.h"

namespace m3dfl {

// The deterministic prefix of one log's diagnosis, a pure function of
// (design, log) that serve caches; DiagnosisFramework::diagnose is the
// suffix.  The back-trace result carries the confidence's evidence inputs.
struct DiagnosisPrefix {
  BacktraceResult backtrace;
  Subgraph subgraph;              // back-traced candidate subgraph + features
  NormalizedAdjacency adjacency;  // its normalized adjacency (Eq. 1 input)
  DiagnosisReport base_report;    // ATPG report before GNN refinement
};

// The prefix's back-trace step: back-traces `log` (or takes `streamed`, a
// streaming session's finalize() over it), extracts the candidate subgraph
// and normalizes its adjacency.  diagnose_atpg fills `base_report` after.
DiagnosisPrefix backtrace_prefix(const Design& design, const FailureLog& log,
                                 const BacktraceResult* streamed = nullptr);

// Samples and their back-traced, labeled subgraphs (parallel vectors).
struct LabeledDataset {
  std::vector<Sample> samples;
  std::vector<Subgraph> graphs;

  std::size_t size() const { return samples.size(); }
  void append(LabeledDataset&& other);
};

// Generates `options.num_samples` labeled samples on one design.
LabeledDataset build_dataset(const Design& design,
                             const DataGenOptions& options);

// The paper's transferable training set: Syn-1 plus two randomly partitioned
// netlists of the same profile (data augmentation, Sec. IV).
struct TransferTrainOptions {
  std::int32_t samples_syn1 = 280;
  std::int32_t samples_per_random = 140;
  double miv_fault_prob = 0.2;
  bool compacted = false;
  std::uint64_t seed = 2024;
};

LabeledDataset build_transfer_training_set(Profile profile,
                                           const Design& syn1,
                                           const TransferTrainOptions& options);

}  // namespace m3dfl

#endif  // M3DFL_CORE_PIPELINE_H_
