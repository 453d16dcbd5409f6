// Public end-to-end API.
//
// Design            — owns one fully prepared circuit-under-diagnosis: the
//                     netlist (with optional test points), tier assignment,
//                     MIVs, scan/compaction architecture, the generated TDF
//                     pattern set, the good-machine simulation, and the
//                     heterogeneous diagnosis graph.
// DiagnosisFramework — the paper's proposal: Tier-predictor, MIV-pinpointer,
//                     PR-threshold selection, transfer-learned Classifier,
//                     and the candidate pruning & reordering policy
//                     (Figs. 1, 7, 8).
#ifndef M3DFL_CORE_FRAMEWORK_H_
#define M3DFL_CORE_FRAMEWORK_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "diag/atpg_diagnosis.h"
#include "diag/datagen.h"
#include "diag/report.h"
#include "gnn/model.h"
#include "gnn/pr_curve.h"
#include "gnn/trainer.h"
#include "graph/backtrace.h"
#include "graph/hetero_graph.h"

namespace m3dfl {

class Trainer;

// Artifact kind of a persisted framework container.
inline constexpr const char* kFrameworkKind = "framework";

// A fully prepared circuit-under-diagnosis.  Immovable: all members hold
// cross-references (build through the unique_ptr factories).
class Design {
 public:
  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;

  // Builds a benchmark profile in a design configuration.
  static std::unique_ptr<Design> build(Profile profile, DesignConfig config);
  // Builds the Syn-1 netlist with a *random* tier partition — the paper's
  // data-augmentation netlists (Sec. IV).
  static std::unique_ptr<Design> build_random_partition(
      Profile profile, std::uint64_t partition_seed);

  // View consumed by the diagnosis layers.  `compacted` selects whether
  // failure logs route through the response compactor.
  DesignContext context() const;

  const std::string& name() const { return name_; }
  const Netlist& netlist() const { return netlist_; }
  const TierAssignment& tiers() const { return tiers_; }
  const MivMap& mivs() const { return mivs_; }
  const ScanChains& scan() const { return scan_; }
  const XorCompactor& compactor() const { return compactor_; }
  const PatternSet& patterns() const { return atpg_.patterns; }
  const AtpgResult& atpg() const { return atpg_; }
  const LocSimulator& good_sim() const { return *good_; }
  const HeteroGraph& graph() const { return graph_; }
  // Wall-clock seconds spent building the heterogeneous graph (the paper's
  // "feature construction" runtime, Table IX).
  double feature_construction_seconds() const { return feature_seconds_; }
  // Tester fail-memory depth of this design's test program.
  std::int32_t fail_memory_patterns() const { return fail_memory_patterns_; }

 private:
  Design() = default;
  static std::unique_ptr<Design> build_impl(Profile profile,
                                            DesignConfig config,
                                            bool random_partition,
                                            std::uint64_t partition_seed);

  std::string name_;
  Netlist netlist_;
  TierAssignment tiers_;
  MivMap mivs_;
  ScanChains scan_;
  XorCompactor compactor_;
  AtpgResult atpg_;
  std::unique_ptr<LocSimulator> good_;  // created once the netlist is final
  HeteroGraph graph_;
  std::int32_t fail_memory_patterns_ = 0;
  double feature_seconds_ = 0.0;
};

// Prediction bundle for one failure log.
struct FrameworkPrediction {
  int tier = 0;                  // predicted faulty tier
  double confidence = 0.5;       // max(p_bottom, p_top)
  double margin = 0.0;           // |p_top - p_bottom| softmax margin
  bool high_confidence = false;  // confidence >= T_P
  std::vector<MivId> faulty_mivs;
  double prune_prob = 0.0;       // Classifier output (high-confidence only)
  bool pruned = false;           // what the policy did
};

// What the GNN suffix makes of one log's diagnosis prefix.
struct RefinedDiagnosis {
  DiagnosisReport report;          // the pruned and reordered ATPG report
  FrameworkPrediction prediction;  // `pruned` set by the policy
  std::vector<Candidate> pruned;   // for the backup dictionary
  DiagnosisConfidence confidence;  // calibrated end-to-end confidence
};

struct DiagnosisPrefix;  // core/pipeline.h

struct FrameworkOptions {
  GcnModelConfig model;
  TrainOptions training;
  double pr_min_precision = 0.99;  // paper: accuracy loss budget < 1%
  double miv_threshold = 0.5;
};

class DiagnosisFramework {
 public:
  explicit DiagnosisFramework(const FrameworkOptions& options = {});

  // Trains Tier-predictor and MIV-pinpointer on labeled subgraphs, selects
  // T_P from the training PR curve, and trains the transfer-learned
  // Classifier on the Predicted-Positive subset (dummy-buffer balanced).
  // Delegates to the checkpointing Trainer (core/checkpoint.h) with
  // checkpointing disabled, so plain and crash-safe training are the same
  // computation.
  void train(std::span<const Subgraph> graphs);
  bool trained() const { return trained_; }

  double tp_threshold() const { return tp_threshold_; }
  const TierPredictor& tier_predictor() const { return *tier_predictor_; }
  const MivPinpointer& miv_pinpointer() const { return *miv_pinpointer_; }

  // GNN predictions for one back-traced subgraph and its normalized
  // adjacency (subgraph_adjacency).
  FrameworkPrediction predict(const Subgraph& subgraph,
                              const NormalizedAdjacency& adjacency) const;

  // Calibrated end-to-end confidence for one diagnosis: back-trace evidence
  // quality × Tier-predictor softmax margin, cut at this framework's T_P
  // (diag/report.h explains the formula).  `prediction` may be null when no
  // GNN verdict exists (degraded serving, empty subgraph) — the back-trace
  // evidence then carries the confidence alone.  Works on untrained
  // frameworks (T_P defaults to 1.0: anything short of perfect evidence is
  // low-confidence).
  DiagnosisConfidence diagnosis_confidence(
      const BacktraceResult& backtrace,
      const FrameworkPrediction* prediction) const;

  // The candidate pruning & reordering policy (paper Fig. 7/8): refines the
  // ATPG report in place using `prediction`; pruned candidates are returned
  // for the backup dictionary.
  std::vector<Candidate> refine_report(const DesignContext& design,
                                       const FrameworkPrediction& prediction,
                                       DiagnosisReport& report) const;

  // The per-log chain's GNN suffix over its prefix (core/pipeline.h):
  // predict, refine a copy of the prefix's ATPG base report, and calibrate
  // the confidence on the prefix's back-trace evidence.
  RefinedDiagnosis diagnose(const DesignContext& design,
                            const DiagnosisPrefix& prefix) const;

  // Persists / restores the trained framework (all three models plus T_P);
  // the pretrained asset the paper reuses across netlists.  save() wraps the
  // stream in the checksummed artifact container (util/artifact.h); load()
  // accepts only that container and throws m3dfl::Error — citing `source` —
  // on truncation, corruption, or a format/shape mismatch (a bare format-1
  // stream is rejected with a hint naming migrate_artifact's CLI, below).
  // Pass the file path as `source` when loading from a file.
  void save(std::ostream& os) const;
  void load(std::istream& is, const std::string& source = "<stream>");

 private:
  // The crash-safe trainer drives the training phases against the private
  // model state directly (core/checkpoint.h).
  friend class Trainer;

  FrameworkOptions options_;
  std::unique_ptr<TierPredictor> tier_predictor_;
  std::unique_ptr<MivPinpointer> miv_pinpointer_;
  std::unique_ptr<PruneClassifier> classifier_;
  double tp_threshold_ = 1.0;
  bool trained_ = false;
};

// `m3dfl_tool migrate-artifact`: the only reader of format-1 streams (bare
// "m3dfl-framework 1" or "m3dfl-model 1 <kind>", from before the container).
// Converts a framework, tier-predictor or miv-pinpointer stream into the
// format-2 container save() writes.  A format-2 container is validated end
// to end (structure, CRC, and a payload parse where the kind parses
// standalone) and returned unchanged.  Throws m3dfl::Error, citing
// `source`, on anything else — a bare prune-classifier stream included,
// since it deserializes against its host tier predictor.
struct MigratedArtifact {
  std::string kind;        // artifact kind
  bool converted = false;  // false: the input was already a container
  std::string bytes;       // the format-2 container
};
MigratedArtifact migrate_artifact(const std::string& bytes,
                                  const std::string& source);

}  // namespace m3dfl

#endif  // M3DFL_CORE_FRAMEWORK_H_
