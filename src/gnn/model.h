// The paper's three GNN models (Sec. III-C and V-C).
//
//  * TierPredictor   — graph classification: GCN stack, mean-pool readout,
//                      linear head, softmax over [p_top, p_bottom]-style
//                      tier probabilities (we index [bottom, top]).
//  * MivPinpointer   — node classification: the same GCN stack shape with a
//                      per-node linear head; trained/evaluated on MIV nodes
//                      only, since local structure dominates for via defects.
//  * PruneClassifier — transfer-learned (network-based deep transfer,
//                      paper Sec. V-C): the *frozen* pretrained hidden
//                      layers of a TierPredictor, plus trainable
//                      classification layers and a pooled softmax deciding
//                      prune vs. reorder.
//
// All models share GcnEncoder; training is gradient accumulation + Adam and
// lives in gnn/trainer.h.
#ifndef M3DFL_GNN_MODEL_H_
#define M3DFL_GNN_MODEL_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "gnn/adam.h"
#include "gnn/csr.h"
#include "gnn/gcn.h"
#include "graph/subgraph.h"

namespace m3dfl {

struct GcnModelConfig {
  std::int32_t in_dim = kNumNodeFeatures;
  std::int32_t hidden = 32;
  std::int32_t num_layers = 3;
  std::int32_t classes = 2;
  std::uint64_t seed = 42;
};

// Stack of ReLU GCN layers producing node embeddings.
class GcnEncoder {
 public:
  GcnEncoder(const GcnModelConfig& config, Rng& rng);

  std::int32_t out_dim() const;
  // Node embeddings [n x hidden]; fills one cache per layer.
  Matrix encode(const NormalizedAdjacency& adj, const Matrix& x,
                std::vector<GcnCache>& caches) const;
  // Back-propagates dH through the stack, accumulating layer gradients.
  void backward(const NormalizedAdjacency& adj,
                const std::vector<GcnCache>& caches, const Matrix& dh,
                const Matrix& input);
  void register_params(Adam& adam);
  void zero_grad();

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::vector<GcnLayer> layers_;
};

// Builds the normalized adjacency of a subgraph.
NormalizedAdjacency subgraph_adjacency(const Subgraph& sg);

class TierPredictor {
 public:
  explicit TierPredictor(const GcnModelConfig& config = {});

  // [P(bottom), P(top)]; uniform for empty subgraphs.  Every predict takes
  // the normalized adjacency of `sg` (subgraph_adjacency), so callers that
  // run several models on one subgraph build it once.
  std::array<double, 2> predict(const Subgraph& sg,
                                const NormalizedAdjacency& adj) const;
  // Predicted tier and its probability (the paper's confidence score).
  // `margin`, when non-null, receives the softmax margin |P(top) - P(bottom)|
  // in [0, 1] — 0 means the model is indifferent between tiers, 1 means a
  // certain verdict.  The margin feeds the calibrated diagnosis confidence
  // (diag/report.h): unlike the raw max-probability it is 0-based, so it can
  // be multiplied with the back-trace support fraction.
  int predicted_tier(const Subgraph& sg, const NormalizedAdjacency& adj,
                     double* confidence = nullptr,
                     double* margin = nullptr) const;

  // One forward/backward pass on a labeled subgraph (label: tier 0/1);
  // returns the cross-entropy loss.  Pass a prebuilt adjacency when looping
  // over epochs.
  double train_step(const Subgraph& sg, const NormalizedAdjacency& adj,
                    int label);
  void register_params(Adam& adam);

  const GcnEncoder& encoder() const { return encoder_; }
  std::int32_t hidden_dim() const { return config_.hidden; }
  const GcnModelConfig& config() const { return config_; }

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  GcnModelConfig config_;
  GcnEncoder encoder_;
  DenseLayer head_;
};

class MivPinpointer {
 public:
  explicit MivPinpointer(const GcnModelConfig& config = {});

  // P(defective) for each MIV node of the subgraph (sg.miv_local order).
  std::vector<double> predict(const Subgraph& sg,
                              const NormalizedAdjacency& adj) const;
  // MIVs whose defect probability exceeds `threshold`.
  std::vector<MivId> predict_faulty(const Subgraph& sg,
                                    const NormalizedAdjacency& adj,
                                    double threshold = 0.5) const;

  // One pass over a subgraph with MIV labels; returns the mean CE loss over
  // MIV nodes (0 when the subgraph has none; no gradients accumulate then).
  double train_step(const Subgraph& sg, const NormalizedAdjacency& adj);
  void register_params(Adam& adam);
  const GcnModelConfig& config() const { return config_; }

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  GcnModelConfig config_;
  GcnEncoder encoder_;
  DenseLayer head_;
};

class PruneClassifier {
 public:
  // Copies (and freezes) the pretrained encoder of `pretrained`.
  PruneClassifier(const TierPredictor& pretrained,
                  const GcnModelConfig& config = {});

  // P(prune is safe), i.e. P(the tier prediction is a true positive).
  double predict_prune_prob(const Subgraph& sg,
                            const NormalizedAdjacency& adj) const;

  // label: 1 = prune (true positive), 0 = reorder (false positive).
  double train_step(const Subgraph& sg, const NormalizedAdjacency& adj,
                    int label);
  void register_params(Adam& adam);  // trainable head only; encoder frozen

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  GcnModelConfig config_;
  GcnEncoder encoder_;  // frozen copy
  DenseLayer hidden_;
  DenseLayer head_;
};

}  // namespace m3dfl

#endif  // M3DFL_GNN_MODEL_H_
