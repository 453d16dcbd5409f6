#include "gnn/model.h"

#include <cmath>

namespace m3dfl {
namespace {

// Cross-entropy gradient at the logits of a softmax row: p - onehot(label).
Matrix ce_logit_grad(const Matrix& probs, std::int32_t row, int label) {
  Matrix grad(probs.rows(), probs.cols());
  for (std::int32_t j = 0; j < probs.cols(); ++j) {
    grad.at(row, j) = probs.at(row, j) - (j == label ? 1.0f : 0.0f);
  }
  return grad;
}

double ce_loss(const Matrix& probs, std::int32_t row, int label) {
  const double p =
      std::max(1e-9, static_cast<double>(probs.at(row, label)));
  return -std::log(p);
}

// Graph readout: concatenated mean and max pooling, [1 x 2F].  The mean
// captures the aggregate tier mix of the candidate path; the max lets the
// classifier key on individual localized nodes (e.g. a deep top-tier fault
// site) that mean pooling would dilute across the subgraph.
struct PoolCache {
  std::vector<std::int32_t> argmax;  // per column
};

Matrix readout_pool(const Matrix& h, PoolCache& cache) {
  const std::int32_t f = h.cols();
  Matrix out(1, 2 * f);
  cache.argmax.assign(static_cast<std::size_t>(f), 0);
  for (std::int32_t j = 0; j < f; ++j) {
    float sum = 0.0f;
    float mx = h.at(0, j);
    std::int32_t arg = 0;
    for (std::int32_t i = 0; i < h.rows(); ++i) {
      const float x = h.at(i, j);
      sum += x;
      if (x > mx) {
        mx = x;
        arg = i;
      }
    }
    out.at(0, j) = sum / static_cast<float>(h.rows());
    out.at(0, f + j) = mx;
    cache.argmax[static_cast<std::size_t>(j)] = arg;
  }
  return out;
}

Matrix readout_pool_backward(const Matrix& dpool, const PoolCache& cache,
                             std::int32_t num_nodes) {
  const std::int32_t f = dpool.cols() / 2;
  Matrix d(num_nodes, f);
  const float inv = 1.0f / static_cast<float>(num_nodes);
  for (std::int32_t j = 0; j < f; ++j) {
    const float dmean = dpool.at(0, j) * inv;
    for (std::int32_t i = 0; i < num_nodes; ++i) d.at(i, j) = dmean;
    d.at(cache.argmax[static_cast<std::size_t>(j)], j) +=
        dpool.at(0, f + j);
  }
  return d;
}

}  // namespace

GcnEncoder::GcnEncoder(const GcnModelConfig& config, Rng& rng) {
  M3DFL_REQUIRE(config.num_layers >= 1, "encoder needs at least one layer");
  for (std::int32_t l = 0; l < config.num_layers; ++l) {
    const std::int32_t in = l == 0 ? config.in_dim : config.hidden;
    layers_.emplace_back(in, config.hidden, /*use_relu=*/true, rng);
  }
}

std::int32_t GcnEncoder::out_dim() const { return layers_.back().out_dim(); }

Matrix GcnEncoder::encode(const NormalizedAdjacency& adj, const Matrix& x,
                          std::vector<GcnCache>& caches) const {
  caches.resize(layers_.size());
  Matrix h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l].forward(adj, h, caches[l]);
  }
  return h;
}

void GcnEncoder::backward(const NormalizedAdjacency& adj,
                          const std::vector<GcnCache>& caches,
                          const Matrix& dh, const Matrix& input) {
  (void)input;  // layer 0's propagated input is cached; X itself not needed
  Matrix grad = dh;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    grad = layers_[l].backward(adj, caches[l], grad);
  }
}

void GcnEncoder::register_params(Adam& adam) {
  for (GcnLayer& layer : layers_) {
    adam.register_param(&layer.weight(), &layer.weight_grad());
    adam.register_param(&layer.bias(), &layer.bias_grad());
  }
}

void GcnEncoder::zero_grad() {
  for (GcnLayer& layer : layers_) layer.zero_grad();
}

NormalizedAdjacency subgraph_adjacency(const Subgraph& sg) {
  return NormalizedAdjacency(sg.num_nodes(), sg.edge_u, sg.edge_v);
}

// ---- TierPredictor ---------------------------------------------------------

TierPredictor::TierPredictor(const GcnModelConfig& config)
    : config_(config),
      encoder_([&] {
        Rng rng(config.seed);
        return GcnEncoder(config, rng);
      }()),
      head_([&] {
        Rng rng(config.seed ^ 0x5bd1e995u);
        return DenseLayer(2 * config.hidden, config.classes,
                          /*use_relu=*/false, rng);
      }()) {}

std::array<double, 2> TierPredictor::predict(
    const Subgraph& sg, const NormalizedAdjacency& adj) const {
  if (sg.empty()) return {0.5, 0.5};
  std::vector<GcnCache> caches;
  const Matrix h = encoder_.encode(adj, sg.features, caches);
  PoolCache pc;
  DenseCache dc;
  const Matrix logits = head_.forward(readout_pool(h, pc), dc);
  const Matrix probs = softmax_rows(logits);
  return {static_cast<double>(probs.at(0, 0)),
          static_cast<double>(probs.at(0, 1))};
}

int TierPredictor::predicted_tier(const Subgraph& sg,
                                  const NormalizedAdjacency& adj,
                                  double* confidence, double* margin) const {
  const auto p = predict(sg, adj);
  const int tier = p[1] > p[0] ? 1 : 0;
  if (confidence != nullptr) {
    *confidence = std::max(p[0], p[1]);
  }
  if (margin != nullptr) {
    *margin = std::abs(p[1] - p[0]);
  }
  return tier;
}

double TierPredictor::train_step(const Subgraph& sg,
                                 const NormalizedAdjacency& adj, int label) {
  if (sg.empty()) return 0.0;
  M3DFL_ASSERT(label == 0 || label == 1);
  std::vector<GcnCache> caches;
  const Matrix h = encoder_.encode(adj, sg.features, caches);
  PoolCache pc;
  DenseCache dc;
  const Matrix logits = head_.forward(readout_pool(h, pc), dc);
  const Matrix probs = softmax_rows(logits);
  const double loss = ce_loss(probs, 0, label);

  const Matrix dlogits = ce_logit_grad(probs, 0, label);
  const Matrix dpool = head_.backward(dc, dlogits);
  encoder_.backward(adj, caches,
                    readout_pool_backward(dpool, pc, sg.num_nodes()),
                    sg.features);
  return loss;
}

void TierPredictor::register_params(Adam& adam) {
  encoder_.register_params(adam);
  adam.register_param(&head_.weight(), &head_.weight_grad());
  adam.register_param(&head_.bias(), &head_.bias_grad());
}

// ---- MivPinpointer ---------------------------------------------------------

MivPinpointer::MivPinpointer(const GcnModelConfig& config)
    : config_(config),
      encoder_([&] {
        Rng rng(config.seed ^ 0x27d4eb2fu);
        return GcnEncoder(config, rng);
      }()),
      head_([&] {
        Rng rng(config.seed ^ 0x165667b1u);
        return DenseLayer(config.hidden, config.classes, /*use_relu=*/false,
                          rng);
      }()) {}

std::vector<double> MivPinpointer::predict(
    const Subgraph& sg, const NormalizedAdjacency& adj) const {
  std::vector<double> out(sg.miv_local.size(), 0.0);
  if (sg.empty() || sg.miv_local.empty()) return out;
  std::vector<GcnCache> caches;
  const Matrix h = encoder_.encode(adj, sg.features, caches);
  DenseCache dc;
  const Matrix probs = softmax_rows(head_.forward(h, dc));
  for (std::size_t i = 0; i < sg.miv_local.size(); ++i) {
    out[i] = static_cast<double>(probs.at(sg.miv_local[i], 1));
  }
  return out;
}

std::vector<MivId> MivPinpointer::predict_faulty(const Subgraph& sg,
                                                 const NormalizedAdjacency& adj,
                                                 double threshold) const {
  const std::vector<double> probs = predict(sg, adj);
  std::vector<MivId> faulty;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] >= threshold) faulty.push_back(sg.miv_ids[i]);
  }
  return faulty;
}

double MivPinpointer::train_step(const Subgraph& sg,
                                 const NormalizedAdjacency& adj) {
  if (sg.empty() || sg.miv_local.empty()) return 0.0;
  std::vector<GcnCache> caches;
  const Matrix h = encoder_.encode(adj, sg.features, caches);
  DenseCache dc;
  const Matrix logits = head_.forward(h, dc);
  const Matrix probs = softmax_rows(logits);

  // Masked cross-entropy over MIV nodes only; defective MIVs are a tiny
  // minority within a subgraph, so positives are up-weighted to balance.
  double loss = 0.0;
  Matrix dlogits(logits.rows(), logits.cols());
  std::int32_t positives = 0;
  for (std::int8_t l : sg.miv_label) positives += l;
  const float pos_weight =
      positives == 0 ? 1.0f
                     : static_cast<float>(sg.miv_label.size() - positives) /
                           static_cast<float>(positives) / 2.0f +
                           0.5f;
  for (std::size_t i = 0; i < sg.miv_local.size(); ++i) {
    const std::int32_t row = sg.miv_local[i];
    const int label = sg.miv_label[i];
    const float w = label == 1 ? pos_weight : 1.0f;
    loss += w * ce_loss(probs, row, label);
    for (std::int32_t j = 0; j < probs.cols(); ++j) {
      dlogits.at(row, j) =
          w * (probs.at(row, j) - (j == label ? 1.0f : 0.0f));
    }
  }
  const float inv = 1.0f / static_cast<float>(sg.miv_local.size());
  scale_inplace(dlogits, inv);
  loss *= inv;

  const Matrix dh = head_.backward(dc, dlogits);
  encoder_.backward(adj, caches, dh, sg.features);
  return loss;
}

void MivPinpointer::register_params(Adam& adam) {
  encoder_.register_params(adam);
  adam.register_param(&head_.weight(), &head_.weight_grad());
  adam.register_param(&head_.bias(), &head_.bias_grad());
}

// ---- PruneClassifier -------------------------------------------------------

PruneClassifier::PruneClassifier(const TierPredictor& pretrained,
                                 const GcnModelConfig& config)
    : config_(config),
      encoder_(pretrained.encoder()),  // frozen copy of the hidden layers
      hidden_([&] {
        Rng rng(config.seed ^ 0x9e3779b9u);
        return DenseLayer(2 * config.hidden, config.hidden, /*use_relu=*/true,
                          rng);
      }()),
      head_([&] {
        Rng rng(config.seed ^ 0x85ebca6bu);
        return DenseLayer(config.hidden, 2, /*use_relu=*/false, rng);
      }()) {
  M3DFL_REQUIRE(pretrained.hidden_dim() == config.hidden,
                "transfer requires matching hidden dimensions");
}

double PruneClassifier::predict_prune_prob(
    const Subgraph& sg, const NormalizedAdjacency& adj) const {
  if (sg.empty()) return 0.5;
  std::vector<GcnCache> caches;
  const Matrix h = encoder_.encode(adj, sg.features, caches);
  PoolCache pc;
  DenseCache c1;
  DenseCache c2;
  const Matrix logits =
      head_.forward(hidden_.forward(readout_pool(h, pc), c1), c2);
  const Matrix probs = softmax_rows(logits);
  return static_cast<double>(probs.at(0, 1));
}

double PruneClassifier::train_step(const Subgraph& sg,
                                   const NormalizedAdjacency& adj,
                                   int label) {
  if (sg.empty()) return 0.0;
  M3DFL_ASSERT(label == 0 || label == 1);
  std::vector<GcnCache> caches;
  const Matrix h = encoder_.encode(adj, sg.features, caches);
  PoolCache pc;
  DenseCache c1;
  DenseCache c2;
  const Matrix logits =
      head_.forward(hidden_.forward(readout_pool(h, pc), c1), c2);
  const Matrix probs = softmax_rows(logits);
  const double loss = ce_loss(probs, 0, label);

  const Matrix dlogits = ce_logit_grad(probs, 0, label);
  const Matrix dhid = head_.backward(c2, dlogits);
  hidden_.backward(c1, dhid);
  // Encoder frozen: gradients stop here (network-based transfer learning).
  return loss;
}

void PruneClassifier::register_params(Adam& adam) {
  adam.register_param(&hidden_.weight(), &hidden_.weight_grad());
  adam.register_param(&hidden_.bias(), &hidden_.bias_grad());
  adam.register_param(&head_.weight(), &head_.weight_grad());
  adam.register_param(&head_.bias(), &head_.bias_grad());
}

}  // namespace m3dfl
