#include "gnn/trainer.h"

#include <algorithm>
#include <cmath>

#include "diag/datagen.h"  // kMivTier

namespace m3dfl {

double run_epoch_loop(std::size_t dataset_size, const TrainOptions& options,
                      Adam& adam, EpochLoopState& state,
                      const TrainStepFn& step, const EpochHook& hook) {
  if (dataset_size == 0) {
    state.done = true;
    return 0.0;
  }
  std::vector<std::size_t> order(dataset_size);
  while (!state.done && state.next_epoch < options.epochs) {
    // Reset to the identity before shuffling: the epoch's visit order is
    // then a pure function of the rng state, so a state restored from a
    // checkpoint replays exactly the epochs the interrupted run would have.
    for (std::size_t i = 0; i < dataset_size; ++i) order[i] = i;
    state.rng.shuffle(order);

    double epoch_loss = 0.0;
    std::int32_t in_batch = 0;
    for (std::size_t idx : order) {
      epoch_loss += step(idx);
      if (++in_batch >= options.batch_size) {
        adam.step(in_batch);
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.step(in_batch);
    epoch_loss /= static_cast<double>(dataset_size);

    state.last_loss = epoch_loss;
    ++state.next_epoch;
    if (epoch_loss < state.best_loss - options.min_improvement) {
      state.best_loss = epoch_loss;
      state.stale = 0;
    } else if (++state.stale >= options.patience) {
      state.done = true;
    }
    if (state.next_epoch >= options.epochs) state.done = true;
    if (hook && !hook(state)) break;  // paused (or rolled back and paused)
  }
  return state.last_loss;
}

// ---- Dataset selection ------------------------------------------------------

TrainSet select_tier_samples(std::span<const Subgraph> graphs) {
  TrainSet set;
  // Usable samples: tier-labeled, non-empty.
  for (const Subgraph& g : graphs) {
    if (!g.empty() && (g.tier_label == 0 || g.tier_label == 1)) {
      set.data.push_back(&g);
    }
  }
  set.adj.reserve(set.data.size());
  for (const Subgraph* g : set.data) set.adj.push_back(subgraph_adjacency(*g));
  return set;
}

TrainSet select_miv_samples(std::span<const Subgraph> graphs) {
  TrainSet set;
  for (const Subgraph& g : graphs) {
    if (!g.empty() && !g.miv_local.empty()) set.data.push_back(&g);
  }
  set.adj.reserve(set.data.size());
  for (const Subgraph* g : set.data) set.adj.push_back(subgraph_adjacency(*g));
  return set;
}

LabeledTrainSet select_classifier_samples(std::span<const Subgraph> graphs,
                                          std::span<const int> labels) {
  M3DFL_REQUIRE(graphs.size() == labels.size(),
                "classifier labels must match graphs");
  LabeledTrainSet out;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i].empty()) continue;
    out.set.data.push_back(&graphs[i]);
    out.labels.push_back(labels[i]);
  }
  out.set.adj.reserve(out.set.data.size());
  for (const Subgraph* g : out.set.data) {
    out.set.adj.push_back(subgraph_adjacency(*g));
  }
  return out;
}

// ---- One-shot training ------------------------------------------------------

double train_tier_predictor(TierPredictor& model,
                            std::span<const Subgraph> graphs,
                            const TrainOptions& options) {
  const TrainSet set = select_tier_samples(graphs);
  Adam adam(AdamOptions{.lr = options.lr});
  model.register_params(adam);
  EpochLoopState state;
  state.rng.reseed(options.seed);
  return run_epoch_loop(set.size(), options, adam, state, [&](std::size_t i) {
    return model.train_step(*set.data[i], set.adj[i], set.data[i]->tier_label);
  });
}

double train_miv_pinpointer(MivPinpointer& model,
                            std::span<const Subgraph> graphs,
                            const TrainOptions& options) {
  const TrainSet set = select_miv_samples(graphs);
  Adam adam(AdamOptions{.lr = options.lr});
  model.register_params(adam);
  EpochLoopState state;
  state.rng.reseed(options.seed);
  return run_epoch_loop(set.size(), options, adam, state, [&](std::size_t i) {
    return model.train_step(*set.data[i], set.adj[i]);
  });
}

double train_prune_classifier(PruneClassifier& model,
                              std::span<const Subgraph> graphs,
                              std::span<const int> labels,
                              const TrainOptions& options) {
  const LabeledTrainSet set = select_classifier_samples(graphs, labels);
  Adam adam(AdamOptions{.lr = options.lr});
  model.register_params(adam);
  EpochLoopState state;
  state.rng.reseed(options.seed);
  return run_epoch_loop(set.set.size(), options, adam, state,
                        [&](std::size_t i) {
                          return model.train_step(*set.set.data[i],
                                                  set.set.adj[i],
                                                  set.labels[i]);
                        });
}

double tier_accuracy(const TierPredictor& model,
                     std::span<const Subgraph> graphs) {
  std::int32_t total = 0;
  std::int32_t correct = 0;
  for (const Subgraph& g : graphs) {
    if (g.empty() || (g.tier_label != 0 && g.tier_label != 1)) continue;
    ++total;
    if (model.predicted_tier(g, subgraph_adjacency(g)) == g.tier_label) {
      ++correct;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

double miv_accuracy(const MivPinpointer& model,
                    std::span<const Subgraph> graphs) {
  std::int32_t total = 0;
  std::int32_t correct = 0;
  for (const Subgraph& g : graphs) {
    if (g.empty() || g.miv_local.empty()) continue;
    ++total;
    const std::vector<double> probs = model.predict(g, subgraph_adjacency(g));
    bool ok = true;
    for (std::size_t i = 0; i < probs.size(); ++i) {
      const bool predicted = probs[i] >= 0.5;
      if (predicted != (g.miv_label[i] != 0)) {
        ok = false;
        break;
      }
    }
    if (ok) ++correct;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

std::vector<double> feature_significance(const TierPredictor& model,
                                         std::span<const Subgraph> graphs,
                                         std::uint64_t seed) {
  const double base = tier_accuracy(model, graphs);
  std::vector<double> significance(kNumNodeFeatures, 0.5);
  Rng rng(seed);
  for (std::int32_t f = 0; f < kNumNodeFeatures; ++f) {
    // Shuffle feature f across all nodes of all graphs.
    std::vector<Subgraph> permuted(graphs.begin(), graphs.end());
    std::vector<float> pool;
    for (const Subgraph& g : permuted) {
      for (std::int32_t i = 0; i < g.num_nodes(); ++i) {
        pool.push_back(g.features.at(i, f));
      }
    }
    rng.shuffle(pool);
    std::size_t k = 0;
    for (Subgraph& g : permuted) {
      for (std::int32_t i = 0; i < g.num_nodes(); ++i) {
        g.features.at(i, f) = pool[k++];
      }
    }
    const double drop = base - tier_accuracy(model, permuted);
    significance[static_cast<std::size_t>(f)] =
        std::clamp(0.5 + drop, 0.0, 1.0);
  }
  return significance;
}

}  // namespace m3dfl
