#include <cmath>

#include <gtest/gtest.h>

#include "gnn/gcn.h"
#include "gnn/model.h"
#include "gnn/trainer.h"

namespace m3dfl {
namespace {

// Numerical gradient check: L(params) = sum(R .* forward(X)), with R a fixed
// random weighting so every output entry contributes a distinct gradient.
TEST(GcnLayerTest, WeightGradientMatchesNumerical) {
  Rng rng(7);
  const NormalizedAdjacency adj(4, {0, 1, 2}, {1, 2, 3});
  Matrix x(4, 3);
  for (float& v : x.data()) v = static_cast<float>(rng.next_gaussian());
  GcnLayer layer(3, 2, /*use_relu=*/true, rng);
  Matrix r(4, 2);
  for (float& v : r.data()) v = static_cast<float>(rng.next_gaussian());

  const auto loss = [&] {
    GcnCache cache;
    const Matrix y = layer.forward(adj, x, cache);
    double sum = 0;
    for (std::int32_t i = 0; i < y.rows(); ++i) {
      for (std::int32_t j = 0; j < y.cols(); ++j) {
        sum += static_cast<double>(r.at(i, j)) * y.at(i, j);
      }
    }
    return sum;
  };

  // Analytic gradients.
  layer.zero_grad();
  GcnCache cache;
  layer.forward(adj, x, cache);
  layer.backward(adj, cache, r);

  const double eps = 1e-3;
  for (std::int32_t i = 0; i < layer.weight().rows(); ++i) {
    for (std::int32_t j = 0; j < layer.weight().cols(); ++j) {
      const float saved = layer.weight().at(i, j);
      layer.weight().at(i, j) = saved + static_cast<float>(eps);
      const double up = loss();
      layer.weight().at(i, j) = saved - static_cast<float>(eps);
      const double down = loss();
      layer.weight().at(i, j) = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(layer.weight_grad().at(i, j), numeric, 5e-2)
          << "dW(" << i << "," << j << ")";
    }
  }
  for (std::int32_t j = 0; j < layer.bias().cols(); ++j) {
    const float saved = layer.bias().at(0, j);
    layer.bias().at(0, j) = saved + static_cast<float>(eps);
    const double up = loss();
    layer.bias().at(0, j) = saved - static_cast<float>(eps);
    const double down = loss();
    layer.bias().at(0, j) = saved;
    EXPECT_NEAR(layer.bias_grad().at(0, j), (up - down) / (2 * eps), 5e-2);
  }
}

TEST(GcnLayerTest, InputGradientMatchesNumerical) {
  Rng rng(9);
  const NormalizedAdjacency adj(3, {0, 1}, {1, 2});
  Matrix x(3, 2);
  for (float& v : x.data()) v = static_cast<float>(rng.next_gaussian());
  GcnLayer layer(2, 2, /*use_relu=*/false, rng);
  Matrix r(3, 2);
  for (float& v : r.data()) v = static_cast<float>(rng.next_gaussian());

  const auto loss = [&] {
    GcnCache cache;
    const Matrix y = layer.forward(adj, x, cache);
    double sum = 0;
    for (std::int32_t i = 0; i < y.rows(); ++i) {
      for (std::int32_t j = 0; j < y.cols(); ++j) {
        sum += static_cast<double>(r.at(i, j)) * y.at(i, j);
      }
    }
    return sum;
  };

  layer.zero_grad();
  GcnCache cache;
  layer.forward(adj, x, cache);
  const Matrix dx = layer.backward(adj, cache, r);

  const double eps = 1e-3;
  for (std::int32_t i = 0; i < x.rows(); ++i) {
    for (std::int32_t j = 0; j < x.cols(); ++j) {
      const float saved = x.at(i, j);
      x.at(i, j) = saved + static_cast<float>(eps);
      const double up = loss();
      x.at(i, j) = saved - static_cast<float>(eps);
      const double down = loss();
      x.at(i, j) = saved;
      EXPECT_NEAR(dx.at(i, j), (up - down) / (2 * eps), 5e-2);
    }
  }
}

TEST(DenseLayerTest, GradientsMatchNumerical) {
  Rng rng(11);
  Matrix x(5, 3);
  for (float& v : x.data()) v = static_cast<float>(rng.next_gaussian());
  DenseLayer layer(3, 2, /*use_relu=*/true, rng);
  Matrix r(5, 2);
  for (float& v : r.data()) v = static_cast<float>(rng.next_gaussian());

  const auto loss = [&] {
    DenseCache cache;
    const Matrix y = layer.forward(x, cache);
    double sum = 0;
    for (std::int32_t i = 0; i < y.rows(); ++i) {
      for (std::int32_t j = 0; j < y.cols(); ++j) {
        sum += static_cast<double>(r.at(i, j)) * y.at(i, j);
      }
    }
    return sum;
  };

  layer.zero_grad();
  DenseCache cache;
  layer.forward(x, cache);
  const Matrix dx = layer.backward(cache, r);

  const double eps = 1e-3;
  for (std::int32_t i = 0; i < layer.weight().rows(); ++i) {
    for (std::int32_t j = 0; j < layer.weight().cols(); ++j) {
      const float saved = layer.weight().at(i, j);
      layer.weight().at(i, j) = saved + static_cast<float>(eps);
      const double up = loss();
      layer.weight().at(i, j) = saved - static_cast<float>(eps);
      const double down = loss();
      layer.weight().at(i, j) = saved;
      EXPECT_NEAR(layer.weight_grad().at(i, j), (up - down) / (2 * eps),
                  5e-2);
    }
  }
  for (std::int32_t i = 0; i < x.rows(); ++i) {
    for (std::int32_t j = 0; j < x.cols(); ++j) {
      const float saved = x.at(i, j);
      x.at(i, j) = saved + static_cast<float>(eps);
      const double up = loss();
      x.at(i, j) = saved - static_cast<float>(eps);
      const double down = loss();
      x.at(i, j) = saved;
      EXPECT_NEAR(dx.at(i, j), (up - down) / (2 * eps), 5e-2);
    }
  }
}

// Synthetic labeled subgraph: `n` nodes on a path, feature column 3 set to
// the label value (plus noise elsewhere).
Subgraph synthetic_graph(Rng& rng, int label, std::int32_t n = 6) {
  Subgraph sg;
  sg.features = Matrix(n, kNumNodeFeatures);
  for (std::int32_t i = 0; i < n; ++i) {
    sg.nodes.push_back(i);
    for (std::int32_t j = 0; j < kNumNodeFeatures; ++j) {
      sg.features.at(i, j) = static_cast<float>(rng.next_double());
    }
    sg.features.at(i, 3) =
        label == 1 ? static_cast<float>(rng.next_double(0.6, 1.0))
                   : static_cast<float>(rng.next_double(0.0, 0.4));
    if (i > 0) {
      sg.edge_u.push_back(i - 1);
      sg.edge_v.push_back(i);
    }
  }
  sg.tier_label = label;
  return sg;
}

TEST(TierPredictorTest, LearnsSeparableToyTask) {
  Rng rng(21);
  std::vector<Subgraph> train;
  for (int i = 0; i < 60; ++i) {
    train.push_back(synthetic_graph(rng, i % 2));
  }
  GcnModelConfig config;
  config.hidden = 12;
  config.num_layers = 2;
  TierPredictor model(config);
  TrainOptions opt;
  opt.epochs = 80;
  opt.patience = 80;
  train_tier_predictor(model, train, opt);

  std::vector<Subgraph> test;
  for (int i = 0; i < 40; ++i) {
    test.push_back(synthetic_graph(rng, i % 2));
  }
  EXPECT_GT(tier_accuracy(model, test), 0.9);
}

TEST(TierPredictorTest, EmptyGraphIsUniform) {
  TierPredictor model;
  const auto p = model.predict(Subgraph{}, subgraph_adjacency(Subgraph{}));
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(TierPredictorTest, ConfidenceIsMaxProbability) {
  Rng rng(23);
  TierPredictor model;
  const Subgraph sg = synthetic_graph(rng, 1);
  double confidence = 0.0;
  const NormalizedAdjacency adj = subgraph_adjacency(sg);
  const int tier = model.predicted_tier(sg, adj, &confidence);
  const auto p = model.predict(sg, adj);
  EXPECT_DOUBLE_EQ(confidence, std::max(p[0], p[1]));
  EXPECT_EQ(tier, p[1] > p[0] ? 1 : 0);
}

TEST(MivPinpointerTest, LearnsNodeLabels) {
  // MIV nodes are the even path positions; faulty iff feature 6 is high.
  Rng rng(25);
  const auto make = [&](bool faulty) {
    Subgraph sg = synthetic_graph(rng, 0, 8);
    sg.miv_local = {2, 4};
    sg.miv_ids = {0, 1};
    sg.miv_label = {static_cast<std::int8_t>(faulty ? 1 : 0), 0};
    // Plant a strong multi-feature signature on the defective via (graph
    // convolution smooths single-node single-feature signals away).
    for (std::int32_t col : {6, 11, 12}) {
      sg.features.at(2, col) = faulty ? 0.95f : 0.05f;
      sg.features.at(4, col) = 0.05f;
    }
    return sg;
  };
  std::vector<Subgraph> train;
  for (int i = 0; i < 50; ++i) train.push_back(make(i % 2 == 0));
  GcnModelConfig config;
  config.hidden = 12;
  config.num_layers = 2;
  MivPinpointer model(config);
  TrainOptions opt;
  opt.epochs = 150;
  opt.patience = 150;
  train_miv_pinpointer(model, train, opt);

  std::vector<Subgraph> test;
  for (int i = 0; i < 30; ++i) test.push_back(make(i % 2 == 0));
  EXPECT_GT(miv_accuracy(model, test), 0.85);

  // predict_faulty surfaces the planted MIV id.
  const Subgraph positive = make(true);
  const auto faulty =
      model.predict_faulty(positive, subgraph_adjacency(positive));
  ASSERT_FALSE(faulty.empty());
  EXPECT_EQ(faulty[0], 0);
}

TEST(PruneClassifierTest, TransfersAndLearnsHead) {
  Rng rng(27);
  std::vector<Subgraph> train;
  std::vector<int> labels;
  for (int i = 0; i < 60; ++i) {
    train.push_back(synthetic_graph(rng, i % 2));
    labels.push_back(i % 2);
  }
  GcnModelConfig config;
  config.hidden = 12;
  config.num_layers = 2;
  TierPredictor pretrained(config);
  TrainOptions opt;
  opt.epochs = 60;
  opt.patience = 60;
  train_tier_predictor(pretrained, train, opt);

  PruneClassifier classifier(pretrained, config);
  train_prune_classifier(classifier, train, labels, opt);
  int correct = 0;
  for (int i = 0; i < 30; ++i) {
    const Subgraph sg = synthetic_graph(rng, i % 2);
    const double p = classifier.predict_prune_prob(sg, subgraph_adjacency(sg));
    if ((p >= 0.5) == (i % 2 == 1)) ++correct;
  }
  EXPECT_GT(correct, 24);
}

TEST(PruneClassifierTest, RequiresMatchingHidden) {
  GcnModelConfig a;
  a.hidden = 12;
  GcnModelConfig b;
  b.hidden = 16;
  TierPredictor pretrained(a);
  EXPECT_THROW(PruneClassifier(pretrained, b), Error);
}

}  // namespace
}  // namespace m3dfl
