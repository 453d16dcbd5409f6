// Cross-module determinism: the whole pipeline must produce bit-identical
// results for identical seeds — the property that makes every bench table
// reproducible and the experiments auditable.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "diag/log_io.h"
#include "netlist/verilog_io.h"

namespace m3dfl {
namespace {

TEST(DeterminismTest, DesignBuildIsBitIdentical) {
  const auto a = Design::build(Profile::kAes, DesignConfig::kSyn1);
  const auto b = Design::build(Profile::kAes, DesignConfig::kSyn1);
  EXPECT_EQ(to_mnl(a->netlist()), to_mnl(b->netlist()));
  EXPECT_EQ(a->mivs().num_mivs(), b->mivs().num_mivs());
  EXPECT_EQ(a->patterns().num_patterns, b->patterns().num_patterns);
  for (GateId g = 0; g < a->netlist().num_gates(); ++g) {
    EXPECT_EQ(a->tiers().tier_of(g), b->tiers().tier_of(g));
  }
  // Identical good-machine responses.
  for (std::int32_t f = 0;
       f < static_cast<std::int32_t>(a->netlist().flops().size()); f += 7) {
    for (std::int32_t w = 0; w < a->good_sim().num_words(); ++w) {
      EXPECT_EQ(a->good_sim().captured(f, w), b->good_sim().captured(f, w));
    }
  }
}

TEST(DeterminismTest, DatasetsAndSubgraphsAreIdentical) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  DataGenOptions gen;
  gen.num_samples = 10;
  gen.seed = 555;
  const LabeledDataset a = build_dataset(*design, gen);
  const LabeledDataset b = build_dataset(*design, gen);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(failure_log_to_string(a.samples[i].log),
              failure_log_to_string(b.samples[i].log));
    EXPECT_EQ(a.graphs[i].nodes, b.graphs[i].nodes);
    EXPECT_EQ(a.graphs[i].edge_u, b.graphs[i].edge_u);
    for (std::int32_t r = 0; r < a.graphs[i].features.rows(); ++r) {
      for (std::int32_t c = 0; c < a.graphs[i].features.cols(); ++c) {
        EXPECT_EQ(a.graphs[i].features.at(r, c),
                  b.graphs[i].features.at(r, c));
      }
    }
  }
}

TEST(DeterminismTest, DiagnosisReportsAreIdentical) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  DataGenOptions gen;
  gen.num_samples = 5;
  gen.seed = 556;
  const LabeledDataset data = build_dataset(*design, gen);
  for (const Sample& s : data.samples) {
    const DiagnosisReport a = diagnose_atpg(design->context(), s.log);
    const DiagnosisReport b = diagnose_atpg(design->context(), s.log);
    ASSERT_EQ(a.resolution(), b.resolution());
    for (std::int32_t i = 0; i < a.resolution(); ++i) {
      EXPECT_EQ(a.candidates[static_cast<std::size_t>(i)].fault,
                b.candidates[static_cast<std::size_t>(i)].fault);
      EXPECT_EQ(a.candidates[static_cast<std::size_t>(i)].score,
                b.candidates[static_cast<std::size_t>(i)].score);
    }
  }
}

TEST(DeterminismTest, TrainingIsReproducible) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  DataGenOptions gen;
  gen.num_samples = 40;
  gen.seed = 557;
  const LabeledDataset data = build_dataset(*design, gen);

  const auto train_once = [&] {
    GcnModelConfig config;
    config.hidden = 8;
    config.num_layers = 2;
    TierPredictor model(config);
    TrainOptions opt;
    opt.epochs = 20;
    train_tier_predictor(model, data.graphs, opt);
    return model;
  };
  const TierPredictor a = train_once();
  const TierPredictor b = train_once();
  for (const Subgraph& g : data.graphs) {
    const NormalizedAdjacency adj = subgraph_adjacency(g);
    const auto pa = a.predict(g, adj);
    const auto pb = b.predict(g, adj);
    EXPECT_EQ(pa[0], pb[0]);
    EXPECT_EQ(pa[1], pb[1]);
  }
}

TEST(DeterminismTest, ConfigurationsDifferFromEachOther) {
  // Determinism must not collapse the configurations into one another.
  const auto syn1 = Design::build(Profile::kAes, DesignConfig::kSyn1);
  const auto syn2 = Design::build(Profile::kAes, DesignConfig::kSyn2);
  const auto tpi = Design::build(Profile::kAes, DesignConfig::kTpi);
  EXPECT_NE(to_mnl(syn1->netlist()), to_mnl(syn2->netlist()));
  EXPECT_NE(to_mnl(syn1->netlist()), to_mnl(tpi->netlist()));
}

}  // namespace
}  // namespace m3dfl
