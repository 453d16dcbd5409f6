#include <algorithm>

#include <gtest/gtest.h>

#include "graph/backtrace.h"
#include "graph/features.h"
#include "graph/subgraph.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

struct SubgraphSetup {
  testing::SmallDesign d;
  const HeteroGraph& graph;
  std::vector<Sample> samples;
  std::vector<Subgraph> graphs;

  explicit SubgraphSetup(double miv_prob = 0.0) : d(5), graph(d.graph) {
    DataGenOptions opt;
    opt.num_samples = 15;
    opt.miv_fault_prob = miv_prob;
    opt.max_failing_patterns = 0;
    opt.seed = 51;
    samples = generate_samples(d.context(), opt);
    for (const Sample& s : samples) {
      Subgraph sg = extract_subgraph(
          graph, backtrace_with_support(graph, d.context(), s.log).candidates);
      label_subgraph(sg, s);
      graphs.push_back(std::move(sg));
    }
  }
};

TEST(SubgraphTest, InducedEdgesAreRealEdges) {
  SubgraphSetup s;
  for (const Subgraph& sg : s.graphs) {
    for (std::size_t e = 0; e < sg.edge_u.size(); ++e) {
      const NodeId u = sg.nodes[static_cast<std::size_t>(sg.edge_u[e])];
      const NodeId v = sg.nodes[static_cast<std::size_t>(sg.edge_v[e])];
      const auto succ = s.graph.successors(u);
      EXPECT_TRUE(std::find(succ.begin(), succ.end(), v) != succ.end());
    }
  }
}

TEST(SubgraphTest, AllInducedEdgesPresent) {
  SubgraphSetup s;
  const Subgraph& sg = s.graphs[0];
  // Count edges among member nodes directly.
  std::size_t expected = 0;
  for (NodeId u : sg.nodes) {
    for (NodeId v : s.graph.successors(u)) {
      if (std::binary_search(sg.nodes.begin(), sg.nodes.end(), v)) ++expected;
    }
  }
  EXPECT_EQ(sg.edge_u.size(), expected);
}

TEST(SubgraphTest, FeatureMatrixShapeAndRange) {
  SubgraphSetup s;
  for (const Subgraph& sg : s.graphs) {
    ASSERT_EQ(sg.features.rows(), sg.num_nodes());
    ASSERT_EQ(sg.features.cols(), kNumNodeFeatures);
    for (std::int32_t i = 0; i < sg.features.rows(); ++i) {
      for (std::int32_t j = 0; j < sg.features.cols(); ++j) {
        EXPECT_GE(sg.features.at(i, j), 0.0f);
        EXPECT_LE(sg.features.at(i, j), 1.0f + 1e-6f);
      }
    }
  }
}

TEST(SubgraphTest, TierLabelFromSample) {
  SubgraphSetup s;
  for (std::size_t i = 0; i < s.graphs.size(); ++i) {
    EXPECT_EQ(s.graphs[i].tier_label, s.samples[i].fault_tier);
  }
}

TEST(SubgraphTest, MivLabelsMarkFaultyMivs) {
  SubgraphSetup s(/*miv_prob=*/1.0);
  for (std::size_t i = 0; i < s.graphs.size(); ++i) {
    const Subgraph& sg = s.graphs[i];
    ASSERT_EQ(sg.miv_local.size(), sg.miv_ids.size());
    ASSERT_EQ(sg.miv_local.size(), sg.miv_label.size());
    std::int32_t positives = 0;
    for (std::size_t k = 0; k < sg.miv_ids.size(); ++k) {
      if (sg.miv_label[k]) {
        ++positives;
        EXPECT_EQ(sg.miv_ids[k], s.samples[i].faulty_mivs[0]);
      }
      EXPECT_TRUE(s.graph.is_miv_node(
          sg.nodes[static_cast<std::size_t>(sg.miv_local[k])]));
    }
    EXPECT_EQ(positives, 1);
  }
}

TEST(SubgraphTest, LocFeatureMatchesTier) {
  SubgraphSetup s;
  const Subgraph& sg = s.graphs[0];
  for (std::int32_t i = 0; i < sg.num_nodes(); ++i) {
    const NodeId node = sg.nodes[static_cast<std::size_t>(i)];
    EXPECT_FLOAT_EQ(sg.features.at(i, 3), s.graph.loc(node));
  }
}

TEST(SubgraphTest, SubgraphDegreeFeaturesMatchInducedEdges) {
  SubgraphSetup s;
  const Subgraph& sg = s.graphs[0];
  std::vector<std::int32_t> fanout(static_cast<std::size_t>(sg.num_nodes()),
                                   0);
  std::vector<std::int32_t> fanin(static_cast<std::size_t>(sg.num_nodes()),
                                  0);
  for (std::size_t e = 0; e < sg.edge_u.size(); ++e) {
    ++fanout[static_cast<std::size_t>(sg.edge_u[e])];
    ++fanin[static_cast<std::size_t>(sg.edge_v[e])];
  }
  for (std::int32_t i = 0; i < sg.num_nodes(); ++i) {
    const float expect_fi =
        static_cast<float>(fanin[static_cast<std::size_t>(i)]) /
        (static_cast<float>(fanin[static_cast<std::size_t>(i)]) + 4.0f);
    EXPECT_FLOAT_EQ(sg.features.at(i, 7), expect_fi);
  }
}

TEST(SubgraphTest, GraphFeatureVectorIsColumnMean) {
  SubgraphSetup s;
  const Subgraph& sg = s.graphs[0];
  const std::vector<double> v = graph_feature_vector(sg);
  ASSERT_EQ(v.size(), static_cast<std::size_t>(kNumNodeFeatures));
  double mean3 = 0.0;
  for (std::int32_t i = 0; i < sg.num_nodes(); ++i) {
    mean3 += sg.features.at(i, 3);
  }
  mean3 /= sg.num_nodes();
  EXPECT_NEAR(v[3], mean3, 1e-5);
}

TEST(SubgraphTest, EmptySubgraph) {
  SubgraphSetup s;
  const Subgraph sg = extract_subgraph(s.graph, {});
  EXPECT_TRUE(sg.empty());
  EXPECT_EQ(graph_feature_vector(sg).size(),
            static_cast<std::size_t>(kNumNodeFeatures));
}

TEST(SubgraphTest, FeatureNamesCoverAllColumns) {
  for (std::int32_t i = 0; i < kNumNodeFeatures; ++i) {
    EXPECT_NE(kFeatureNames[i], nullptr);
    EXPECT_GT(std::string(kFeatureNames[i]).size(), 0u);
  }
}

}  // namespace
}  // namespace m3dfl
