#include <algorithm>

#include <gtest/gtest.h>

#include "core/pipeline.h"

namespace m3dfl {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = Design::build(Profile::kAes, DesignConfig::kSyn1).release();
  }
  static void TearDownTestSuite() {
    delete design_;
    design_ = nullptr;
  }
  static Design* design_;
};

Design* PipelineTest::design_ = nullptr;

TEST_F(PipelineTest, DatasetSizesAndLabels) {
  DataGenOptions opt;
  opt.num_samples = 12;
  opt.seed = 5;
  const LabeledDataset data = build_dataset(*design_, opt);
  EXPECT_EQ(data.size(), 12u);
  EXPECT_EQ(data.samples.size(), data.graphs.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_FALSE(data.graphs[i].empty());
    EXPECT_EQ(data.graphs[i].tier_label, data.samples[i].fault_tier);
  }
}

TEST_F(PipelineTest, SubgraphContainsFaultSite) {
  DataGenOptions opt;
  opt.num_samples = 12;
  opt.seed = 6;
  const LabeledDataset data = build_dataset(*design_, opt);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const NodeId site = data.samples[i].faults[0].pin;
    EXPECT_TRUE(std::binary_search(data.graphs[i].nodes.begin(),
                                   data.graphs[i].nodes.end(), site));
  }
}

TEST_F(PipelineTest, BacktracePrefixMatchesDatasetPath) {
  DataGenOptions opt;
  opt.num_samples = 3;
  opt.seed = 7;
  const LabeledDataset data = build_dataset(*design_, opt);
  const FailureLog& log = data.samples[0].log;
  const DiagnosisPrefix prefix = backtrace_prefix(*design_, log);
  EXPECT_EQ(prefix.subgraph.nodes, data.graphs[0].nodes);
  EXPECT_EQ(prefix.backtrace.candidates, prefix.subgraph.nodes);
  EXPECT_EQ(prefix.adjacency.num_nodes(), prefix.subgraph.num_nodes());
  EXPECT_EQ(prefix.adjacency.num_entries(),
            subgraph_adjacency(prefix.subgraph).num_entries());
  EXPECT_TRUE(prefix.base_report.candidates.empty());

  // A streamed back-trace passed in replaces the batch one.
  BacktraceResult streamed = prefix.backtrace;
  streamed.candidates.resize(1);
  streamed.support.resize(1);
  const DiagnosisPrefix from_stream =
      backtrace_prefix(*design_, log, &streamed);
  EXPECT_EQ(from_stream.backtrace.candidates, streamed.candidates);
  EXPECT_EQ(from_stream.subgraph.nodes, streamed.candidates);
}

TEST_F(PipelineTest, AppendConcatenatesDatasets) {
  DataGenOptions opt;
  opt.num_samples = 4;
  opt.seed = 8;
  LabeledDataset a = build_dataset(*design_, opt);
  opt.seed = 9;
  LabeledDataset b = build_dataset(*design_, opt);
  const std::size_t na = a.size();
  a.append(std::move(b));
  EXPECT_EQ(a.size(), na + 4);
}

TEST_F(PipelineTest, TransferTrainingSetMixesPartitions) {
  TransferTrainOptions opt;
  opt.samples_syn1 = 10;
  opt.samples_per_random = 5;
  const LabeledDataset data =
      build_transfer_training_set(Profile::kAes, *design_, opt);
  EXPECT_EQ(data.size(), 20u);
  // Samples from randomly partitioned designs follow the Syn-1 block.
  bool any_miv_labelled = false;
  for (const Subgraph& g : data.graphs) {
    any_miv_labelled = any_miv_labelled || !g.miv_ids.empty();
  }
  EXPECT_TRUE(any_miv_labelled);
}

TEST_F(PipelineTest, FailMemoryDefaultsFromDesign) {
  // AES logs everything (fail_memory_patterns == 0); explicitly request a
  // shallow memory and verify the delegation plumbing end to end.
  DataGenOptions opt;
  opt.num_samples = 5;
  opt.seed = 10;
  opt.max_failing_patterns = 2;
  const LabeledDataset data = build_dataset(*design_, opt);
  for (const Sample& s : data.samples) {
    EXPECT_LE(s.log.num_failing_patterns(), 2);
  }
}

}  // namespace
}  // namespace m3dfl
