#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/pipeline.h"

namespace m3dfl {
namespace {

// One shared design + trained framework for the whole file (expensive).
class FrameworkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = Design::build(Profile::kAes, DesignConfig::kSyn1).release();
    TransferTrainOptions train;
    train.samples_syn1 = 60;
    train.samples_per_random = 30;
    data_ = new LabeledDataset(
        build_transfer_training_set(Profile::kAes, *design_, train));
    FrameworkOptions options;
    options.training.epochs = 60;
    framework_ = new DiagnosisFramework(options);
    framework_->train(data_->graphs);
  }
  static void TearDownTestSuite() {
    delete framework_;
    delete data_;
    delete design_;
    framework_ = nullptr;
    data_ = nullptr;
    design_ = nullptr;
  }

  static Design* design_;
  static LabeledDataset* data_;
  static DiagnosisFramework* framework_;
};

Design* FrameworkTest::design_ = nullptr;
LabeledDataset* FrameworkTest::data_ = nullptr;
DiagnosisFramework* FrameworkTest::framework_ = nullptr;

TEST_F(FrameworkTest, DesignBuildInvariants) {
  const Design& d = *design_;
  EXPECT_EQ(d.name(), "AES/Syn-1");
  EXPECT_GT(d.netlist().num_logic_gates(), 1000);
  EXPECT_GT(d.mivs().num_mivs(), 0);
  EXPECT_GT(d.scan().num_chains(), 0);
  EXPECT_GT(d.patterns().num_patterns, 0);
  EXPECT_GT(d.atpg().coverage(), 0.5);
  EXPECT_EQ(d.graph().num_pins(), d.netlist().num_pins());
  EXPECT_EQ(d.graph().num_mivs(), d.mivs().num_mivs());
  EXPECT_GE(d.feature_construction_seconds(), 0.0);

  const DesignContext ctx = d.context();
  EXPECT_EQ(ctx.netlist, &d.netlist());
  EXPECT_EQ(ctx.good, &d.good_sim());
  EXPECT_EQ(ctx.fail_memory_patterns, d.fail_memory_patterns());
}

TEST_F(FrameworkTest, ConfigurationsShareProfileShape) {
  const auto tpi = Design::build(Profile::kAes, DesignConfig::kTpi);
  // Test points add gates and flops on top of the Syn-1 netlist.
  EXPECT_GT(tpi->netlist().num_logic_gates(),
            design_->netlist().num_logic_gates());
  const auto par = Design::build(Profile::kAes, DesignConfig::kPar);
  // Same netlist, different partition.
  EXPECT_EQ(par->netlist().num_gates(), design_->netlist().num_gates());
  EXPECT_NE(par->mivs().num_mivs(), design_->mivs().num_mivs());

  const auto rnd = Design::build_random_partition(Profile::kAes, 99);
  EXPECT_EQ(rnd->netlist().num_gates(), design_->netlist().num_gates());
  // Random partitions cut far more nets than min-cut.
  EXPECT_GT(rnd->mivs().num_mivs(), design_->mivs().num_mivs());
}

TEST_F(FrameworkTest, TrainedStateAndThreshold) {
  EXPECT_TRUE(framework_->trained());
  EXPECT_GT(framework_->tp_threshold(), 0.4);
  EXPECT_LE(framework_->tp_threshold(), 2.0);
}

TEST_F(FrameworkTest, PredictionsAreWellFormed) {
  for (std::size_t i = 0; i < 10 && i < data_->size(); ++i) {
    const Subgraph& g = data_->graphs[i];
    const FrameworkPrediction p = framework_->predict(g, subgraph_adjacency(g));
    EXPECT_TRUE(p.tier == 0 || p.tier == 1);
    EXPECT_GE(p.confidence, 0.5);
    EXPECT_LE(p.confidence, 1.0);
    EXPECT_EQ(p.high_confidence, p.confidence >= framework_->tp_threshold());
  }
}

TEST_F(FrameworkTest, TierPredictorBeatsChanceOnTraining) {
  EXPECT_GT(tier_accuracy(framework_->tier_predictor(), data_->graphs), 0.7);
}

TEST_F(FrameworkTest, RefineMovesPredictedTierToTop) {
  const DesignContext ctx = design_->context();
  // Synthetic report: one candidate per tier.
  PinId bottom = kNullPin;
  PinId top = kNullPin;
  for (PinId p = 0; p < design_->netlist().num_pins() &&
                    (bottom == kNullPin || top == kNullPin);
       ++p) {
    const GateType type =
        design_->netlist().gate(design_->netlist().pin_gate(p)).type;
    if (type == GateType::kPrimaryInput || type == GateType::kPrimaryOutput) {
      continue;
    }
    (pin_tier(ctx, p) == kBottomTier ? bottom : top) = p;
  }
  ASSERT_NE(bottom, kNullPin);
  ASSERT_NE(top, kNullPin);

  DiagnosisReport report;
  Candidate cb;
  cb.fault = Fault::slow_to_rise(bottom);
  Candidate ct;
  ct.fault = Fault::slow_to_rise(top);
  report.candidates = {cb, ct};

  FrameworkPrediction prediction;
  prediction.tier = kTopTier;
  prediction.high_confidence = false;  // low confidence -> reorder only
  const auto pruned = framework_->refine_report(ctx, prediction, report);
  EXPECT_TRUE(pruned.empty());
  ASSERT_EQ(report.resolution(), 2);
  EXPECT_EQ(report.candidates[0].fault.pin, top);
}

TEST_F(FrameworkTest, RefinePrunesFaultFreeTierWhenConfident) {
  const DesignContext ctx = design_->context();
  DiagnosisReport report;
  std::int32_t bottom_count = 0;
  for (PinId p = 0; p < design_->netlist().num_pins() &&
                    report.resolution() < 6;
       ++p) {
    const GateType type =
        design_->netlist().gate(design_->netlist().pin_gate(p)).type;
    if (type == GateType::kPrimaryInput || type == GateType::kPrimaryOutput) {
      continue;
    }
    Candidate c;
    c.fault = Fault::slow_to_rise(p);
    report.candidates.push_back(c);
    if (pin_tier(ctx, p) == kBottomTier) ++bottom_count;
  }
  ASSERT_GT(bottom_count, 0);
  ASSERT_LT(bottom_count, report.resolution());

  FrameworkPrediction prediction;
  prediction.tier = kBottomTier;
  prediction.high_confidence = true;
  prediction.prune_prob = 0.99;
  DiagnosisReport refined = report;
  const auto pruned = framework_->refine_report(ctx, prediction, refined);
  EXPECT_EQ(refined.resolution(), bottom_count);
  EXPECT_EQ(static_cast<std::int32_t>(pruned.size()),
            report.resolution() - bottom_count);
  for (const Candidate& c : refined.candidates) {
    EXPECT_EQ(candidate_tier(ctx, c), kBottomTier);
  }
}

TEST_F(FrameworkTest, MivHitsAreProtectedAndPrioritized) {
  const DesignContext ctx = design_->context();
  ASSERT_GT(design_->mivs().num_mivs(), 0);
  const MivId miv = 0;
  const Miv& m = design_->mivs().miv(miv);
  const PinId miv_pin =
      design_->netlist().output_pin(design_->netlist().net(m.net).driver);
  const int miv_pin_tier = pin_tier(ctx, miv_pin);

  DiagnosisReport report;
  // A candidate in the (about to be) predicted-faulty tier, then the MIV pin.
  PinId other = kNullPin;
  for (PinId p = 0; p < design_->netlist().num_pins(); ++p) {
    const GateType type =
        design_->netlist().gate(design_->netlist().pin_gate(p)).type;
    if (type == GateType::kPrimaryInput || type == GateType::kPrimaryOutput) {
      continue;
    }
    if (pin_tier(ctx, p) == 1 - miv_pin_tier) {
      other = p;
      break;
    }
  }
  ASSERT_NE(other, kNullPin);
  Candidate c_other;
  c_other.fault = Fault::slow_to_rise(other);
  Candidate c_miv;
  c_miv.fault = Fault::slow_to_rise(miv_pin);
  report.candidates = {c_other, c_miv};

  // Confident prediction of the tier OPPOSITE to the MIV pin: without
  // protection the MIV-net candidate would be pruned.
  FrameworkPrediction prediction;
  prediction.tier = 1 - miv_pin_tier;
  prediction.high_confidence = true;
  prediction.prune_prob = 1.0;
  prediction.faulty_mivs = {miv};
  const auto pruned = framework_->refine_report(ctx, prediction, report);
  EXPECT_TRUE(pruned.empty());
  ASSERT_EQ(report.resolution(), 2);
  // The MIV-equivalent candidate is moved to the top.
  EXPECT_EQ(report.candidates[0].fault.pin, miv_pin);
}

TEST_F(FrameworkTest, PruningEverythingRestoresReport) {
  const DesignContext ctx = design_->context();
  DiagnosisReport report;
  Candidate c;
  PinId bottom = kNullPin;
  for (PinId p = 0; p < design_->netlist().num_pins(); ++p) {
    const GateType type =
        design_->netlist().gate(design_->netlist().pin_gate(p)).type;
    if (type != GateType::kPrimaryInput && type != GateType::kPrimaryOutput &&
        pin_tier(ctx, p) == kBottomTier) {
      bottom = p;
      break;
    }
  }
  c.fault = Fault::slow_to_rise(bottom);
  report.candidates = {c};
  FrameworkPrediction prediction;
  prediction.tier = kTopTier;  // would prune the only candidate
  prediction.high_confidence = true;
  prediction.prune_prob = 1.0;
  const auto pruned = framework_->refine_report(ctx, prediction, report);
  EXPECT_TRUE(pruned.empty());
  EXPECT_EQ(report.resolution(), 1);
}

// The chain's GNN suffix is exactly predict -> refine a copy of the base
// report -> calibrated confidence, and leaves the prefix untouched.
TEST_F(FrameworkTest, DiagnoseComposesPredictRefineConfidence) {
  const DesignContext ctx = design_->context();
  for (std::size_t i = 0; i < 6 && i < data_->size(); ++i) {
    const FailureLog& log = data_->samples[i].log;
    DiagnosisPrefix prefix = backtrace_prefix(*design_, log);
    prefix.base_report = diagnose_atpg(ctx, log);
    const DiagnosisReport base = prefix.base_report;

    const RefinedDiagnosis got = framework_->diagnose(ctx, prefix);

    FrameworkPrediction prediction =
        framework_->predict(prefix.subgraph, prefix.adjacency);
    DiagnosisReport report = base;
    const std::vector<Candidate> pruned =
        framework_->refine_report(ctx, prediction, report);
    prediction.pruned = !pruned.empty();
    const DiagnosisConfidence confidence =
        framework_->diagnosis_confidence(prefix.backtrace, &prediction);

    EXPECT_EQ(report_to_string(design_->netlist(), got.report),
              report_to_string(design_->netlist(), report));
    EXPECT_EQ(got.pruned.size(), pruned.size());
    EXPECT_EQ(got.prediction.tier, prediction.tier);
    EXPECT_EQ(got.prediction.pruned, prediction.pruned);
    EXPECT_EQ(got.prediction.faulty_mivs, prediction.faulty_mivs);
    EXPECT_DOUBLE_EQ(got.prediction.confidence, prediction.confidence);
    EXPECT_DOUBLE_EQ(got.confidence.combined, confidence.combined);
    EXPECT_EQ(got.confidence.low_confidence, confidence.low_confidence);
    EXPECT_EQ(report_to_string(design_->netlist(), prefix.base_report),
              report_to_string(design_->netlist(), base));
  }
}

TEST_F(FrameworkTest, UntrainedPredictThrows) {
  DiagnosisFramework fresh;
  EXPECT_THROW(fresh.predict(Subgraph{}, subgraph_adjacency(Subgraph{})),
               Error);
}

}  // namespace
}  // namespace m3dfl
