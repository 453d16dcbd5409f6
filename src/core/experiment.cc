#include "core/experiment.h"

#include <chrono>

namespace m3dfl {
namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

LabeledDataset build_test_set(const Design& design,
                              const ExperimentOptions& options) {
  DataGenOptions gen;
  gen.num_samples = options.test_samples;
  gen.compacted = options.compacted;
  gen.miv_fault_prob = options.test_miv_prob;
  gen.seed = options.test_seed;
  return build_dataset(design, gen);
}

ProfileExperiment::ProfileExperiment(Profile profile,
                                     const ExperimentOptions& options)
    : profile_(profile), options_(options), framework_(options.framework) {
  syn1_ = Design::build(profile, DesignConfig::kSyn1);

  TransferTrainOptions train = options.train;
  train.compacted = options.compacted;
  auto t0 = std::chrono::steady_clock::now();
  training_set_ = build_transfer_training_set(profile, *syn1_, train);
  datagen_seconds_ = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  framework_.train(training_set_.graphs);
  training_seconds_ = seconds_since(t0);
}

ConfigResult ProfileExperiment::evaluate(DesignConfig config) const {
  if (config == DesignConfig::kSyn1) {
    return evaluate_on(*syn1_, build_test_set(*syn1_, options_));
  }
  const std::unique_ptr<Design> design = Design::build(profile_, config);
  ConfigResult result = evaluate_on(*design, build_test_set(*design, options_));
  result.config = config_name(config);
  return result;
}

ConfigResult ProfileExperiment::evaluate_on(const Design& design,
                                            const LabeledDataset& test) const {
  const DesignContext ctx = design.context();
  ConfigResult result;
  result.profile = profile_name(profile_);
  result.config = "Syn-1";
  BackupDictionary backup;

  for (std::size_t i = 0; i < test.size(); ++i) {
    const Sample& sample = test.samples[i];

    // Raw ATPG diagnosis.
    auto t0 = std::chrono::steady_clock::now();
    const DiagnosisReport atpg_report =
        diagnose_atpg(ctx, sample.log, options_.diagnosis);
    result.t_atpg += seconds_since(t0);
    const SampleEvaluation atpg_eval =
        evaluate_report(ctx, atpg_report, sample);
    result.atpg.add(atpg_eval);
    result.fhi_atpg.push_back(atpg_eval.fhi);

    // The GNN branch runs in parallel with ATPG diagnosis on a deployment
    // tester; here we time it separately (Fig. 9).
    t0 = std::chrono::steady_clock::now();
    const DiagnosisPrefix prefix = backtrace_prefix(design, sample.log);
    const FrameworkPrediction prediction =
        framework_.predict(prefix.subgraph, prefix.adjacency);
    result.t_gnn += seconds_since(t0);

    // Tier-localization eligibility: reports the ATPG run did not already
    // confine to one tier.
    const bool eligible = !atpg_eval.single_tier;

    // Baseline [11] standalone.
    {
      const DiagnosisReport refined = padre_first_level(atpg_report);
      const SampleEvaluation eval = evaluate_report(ctx, refined, sample);
      result.baseline.stats.add(eval);
      if (eligible) {
        ++result.baseline.eligible;
        if (eval.tier_localized) ++result.baseline.localized;
      }
    }

    // Proposed framework standalone, then stacked with [11].
    {
      DiagnosisReport refined = atpg_report;
      t0 = std::chrono::steady_clock::now();
      std::vector<Candidate> pruned =
          framework_.refine_report(ctx, prediction, refined);
      result.t_update += seconds_since(t0);
      backup.record(static_cast<std::int32_t>(i), std::move(pruned));

      const SampleEvaluation eval = evaluate_report(ctx, refined, sample);
      result.gnn.stats.add(eval);
      result.fhi_updated.push_back(eval.fhi);

      t0 = std::chrono::steady_clock::now();
      const DiagnosisReport stacked = padre_first_level(refined);
      result.t_update += seconds_since(t0);
      const SampleEvaluation eval_plus = evaluate_report(ctx, stacked, sample);
      result.gnn_plus.stats.add(eval_plus);

      // GNN-based tier localization comes from the Tier-predictor itself.
      if (eligible) {
        ++result.gnn.eligible;
        ++result.gnn_plus.eligible;
        if (prediction.tier == sample.fault_tier) {
          ++result.gnn.localized;
          ++result.gnn_plus.localized;
        }
      }
    }
  }
  result.backup_bytes = backup.size_bytes();
  return result;
}

std::vector<TransferabilityRow> evaluate_transferability(
    Profile profile, const ExperimentOptions& options) {
  // Transferred framework: trained once on Syn-1 + random partitions.
  ProfileExperiment experiment(profile, options);

  // MIV accuracy needs MIV-fault samples in the test sets.
  ExperimentOptions test_options = options;
  test_options.test_miv_prob = 0.3;

  std::vector<TransferabilityRow> rows;
  for (DesignConfig config : all_configs()) {
    const std::unique_ptr<Design> design =
        config == DesignConfig::kSyn1 ? nullptr
                                      : Design::build(profile, config);
    const Design& d = design ? *design : experiment.syn1();
    const LabeledDataset test = build_test_set(d, test_options);

    // Dedicated models: trained on this configuration's own samples.
    DataGenOptions gen;
    gen.num_samples = options.train.samples_syn1;
    gen.compacted = options.compacted;
    gen.miv_fault_prob = options.train.miv_fault_prob;
    gen.seed = options.train.seed ^ 0xDD;
    const LabeledDataset dedicated_train = build_dataset(d, gen);
    DiagnosisFramework dedicated(options.framework);
    dedicated.train(dedicated_train.graphs);

    TransferabilityRow row;
    row.config = config_name(config);
    row.dedicated_tier_acc =
        tier_accuracy(dedicated.tier_predictor(), test.graphs);
    row.transferred_tier_acc =
        tier_accuracy(experiment.framework().tier_predictor(), test.graphs);
    row.dedicated_miv_acc =
        miv_accuracy(dedicated.miv_pinpointer(), test.graphs);
    row.transferred_miv_acc =
        miv_accuracy(experiment.framework().miv_pinpointer(), test.graphs);
    rows.push_back(row);
  }
  return rows;
}

MultiFaultResult evaluate_multifault(Profile profile,
                                     const ExperimentOptions& options) {
  // Train on Syn-1 with 2-5 same-tier TDFs per sample (paper Sec. VII-A).
  const std::unique_ptr<Design> syn1 = Design::build(profile, DesignConfig::kSyn1);
  DataGenOptions gen;
  gen.num_samples = options.train.samples_syn1;
  gen.min_faults = 2;
  gen.max_faults = 5;
  gen.compacted = options.compacted;
  gen.seed = options.train.seed;
  const LabeledDataset train = build_dataset(*syn1, gen);

  DiagnosisFramework framework(options.framework);
  framework.train(train.graphs);

  // Test on Syn-2 (transferability under systematic defects).
  const std::unique_ptr<Design> syn2 = Design::build(profile, DesignConfig::kSyn2);
  DataGenOptions tgen = gen;
  tgen.num_samples = options.test_samples;
  tgen.seed = options.test_seed;
  const LabeledDataset test = build_dataset(*syn2, tgen);
  const DesignContext ctx = syn2->context();

  MultiFaultResult result;
  result.profile = profile_name(profile);
  std::int32_t tier_correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const Sample& sample = test.samples[i];
    const DiagnosisReport report =
        diagnose_atpg(ctx, sample.log, options.diagnosis);
    result.atpg.add(evaluate_report(ctx, report, sample));

    const Subgraph& g = test.graphs[i];
    const FrameworkPrediction prediction =
        framework.predict(g, subgraph_adjacency(g));
    DiagnosisReport refined = report;
    framework.refine_report(ctx, prediction, refined);
    result.refined.add(evaluate_report(ctx, refined, sample));
    if (prediction.tier == sample.fault_tier) ++tier_correct;
  }
  result.tier_localization =
      test.size() == 0 ? 0.0
                       : static_cast<double>(tier_correct) /
                             static_cast<double>(test.size());
  return result;
}

AblationResult evaluate_individual_models(Profile profile,
                                          const ExperimentOptions& options) {
  ProfileExperiment experiment(profile, options);
  const Design& design = experiment.syn1();
  const DesignContext ctx = design.context();

  // Test set augmented by ~10% MIV-fault samples (paper Sec. VII-B).
  ExperimentOptions test_options = options;
  test_options.test_miv_prob = 0.1;
  const LabeledDataset test = build_test_set(design, test_options);
  const DiagnosisFramework& fw = experiment.framework();

  AblationResult result;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const Sample& sample = test.samples[i];
    const DiagnosisReport report =
        diagnose_atpg(ctx, sample.log, options.diagnosis);
    result.atpg.add(evaluate_report(ctx, report, sample));

    const Subgraph& g = test.graphs[i];
    const FrameworkPrediction prediction = fw.predict(g, subgraph_adjacency(g));

    // Tier-predictor standalone: ignore the MIV-pinpointer output.
    {
      FrameworkPrediction tier_only = prediction;
      tier_only.faulty_mivs.clear();
      DiagnosisReport refined = report;
      fw.refine_report(ctx, tier_only, refined);
      result.tier_only.add(evaluate_report(ctx, refined, sample));
    }
    // MIV-pinpointer standalone: only move MIV hits to the top.
    {
      DiagnosisReport refined = report;
      move_to_top(refined, [&](const Candidate& c) {
        for (MivId miv : prediction.faulty_mivs) {
          if (c.fault.is_miv() && c.fault.miv == miv) return true;
          if (!c.fault.is_miv() &&
              ctx.netlist->pin_net(c.fault.pin) == ctx.mivs->miv(miv).net) {
            return true;
          }
        }
        return false;
      });
      result.miv_only.add(evaluate_report(ctx, refined, sample));
    }
    // Full policy.
    {
      DiagnosisReport refined = report;
      fw.refine_report(ctx, prediction, refined);
      result.combined.add(evaluate_report(ctx, refined, sample));
    }
  }
  return result;
}

}  // namespace m3dfl
