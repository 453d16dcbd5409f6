// Quickstart: the full m3dfl flow on one small M3D design.
//
//   1. Build a benchmark design (netlist -> tiers -> MIVs -> scan -> ATPG
//      patterns -> good-machine simulation -> heterogeneous graph).
//   2. Generate labeled failure logs by fault injection and train the
//      GNN framework (Tier-predictor, MIV-pinpointer, Classifier).
//   3. Diagnose a fresh failing die: run ATPG-style diagnosis, predict the
//      faulty tier and MIVs, and prune/reorder the candidate report.
#include <cstdio>
#include <iostream>

#include "core/experiment.h"

using namespace m3dfl;

int main() {
  std::cout << "== m3dfl quickstart ==\n\n";

  // 1. Build the AES profile in its baseline (Syn-1) configuration.
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  std::cout << "design " << design->name() << ": "
            << design->netlist().num_logic_gates() << " gates, "
            << design->mivs().num_mivs() << " MIVs, "
            << design->scan().num_chains() << " scan chains, "
            << design->atpg().patterns.num_patterns << " TDF patterns ("
            << design->atpg().coverage() * 100.0 << "% fault coverage)\n";
  std::cout << "hetero graph: " << design->graph().num_nodes() << " nodes, "
            << design->graph().num_edges() << " edges, "
            << design->graph().num_topnodes() << " Topnodes\n\n";

  // 2. Train the framework on injected-fault samples (Syn-1 + two randomly
  //    partitioned netlists, the paper's data augmentation).
  TransferTrainOptions train_options;
  train_options.samples_syn1 = 80;
  train_options.samples_per_random = 40;
  const LabeledDataset train =
      build_transfer_training_set(Profile::kAes, *design, train_options);
  std::cout << "training set: " << train.size() << " labeled failure logs\n";

  DiagnosisFramework framework;
  framework.train(train.graphs);
  std::cout << "trained; PR-derived pruning threshold T_P = "
            << framework.tp_threshold() << "\n\n";

  // 3. Diagnose a fresh failing die.
  DataGenOptions gen;
  gen.num_samples = 1;
  gen.seed = 12345;
  const LabeledDataset test = build_dataset(*design, gen);
  const Sample& sample = test.samples[0];
  std::cout << "injected defect: "
            << fault_to_string(design->netlist(), sample.faults[0])
            << " (tier " << sample.fault_tier << "), failure log has "
            << sample.log.num_failing_bits() << " failing bits over "
            << sample.log.num_failing_patterns() << " patterns\n\n";

  // The chain's prefix (back-trace -> subgraph -> adjacency, then ATPG
  // diagnosis) and its GNN suffix (predict -> prune/reorder -> confidence).
  const DesignContext ctx = design->context();
  DiagnosisPrefix prefix = backtrace_prefix(*design, sample.log);
  prefix.base_report = diagnose_atpg(ctx, sample.log);
  std::cout << "ATPG "
            << report_to_string(design->netlist(), prefix.base_report, 8);

  const RefinedDiagnosis diagnosis = framework.diagnose(ctx, prefix);
  const FrameworkPrediction& prediction = diagnosis.prediction;
  const DiagnosisReport& report = diagnosis.report;
  std::cout << "\nGNN prediction: tier " << prediction.tier
            << " (confidence " << prediction.confidence << ", "
            << (prediction.high_confidence ? "high" : "low")
            << " confidence), " << prediction.faulty_mivs.size()
            << " MIV(s) flagged, "
            << (prediction.pruned ? "pruned" : "reordered") << "\n";
  std::cout << "refined " << report_to_string(design->netlist(), report, 8);

  const SampleEvaluation eval = evaluate_report(ctx, report, sample);
  std::cout << "\nresult: resolution=" << eval.resolution
            << " accurate=" << (eval.accurate ? "yes" : "no")
            << " first-hit-index=" << eval.fhi << "\n";
  return 0;
}
