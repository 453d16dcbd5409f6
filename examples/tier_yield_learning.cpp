// Yield-learning scenario: the paper's motivating use case (Sec. I).
//
// An immature M3D process produces a stream of failing dies whose defects
// cluster in one tier (here: systematic top-tier damage from low-temperature
// transistor processing, plus background defects in both tiers).  The
// framework's Tier-predictor gives the foundry a per-die tier verdict
// *without waiting for physical failure analysis*; aggregated over the lot,
// the verdicts expose the systematic problem within one test insertion.
#include <iostream>

#include "core/experiment.h"
#include "util/table.h"

using namespace m3dfl;

int main() {
  std::cout << "== m3dfl yield-learning example ==\n\n";

  // Build and train once per technology bring-up (netcard profile).
  ExperimentOptions opt;
  opt.train.samples_syn1 = 160;
  opt.train.samples_per_random = 80;
  std::cout << "training the transferable framework on netcard/Syn-1...\n";
  const ProfileExperiment experiment(Profile::kNetcard, opt);
  const Design& design = experiment.syn1();

  // Simulate one production lot: 70% of failing dies carry top-tier defects
  // (the systematic process problem), 30% are background bottom-tier fails.
  // We emulate the skew by regenerating until the mix matches.
  Rng rng(20260706);
  DataGenOptions gen;
  gen.num_samples = 120;
  gen.seed = rng.next_u64();
  LabeledDataset lot = build_dataset(design, gen);
  std::int32_t forced_top = 0;
  for (std::size_t i = 0; i < lot.size(); ++i) {
    // Re-draw bottom-tier dies with fresh seeds until ~70% are top-tier.
    if (lot.samples[i].fault_tier == kBottomTier &&
        forced_top * 10 < static_cast<std::int32_t>(lot.size()) * 4) {
      DataGenOptions regen;
      regen.num_samples = 1;
      regen.seed = rng.next_u64();
      LabeledDataset one = build_dataset(design, regen);
      if (one.samples[0].fault_tier == kTopTier) {
        lot.samples[i] = std::move(one.samples[0]);
        lot.graphs[i] = std::move(one.graphs[0]);
        ++forced_top;
      }
    }
  }

  // Per-die tier verdicts from the GNN alone (no PFA, no report analysis).
  std::int32_t votes[2] = {0, 0};
  std::int32_t truth[2] = {0, 0};
  std::int32_t correct = 0;
  std::int32_t high_confidence = 0;
  for (std::size_t i = 0; i < lot.size(); ++i) {
    const Subgraph& g = lot.graphs[i];
    const FrameworkPrediction p =
        experiment.framework().predict(g, subgraph_adjacency(g));
    ++votes[p.tier];
    if (lot.samples[i].fault_tier >= 0) {
      ++truth[lot.samples[i].fault_tier];
      if (p.tier == lot.samples[i].fault_tier) ++correct;
    }
    if (p.high_confidence) ++high_confidence;
  }

  TablePrinter table({"", "Bottom tier", "Top tier"});
  table.add_row({"GNN verdicts",
                 std::to_string(votes[0]), std::to_string(votes[1])});
  table.add_row({"Ground truth",
                 std::to_string(truth[0]), std::to_string(truth[1])});
  table.print();

  const double top_share =
      static_cast<double>(votes[1]) / static_cast<double>(lot.size());
  std::cout << "\nper-die tier accuracy: "
            << TablePrinter::pct(static_cast<double>(correct) /
                                 static_cast<double>(lot.size()))
            << ", high-confidence verdicts: " << high_confidence << "/"
            << lot.size() << "\n";
  std::cout << "lot-level verdict: " << TablePrinter::pct(top_share)
            << " of failing dies localize to the TOP tier";
  if (top_share > 0.6) {
    std::cout << " -> systematic top-tier process issue flagged; review "
                 "low-temperature transistor steps before running PFA.\n";
  } else {
    std::cout << " -> no tier-systematic signature.\n";
  }
  return 0;
}
