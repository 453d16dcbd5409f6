// Ablation: dummy-buffer oversampling for the prune/reorder Classifier
// (paper Sec. V-C).
//
// The Classifier's training set is extremely imbalanced (true-positive tier
// predictions vastly outnumber false positives).  This bench trains the
// Classifier with and without the graph-native dummy-buffer balancing and
// reports, on a held-out set of Predicted-Positive samples, the recall on
// the minority class (false positives — the samples whose pruning would
// destroy accuracy) alongside overall accuracy.
#include "bench_common.h"

#include "gnn/oversample.h"

using namespace m3dfl;

namespace {

struct ClassifierEval {
  double accuracy = 0.0;
  double minority_recall = 0.0;
};

ClassifierEval evaluate(const PruneClassifier& model,
                        const std::vector<Subgraph>& graphs,
                        const std::vector<int>& labels) {
  std::int32_t correct = 0;
  std::int32_t minority_total = 0;
  std::int32_t minority_hit = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Subgraph& g = graphs[i];
    const bool prune =
        model.predict_prune_prob(g, subgraph_adjacency(g)) >= 0.5;
    const bool truth = labels[i] == 1;
    if (prune == truth) ++correct;
    if (!truth) {
      ++minority_total;
      if (!prune) ++minority_hit;
    }
  }
  ClassifierEval eval;
  eval.accuracy = static_cast<double>(correct) / graphs.size();
  eval.minority_recall =
      minority_total == 0
          ? 1.0
          : static_cast<double>(minority_hit) / minority_total;
  return eval;
}

}  // namespace

int main() {
  bench::print_banner("Ablation: dummy-buffer oversampling for Classifier");
  ExperimentOptions opt = bench::standard_options(/*compacted=*/false);
  const ProfileExperiment experiment(Profile::kAes, opt);
  const TierPredictor& tp = experiment.framework().tier_predictor();
  const double tp_threshold = experiment.framework().tp_threshold();

  // Build the Predicted-Positive classifier dataset from fresh samples.
  DataGenOptions gen;
  gen.num_samples = 240;
  gen.seed = 606;
  const LabeledDataset data = build_dataset(experiment.syn1(), gen);
  std::vector<Subgraph> graphs;
  std::vector<int> labels;
  for (const Subgraph& g : data.graphs) {
    if (g.empty() || (g.tier_label != 0 && g.tier_label != 1)) continue;
    double confidence = 0.0;
    const int tier = tp.predicted_tier(g, subgraph_adjacency(g), &confidence);
    if (confidence < tp_threshold) continue;
    graphs.push_back(g);
    labels.push_back(tier == g.tier_label ? 1 : 0);
  }
  // Split train / held-out.
  const std::size_t split = graphs.size() * 2 / 3;
  std::vector<Subgraph> train_g(graphs.begin(),
                                graphs.begin() + static_cast<long>(split));
  std::vector<int> train_l(labels.begin(),
                           labels.begin() + static_cast<long>(split));
  const std::vector<Subgraph> test_g(
      graphs.begin() + static_cast<long>(split), graphs.end());
  const std::vector<int> test_l(labels.begin() + static_cast<long>(split),
                                labels.end());
  std::int32_t minority = 0;
  for (int l : train_l) minority += l == 0 ? 1 : 0;
  std::cout << "classifier dataset: " << graphs.size()
            << " Predicted-Positive samples, " << minority
            << " false positives in the training split (imbalance "
            << (minority == 0
                    ? std::string("inf")
                    : bench::fmt1(static_cast<double>(split - minority) /
                                  minority))
            << ":1)\n\n";

  TablePrinter table({"Training set", "Accuracy", "Minority recall"});
  {
    PruneClassifier model(tp);
    train_prune_classifier(model, train_g, train_l);
    const ClassifierEval e = evaluate(model, test_g, test_l);
    table.add_row({"imbalanced (no oversampling)", bench::pct(e.accuracy),
                   bench::pct(e.minority_recall)});
  }
  {
    std::vector<Subgraph> balanced_g = train_g;
    std::vector<int> balanced_l = train_l;
    Rng rng(77);
    balance_with_buffers(balanced_g, balanced_l, rng);
    PruneClassifier model(tp);
    train_prune_classifier(model, balanced_g, balanced_l);
    const ClassifierEval e = evaluate(model, test_g, test_l);
    table.add_row({"dummy-buffer balanced", bench::pct(e.accuracy),
                   bench::pct(e.minority_recall)});
  }
  table.print();
  std::cout << "\nMinority recall is what protects accuracy: a distorted "
               "classifier prunes false-positive predictions and removes "
               "the real defect from the report.\n";
  return 0;
}
