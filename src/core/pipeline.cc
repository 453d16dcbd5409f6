#include "core/pipeline.h"

namespace m3dfl {

void LabeledDataset::append(LabeledDataset&& other) {
  samples.insert(samples.end(),
                 std::make_move_iterator(other.samples.begin()),
                 std::make_move_iterator(other.samples.end()));
  graphs.insert(graphs.end(), std::make_move_iterator(other.graphs.begin()),
                std::make_move_iterator(other.graphs.end()));
}

DiagnosisPrefix backtrace_prefix(const Design& design, const FailureLog& log,
                                 const BacktraceResult* streamed) {
  DiagnosisPrefix prefix;
  prefix.backtrace =
      streamed != nullptr
          ? *streamed
          : backtrace_with_support(design.graph(), design.context(), log);
  prefix.subgraph =
      extract_subgraph(design.graph(), prefix.backtrace.candidates);
  prefix.adjacency = subgraph_adjacency(prefix.subgraph);
  return prefix;
}

LabeledDataset build_dataset(const Design& design,
                             const DataGenOptions& options) {
  LabeledDataset data;
  data.samples = generate_samples(design.context(), options);
  data.graphs.reserve(data.samples.size());
  for (const Sample& sample : data.samples) {
    Subgraph sg = backtrace_prefix(design, sample.log).subgraph;
    label_subgraph(sg, sample);
    data.graphs.push_back(std::move(sg));
  }
  return data;
}

LabeledDataset build_transfer_training_set(
    Profile profile, const Design& syn1,
    const TransferTrainOptions& options) {
  DataGenOptions gen;
  gen.num_samples = options.samples_syn1;
  gen.miv_fault_prob = options.miv_fault_prob;
  gen.compacted = options.compacted;
  gen.seed = options.seed;
  LabeledDataset data = build_dataset(syn1, gen);

  for (std::uint64_t k = 0; k < 2; ++k) {
    const std::unique_ptr<Design> random =
        Design::build_random_partition(profile, options.seed + 31 * (k + 1));
    DataGenOptions rgen = gen;
    rgen.num_samples = options.samples_per_random;
    rgen.seed = options.seed ^ (0xA5A5u + k);
    data.append(build_dataset(*random, rgen));
  }
  return data;
}

}  // namespace m3dfl
