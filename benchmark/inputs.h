// Workload inputs: the trained model artifact every service loads, and
// failure logs drawn from the run's seed.
#ifndef M3DFL_BENCHMARK_INPUTS_H_
#define M3DFL_BENCHMARK_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/pipeline.h"
#include "diag/datagen.h"

namespace m3dfl::benchmark {

// A trained framework, serialized as a service loads it, with what the
// offline path cost to produce it.
struct Model {
  std::string stream;           // DiagnosisFramework::save output
  LabeledDataset training_set;  // kept for the train-step measurement
  double datagen_s = 0.0;       // build_transfer_training_set wall time
  double train_s = 0.0;         // DiagnosisFramework::train wall time
};

// One offline job: builds the transfer training set on `syn1` (plus two
// random partitions) and trains a framework on it for `epochs` epochs.  The
// job is deterministic, so repeating it repeats identical work.
Model train_model(Profile profile, const Design& syn1,
                  const TransferTrainOptions& data, std::int32_t epochs);

// Draws `count` distinct failure logs (distinct as cache keys) from `seed`,
// none of which equals a log in `exclude`.
//
// A log's diagnosis cost depends mostly on how many patterns fail: a fault
// seen by one pattern leaves a large suspect set and costs ~50x a fault
// seen by nine.  Drawn independently, the few expensive logs make the
// work of two seeds differ by more than the regressions the benchmark must
// catch.  So the logs are drawn stratified: every prefix of the returned
// list holds the strata (by failing-pattern count, and MIV or gate fault)
// in the same shares as a reference draw at a fixed seed, to within one log
// per stratum, while the seed picks which dies fill each stratum and in
// which order.
std::vector<Sample> draw_logs(const DesignContext& ctx,
                              const DataGenOptions& options,
                              std::int32_t count, std::uint64_t seed,
                              const std::vector<Sample>& exclude = {});

// splitmix64 finalizer: derives independent seeds from (seed, stream).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace m3dfl::benchmark

#endif  // M3DFL_BENCHMARK_INPUTS_H_
