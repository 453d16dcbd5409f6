#include "inputs.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <sstream>
#include <unordered_set>

#include "diag/log_io.h"

namespace m3dfl::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::int32_t kNumStrata = 10;
// Seed of the reference draw that fixes the stratum mix.
constexpr std::uint64_t kMixSeed = 0x5EED0F5A;
// Pool chunks drawn before a stratum the seed cannot fill is given up.
constexpr std::int32_t kMaxChunks = 8;

// Gate faults by failing-pattern count 1, 2, 3, 4, 5-8, 9+ (strata 1-6);
// MIV faults by 1, 2-8, 9+ (7-9): a design has few MIVs, so finer MIV
// strata would hold only a handful of distinct logs.
std::int32_t stratum(const Sample& s) {
  const std::int32_t fp = s.log.num_failing_patterns();
  if (s.fault_tier == kMivTier) return fp == 1 ? 7 : (fp <= 8 ? 8 : 9);
  return fp <= 4 ? fp : (fp <= 8 ? 5 : 6);
}

// Appends the samples of `gen` whose logs are not in `seen` to their
// strata.
void add_distinct(const DesignContext& ctx, const DataGenOptions& gen,
                  std::unordered_set<std::string>& seen,
                  std::array<std::deque<Sample>, kNumStrata>& strata) {
  for (Sample& s : generate_samples(ctx, gen)) {
    if (seen.insert(failure_log_to_string(s.log)).second) {
      strata[stratum(s)].push_back(std::move(s));
    }
  }
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Model train_model(Profile profile, const Design& syn1,
                  const TransferTrainOptions& data, std::int32_t epochs) {
  Model model;
  Clock::time_point t0 = Clock::now();
  model.training_set = build_transfer_training_set(profile, syn1, data);
  model.datagen_s = seconds_since(t0);

  FrameworkOptions options;
  options.training.epochs = epochs;
  DiagnosisFramework framework(options);
  t0 = Clock::now();
  framework.train(model.training_set.graphs);
  model.train_s = seconds_since(t0);

  std::ostringstream os;
  framework.save(os);
  model.stream = os.str();
  return model;
}

std::vector<Sample> draw_logs(const DesignContext& ctx,
                              const DataGenOptions& options,
                              std::int32_t count, std::uint64_t seed,
                              const std::vector<Sample>& exclude) {
  // Many faults are equivalent and yield the same log, so the mix is that
  // of the distinct logs in a reference draw of the size a seed draws.
  DataGenOptions gen = options;
  gen.num_samples = std::max(count, 64);
  std::array<double, kNumStrata> share{};
  {
    std::unordered_set<std::string> seen;
    std::array<std::deque<Sample>, kNumStrata> mix;
    gen.seed = kMixSeed;
    add_distinct(ctx, gen, seen, mix);
    for (std::int32_t k = 0; k < kNumStrata; ++k) {
      share[k] = static_cast<double>(mix[k].size()) /
                 static_cast<double>(seen.size());
    }
  }

  std::array<std::deque<Sample>, kNumStrata> pool;
  std::unordered_set<std::string> seen;
  for (const Sample& s : exclude) seen.insert(failure_log_to_string(s.log));
  std::int32_t chunks = 0;
  const auto draw_chunk = [&] {
    gen.seed = mix_seed(seed, static_cast<std::uint64_t>(chunks++));
    add_distinct(ctx, gen, seen, pool);
  };
  draw_chunk();

  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  std::array<std::int32_t, kNumStrata> taken{};
  while (static_cast<std::int32_t>(out.size()) < count) {
    // The stratum furthest behind its share of the list so far.
    const double next = static_cast<double>(out.size() + 1);
    std::int32_t best = -1;
    for (std::int32_t k = 0; k < kNumStrata; ++k) {
      if (share[k] <= 0.0) continue;
      if (best < 0 ||
          share[k] * next - taken[k] > share[best] * next - taken[best]) {
        best = k;
      }
    }
    M3DFL_REQUIRE(best >= 0, "no failure log could be drawn");
    while (pool[best].empty() && chunks < kMaxChunks) draw_chunk();
    if (pool[best].empty()) {
      share[best] = 0.0;  // the seed cannot fill this stratum; drop it
      continue;
    }
    out.push_back(std::move(pool[best].front()));
    pool[best].pop_front();
    ++taken[best];
  }
  return out;
}

}  // namespace m3dfl::benchmark
