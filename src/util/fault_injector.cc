#include "util/fault_injector.h"

#include <utility>

#include "util/error.h"

namespace m3dfl {

FaultInjector::FaultInjector(int num_seams, std::uint64_t seed) {
  M3DFL_REQUIRE(num_seams > 0, "fault injector needs at least one seam");
  seams_.resize(static_cast<std::size_t>(num_seams));
  // Each seam draws from its own stream, so arming or exercising one seam
  // never perturbs another's trigger sequence.
  for (int s = 0; s < num_seams; ++s) {
    seams_[static_cast<std::size_t>(s)].rng.reseed(
        seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(s + 1)));
  }
}

FaultInjector::SeamState& FaultInjector::seam_at(Id seam) {
  M3DFL_REQUIRE(seam.value >= 0 && seam.value < num_seams(),
                "fault injector seam " + std::to_string(seam.value) +
                    " out of range [0, " + std::to_string(num_seams()) + ")");
  return seams_[static_cast<std::size_t>(seam.value)];
}

const FaultInjector::SeamState& FaultInjector::seam_at(Id seam) const {
  return const_cast<FaultInjector*>(this)->seam_at(seam);
}

void FaultInjector::arm(Id seam, double probability, Id kind) {
  M3DFL_REQUIRE(probability >= 0.0 && probability <= 1.0,
                "fault probability must be in [0, 1]");
  std::lock_guard<std::mutex> lock(mu_);
  SeamState& state = seam_at(seam);
  state.probability = probability;
  state.kind = kind.value;
}

void FaultInjector::arm_nth(Id seam, std::vector<std::uint64_t> calls,
                            Id kind) {
  std::lock_guard<std::mutex> lock(mu_);
  SeamState& state = seam_at(seam);
  state.nth = std::set<std::uint64_t>(calls.begin(), calls.end());
  M3DFL_REQUIRE(state.nth.count(0) == 0, "scripted trigger calls are 1-based");
  state.kind = kind.value;
}

bool FaultInjector::should_fail(Id seam) {
  std::lock_guard<std::mutex> lock(mu_);
  SeamState& state = seam_at(seam);
  ++state.num_calls;
  bool fail = state.nth.count(state.num_calls) > 0;
  if (!fail && state.probability > 0.0) {
    // One draw per call: the i-th call always sees the i-th variate, so the
    // trigger count over N calls is interleaving-independent.
    fail = state.rng.next_double() < state.probability;
  }
  if (fail) ++state.num_triggered;
  return fail;
}

int FaultInjector::kind_value(Id seam) const {
  std::lock_guard<std::mutex> lock(mu_);
  return seam_at(seam).kind;
}

std::int64_t FaultInjector::calls(Id seam) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(seam_at(seam).num_calls);
}

std::int64_t FaultInjector::triggered(Id seam) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(seam_at(seam).num_triggered);
}

std::int64_t FaultInjector::total_triggered() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const SeamState& state : seams_) {
    total += static_cast<std::int64_t>(state.num_triggered);
  }
  return total;
}

}  // namespace m3dfl
