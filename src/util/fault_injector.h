// Deterministic fault injection, shared by the serving, registry and
// training chaos harnesses.
//
// Resilience is only a property you have if you can test it.  The injector
// is threaded through a subsystem's failure seams and decides, per call,
// whether that seam should fail.  Seams are dense ids from 0; each consumer
// names its own with an enum (serve::Seam, registry::RegistrySeam,
// TrainSeam) and passes it straight in, and may arm a seam with a `kind`
// enum that it reads back to decide how the failure shows (serve::FaultKind
// selects which typed error serve::maybe_throw raises).  Two trigger modes:
//
//   * probabilistic: arm(seam, p) — each call fails with probability p,
//     drawn from a per-seam xoshiro stream seeded from the injector seed.
//     The i-th call to a seam always sees the i-th draw, so the *number* of
//     triggers over N calls is a pure function of (seed, p, N) no matter how
//     threads interleave — which is what lets the chaos tests assert exact
//     accounting.
//   * scripted: arm_nth(seam, {3, 7}) — exactly the 3rd and 7th call fail.
//     Used to pin one specific failure ("kill training at epoch 3",
//     "first predict fails, retry succeeds") in unit tests.
#ifndef M3DFL_UTIL_FAULT_INJECTOR_H_
#define M3DFL_UTIL_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace m3dfl {

class FaultInjector {
 public:
  // `num_seams` is one more than the largest seam id the consumer uses.
  explicit FaultInjector(int num_seams, std::uint64_t seed = 0xC4A05u);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  int num_seams() const { return static_cast<int>(seams_.size()); }

  // A seam or a kind: a consumer's enum (or a plain int), as its id.
  struct Id {
    template <class E>
      requires std::is_enum_v<E> || std::is_integral_v<E>
    Id(E e) : value(static_cast<int>(e)) {}  // implicit on purpose
    int value;
  };

  // Arms a seam to fail each call with probability `probability`; `kind` is
  // reported back by kind().
  void arm(Id seam, double probability, Id kind = 0);
  // Arms a seam to fail exactly on the given 1-based call numbers.
  void arm_nth(Id seam, std::vector<std::uint64_t> calls, Id kind = 0);

  // Counts one call to `seam` and reports whether it should fail.
  bool should_fail(Id seam);

  template <class Kind>
  Kind kind(Id seam) const {
    return static_cast<Kind>(kind_value(seam));
  }
  std::int64_t calls(Id seam) const;
  std::int64_t triggered(Id seam) const;
  std::int64_t total_triggered() const;

 private:
  struct SeamState {
    double probability = 0.0;
    std::set<std::uint64_t> nth;  // 1-based scripted trigger calls
    int kind = 0;
    std::uint64_t num_calls = 0;
    std::uint64_t num_triggered = 0;
    Rng rng;
  };

  int kind_value(Id seam) const;
  SeamState& seam_at(Id seam);
  const SeamState& seam_at(Id seam) const;

  mutable std::mutex mu_;
  std::vector<SeamState> seams_;
};

}  // namespace m3dfl

#endif  // M3DFL_UTIL_FAULT_INJECTOR_H_
