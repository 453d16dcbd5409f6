// Tester-noise model: seeded, deterministic perturbation of failure logs.
//
// Real failure logs are not the clean fault-simulation output the rest of
// the pipeline is trained on.  Four failure modes dominate on actual ATE:
//
//  * drop      — an intermittent delay fault near threshold passes on the
//                tester retest, so a genuinely failing response never makes
//                it into the log;
//  * spurious  — a flipped bit in the tester's fail memory invents a failing
//                response at an observation point the defect never reached;
//  * flip      — the failing value is real but its recorded *address* is
//                corrupted, moving the response to a neighbouring
//                observation point;
//  * truncate  — the fail store has a fixed per-pattern depth, so every
//                pattern's failing-bit list is clipped at the same cap
//                (distinct from make_failure_log()'s pattern_limit, which
//                models the stop-on-Nth-failing-*pattern* limit).
//
// LogNoiseModel applies one of these modes to a FailureLog with a seeded
// util::FaultInjector seam per mode, so a perturbation is a pure function of
// (seed, options, log): chaos tests can replay the exact same corruption,
// and the CLI can reproduce a noisy run from its recorded seed.  Rate 0 (or
// kind kNone) returns the log byte-identical — the noise layer being armed
// but quiet must never change a diagnosis.
#ifndef M3DFL_DIAG_NOISE_H_
#define M3DFL_DIAG_NOISE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "diag/datagen.h"
#include "diag/failure_log.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace m3dfl {

enum class NoiseKind {
  kNone = 0,
  kDropResponse,
  kSpuriousResponse,
  kFlipBit,
  kTruncateStore,
};

// Stable short names ("none", "drop", "spurious", "flip", "truncate") used
// by the CLI and in reports.
const char* noise_kind_name(NoiseKind kind);
// Inverse of noise_kind_name; throws M3dflError on an unknown name.
NoiseKind parse_noise_kind(std::string_view text);
// All perturbing kinds (everything but kNone), for sweeps.
inline constexpr NoiseKind kAllNoiseKinds[] = {
    NoiseKind::kDropResponse,
    NoiseKind::kSpuriousResponse,
    NoiseKind::kFlipBit,
    NoiseKind::kTruncateStore,
};

struct NoiseOptions {
  NoiseKind kind = NoiseKind::kNone;
  // Per-response perturbation probability (drop/spurious/flip).  For
  // kTruncateStore it is the severity used to derive the store depth when
  // store_depth == 0: depth = ceil((1 - rate) * max per-pattern bits).
  double rate = 0.0;
  std::uint64_t seed = 0xD1E5EEDull;
  // kTruncateStore only: explicit per-pattern failing-bit cap (the tester's
  // fail-store depth).  0 derives the cap from `rate`.
  std::int32_t store_depth = 0;
};

// What a perturbation actually did (exact accounting, like the injector's
// triggered() counts — chaos tests assert against these).
struct NoiseSummary {
  std::int32_t dropped = 0;    // responses removed (drop kind)
  std::int32_t injected = 0;   // spurious responses added
  std::int32_t flipped = 0;    // responses moved to another observation point
  std::int32_t truncated = 0;  // bits clipped by the simulated store depth
  std::int32_t total() const { return dropped + injected + flipped + truncated; }
};

// Seeded log perturbation.  The injector seams advance across perturb()
// calls (i-th call to a seam sees the i-th draw); construct one model per
// log when per-log reproducibility is wanted.
class LogNoiseModel {
 public:
  // `design` must outlive the model; spurious/flip draws use its scan
  // chains, compactor, and primary outputs to stay at valid observation
  // points (corrupt-but-parseable logs, so the noise reaches the back-trace
  // instead of dying in input validation).
  LogNoiseModel(const DesignContext& design, const NoiseOptions& options);

  // Returns the perturbed copy of `log`.  kNone/rate-0 (with no explicit
  // store depth) returns `log` unchanged.
  FailureLog perturb(const FailureLog& log);

  // Accumulated counts over every perturb() call so far.
  const NoiseSummary& summary() const { return summary_; }
  const FaultInjector& injector() const { return injector_; }
  const NoiseOptions& options() const { return options_; }

 private:
  // Injector seams, one per perturbing kind.
  enum Seam : int { kDropSeam = 0, kSpuriousSeam, kFlipSeam, kNumSeams };

  bool quiet() const;
  // Uniform draw in [0, n) from the value stream.
  std::int32_t draw_below(std::int32_t n);
  FailureLog drop_responses(const FailureLog& log);
  FailureLog inject_spurious(const FailureLog& log);
  FailureLog flip_bits(const FailureLog& log);
  FailureLog truncate_store(const FailureLog& log);

  const DesignContext& design_;
  NoiseOptions options_;
  FaultInjector injector_;
  Rng value_rng_;  // observation-point draws for spurious/flip
  NoiseSummary summary_;
};

// One-shot convenience wrapper around LogNoiseModel.
FailureLog perturb_failure_log(const FailureLog& log,
                               const DesignContext& design,
                               const NoiseOptions& options,
                               NoiseSummary* summary = nullptr);

}  // namespace m3dfl

#endif  // M3DFL_DIAG_NOISE_H_
