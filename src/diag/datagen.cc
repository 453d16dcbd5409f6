#include "diag/datagen.h"

#include <algorithm>

#include "util/rng.h"

namespace m3dfl {
namespace {

void check_context(const DesignContext& d, bool needs_compactor) {
  M3DFL_REQUIRE(d.netlist != nullptr && d.tiers != nullptr &&
                    d.mivs != nullptr && d.scan != nullptr &&
                    d.patterns != nullptr && d.good != nullptr,
                "incomplete design context");
  M3DFL_REQUIRE(!needs_compactor || d.compactor != nullptr,
                "compacted data generation requires a compactor");
}

}  // namespace

int pin_tier(const DesignContext& design, PinId pin) {
  return design.tiers->tier_of(design.netlist->pin_gate(pin));
}

std::vector<Sample> generate_samples(const DesignContext& design,
                                     const DataGenOptions& options) {
  check_context(design, options.compacted);
  M3DFL_REQUIRE(options.min_faults >= 1 &&
                    options.max_faults >= options.min_faults,
                "invalid fault-count range");
  const Netlist& nl = *design.netlist;
  Rng rng(options.seed);
  FaultSimulator fsim(nl, *design.good, design.mivs);

  // Injectable TDF sites: pins of logic gates and flops, grouped by tier.
  // Package-port pseudo-cell pins are excluded: fabrication defects live in
  // the device tiers.
  std::vector<PinId> pins_by_tier[kNumTiers];
  for (PinId p = 0; p < nl.num_pins(); ++p) {
    const GateType type = nl.gate(nl.pin_gate(p)).type;
    if (type == GateType::kPrimaryInput || type == GateType::kPrimaryOutput) {
      continue;
    }
    pins_by_tier[pin_tier(design, p)].push_back(p);
  }
  M3DFL_REQUIRE(!pins_by_tier[kBottomTier].empty() &&
                    !pins_by_tier[kTopTier].empty(),
                "a tier has no injectable fault sites");

  const XorCompactor* compactor =
      options.compacted ? design.compactor : nullptr;

  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(options.num_samples));
  while (static_cast<std::int32_t>(samples.size()) < options.num_samples) {
    Sample sample;
    bool ok = false;
    for (std::int32_t attempt = 0; attempt < options.max_attempts && !ok;
         ++attempt) {
      sample.faults.clear();
      sample.faulty_mivs.clear();

      if (design.mivs->num_mivs() > 0 && rng.next_bool(options.miv_fault_prob)) {
        const MivId miv = static_cast<MivId>(
            rng.next_below(static_cast<std::uint64_t>(design.mivs->num_mivs())));
        sample.faults.push_back(Fault::miv_delay(miv));
        sample.faulty_mivs.push_back(miv);
        sample.fault_tier = kMivTier;
      } else {
        const auto k = static_cast<std::int32_t>(
            rng.next_int(options.min_faults, options.max_faults));
        const int tier =
            rng.next_bool() ? kTopTier : kBottomTier;
        sample.fault_tier = tier;
        const auto& pool = pins_by_tier[tier];
        for (std::int32_t i = 0; i < k; ++i) {
          // Distinct pins within one sample.
          PinId pin;
          do {
            pin = rng.pick(pool);
          } while (std::any_of(sample.faults.begin(), sample.faults.end(),
                               [&](const Fault& f) { return f.pin == pin; }));
          // Guarded so the paper's TDF-only configurations consume the
          // exact same random stream as before this extension existed.
          if (options.stuck_at_prob > 0 &&
              rng.next_bool(options.stuck_at_prob)) {
            sample.faults.push_back(Fault::stuck_at(pin, rng.next_bool()));
          } else {
            sample.faults.push_back(rng.next_bool()
                                        ? Fault::slow_to_rise(pin)
                                        : Fault::slow_to_fall(pin));
          }
        }
      }

      // Every injected fault must be individually detectable so that a
      // fully accurate report is achievable (tester reality: undetected
      // defects produce no failure log at all).
      bool all_detected = true;
      for (const Fault& f : sample.faults) {
        if (!fsim.detects(f)) {
          all_detected = false;
          break;
        }
      }
      if (!all_detected) continue;

      const std::vector<Observation> raw = fsim.simulate(
          std::span<const Fault>(sample.faults.data(), sample.faults.size()));
      if (raw.empty()) continue;
      const std::int32_t fail_memory = options.max_failing_patterns < 0
                                           ? design.fail_memory_patterns
                                           : options.max_failing_patterns;
      sample.log = make_failure_log(raw, *design.scan, compactor, fail_memory);
      ok = !sample.log.empty();
    }
    M3DFL_REQUIRE(ok, "failed to generate a detectable fault sample");
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace m3dfl
