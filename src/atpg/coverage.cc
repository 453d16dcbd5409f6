#include "atpg/coverage.h"

#include "atpg/tdf_atpg.h"
#include "sim/fault_sim.h"
#include "sta/collapse.h"
#include "util/rng.h"

namespace m3dfl {

CoverageResult measure_coverage(const Netlist& netlist,
                                const LocSimulator& good,
                                const CoverageOptions& options) {
  std::vector<Fault> faults = enumerate_tdf_faults(netlist);
  if (options.sample_faults > 0 &&
      options.sample_faults < static_cast<std::int32_t>(faults.size())) {
    Rng rng(options.seed);
    rng.shuffle(faults);
    faults.resize(static_cast<std::size_t>(options.sample_faults));
  }
  FaultSimulator fsim(netlist, good);
  CoverageResult result;
  result.num_faults = static_cast<std::int32_t>(faults.size());

  // The first fault seen from each equivalence class is simulated; its
  // verdict stands in for later members.  Equivalence is observation-
  // preserving, so the detected count matches a per-fault grading exactly
  // (even under sampling, which only changes *which* member of a class is
  // simulated first).
  const sta::CollapsedFaults collapsed = sta::collapse_tdf_faults(netlist);
  // Per-class verdict: -1 unknown, else 0/1.
  std::vector<std::int8_t> verdict(
      static_cast<std::size_t>(collapsed.num_classes()), -1);
  for (const Fault& f : faults) {
    const auto cls = static_cast<std::size_t>(
        collapsed.class_of[static_cast<std::size_t>(
            sta::tdf_fault_index(f))]);
    if (verdict[cls] < 0) verdict[cls] = fsim.detects(f) ? 1 : 0;
    if (verdict[cls] == 1) ++result.num_detected;
  }
  return result;
}

}  // namespace m3dfl
