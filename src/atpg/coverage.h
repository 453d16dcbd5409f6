// Fault-coverage measurement for an existing pattern set.
//
// Used by the Table III design-matrix bench and by tests; supports sampling
// the fault universe so large sweeps stay fast (documented substitution for
// full commercial fault grading).
#ifndef M3DFL_ATPG_COVERAGE_H_
#define M3DFL_ATPG_COVERAGE_H_

#include <cstdint>

#include "netlist/netlist.h"
#include "sim/logic.h"
#include "sim/simulator.h"

namespace m3dfl {

struct CoverageOptions {
  // 0 = grade the full TDF universe; otherwise grade a uniform sample of
  // this many faults.
  std::int32_t sample_faults = 0;
  std::uint64_t seed = 7;
};

struct CoverageResult {
  std::int32_t num_faults = 0;
  std::int32_t num_detected = 0;
  double coverage() const {
    return num_faults == 0
               ? 0.0
               : static_cast<double>(num_detected) /
                     static_cast<double>(num_faults);
  }
};

// Grades `patterns` against the design's TDF universe.  `good` must already
// hold a run of the same pattern set.  One member per structural
// equivalence class (sta::collapse_tdf_faults) is simulated and its verdict
// reused for the rest: equivalent faults have identical observations, so the
// count is the one a per-fault grading gives.
CoverageResult measure_coverage(const Netlist& netlist,
                                const LocSimulator& good,
                                const CoverageOptions& options);

}  // namespace m3dfl

#endif  // M3DFL_ATPG_COVERAGE_H_
