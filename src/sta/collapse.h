// Structural collapsing of the transition-delay-fault universe.
//
// The full TDF list has two faults per pin (slow-to-rise / slow-to-fall,
// enumerated exactly like atpg::enumerate_tdf_faults: STR then STF per pin,
// pins ascending).  Many of those faults are *equivalent* — no test can tell
// them apart because they corrupt the same transitions at the same place:
//
//  (a) a net with a single sink: the driver's output pin and the sink's
//      input pin see the same transition (same direction);
//  (b) a buffer: input and output faults are the same defect (same
//      direction);
//  (c) an inverter: input and output faults are the same defect with the
//      direction flipped (a slow rise at the input is a slow fall at the
//      output).
//
// The transitive closure of those rules collapses every fanout-free chain to
// one representative per direction.  Equivalence is observation-preserving:
// any simulator result (detection bit or full observation list) computed for
// one member is byte-identical for every member, which is what makes the
// collapsed coverage grading in atpg/coverage exact rather than
// approximate.
//
// Dominance (an output fault of an AND/OR/NAND/NOR whose tests are a
// superset of an input fault's) is *reported* via dominated_by but never
// merged: dominated faults have different observation sets, so folding them
// would break the byte-identity guarantee.  Consumers that only need
// detection counts may drop dominated faults themselves.
#ifndef M3DFL_STA_COLLAPSE_H_
#define M3DFL_STA_COLLAPSE_H_

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "sim/fault.h"

namespace m3dfl::sta {

// Fault index convention shared with atpg::enumerate_tdf_faults:
// index = 2 * pin + (slow-to-fall ? 1 : 0).
inline std::int32_t tdf_fault_index(const Fault& fault) {
  return 2 * fault.pin + (fault.type == FaultType::kSlowToFall ? 1 : 0);
}

struct CollapsedFaults {
  // Full TDF list in enumeration order (index == tdf_fault_index).
  std::vector<Fault> full;
  // Equivalence class of each full-list fault; class ids are dense and
  // assigned in first-appearance order over the full list.
  std::vector<std::int32_t> class_of;
  // Representative (lowest full-list index) of each class.
  std::vector<std::int32_t> class_representative;
  // Dominating fault's full-list index, or -1.  Reported only — dominated
  // faults keep their own equivalence class.
  std::vector<std::int32_t> dominated_by;

  std::int32_t num_classes() const {
    return static_cast<std::int32_t>(class_representative.size());
  }
  const Fault& representative(std::int32_t cls) const {
    return full[static_cast<std::size_t>(
        class_representative[static_cast<std::size_t>(cls)])];
  }
  double collapse_ratio() const {
    return class_representative.empty()
               ? 1.0
               : static_cast<double>(full.size()) /
                     static_cast<double>(class_representative.size());
  }
  std::int32_t num_dominated() const;
};

// Collapses the TDF universe of a finalized netlist.
CollapsedFaults collapse_tdf_faults(const Netlist& netlist);

}  // namespace m3dfl::sta

#endif  // M3DFL_STA_COLLAPSE_H_
