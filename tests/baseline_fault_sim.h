// Cone-scheduled fault simulator: the test oracle for sim/fault_sim.
//
// For a fault set it collects the full fan-out cone of every fault site,
// sorts it by level, and evaluates every gate of the cone over every
// 64-pattern word — no events, no lane masks.  Static faults get the exact
// two-cycle treatment: the launch (V1) cone is re-evaluated with the static
// faults applied, the flops it reaches re-launch from their faulty captured
// values, and the capture (V2) cone extends through their Q fan-out.  Each
// fault's behaviour is applied to the value arriving at its site, so fault
// effects in a set compose.
//
// It is the design-scale oracle for sim/fault_sim's event kernel, and is
// itself checked against a scalar reference on small designs in
// fault_sim_test.
#ifndef M3DFL_TESTS_BASELINE_FAULT_SIM_H_
#define M3DFL_TESTS_BASELINE_FAULT_SIM_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "m3d/miv.h"
#include "netlist/netlist.h"
#include "sim/fault.h"
#include "sim/fault_sim.h"
#include "sim/simulator.h"

namespace m3dfl::testing {

class BaselineFaultSim {
 public:
  // `mivs` may be null if no MIV faults will be simulated.
  BaselineFaultSim(const Netlist& netlist, const LocSimulator& good,
                   const MivMap* mivs = nullptr);

  // All failing observations of the fault set across all patterns, sorted
  // by (pattern, po-flag, index).
  std::vector<Observation> simulate(std::span<const Fault> faults);
  std::vector<Observation> simulate(const Fault& fault) {
    return simulate(std::span<const Fault>(&fault, 1));
  }

 private:
  struct Cone {
    bool has_static = false;
    // Capture-cycle evaluation schedule (level order).  For static faults
    // this includes the launch-affected flops' Q fan-out.
    std::vector<GateId> gates;
    // Launch-cycle schedule (only populated for static faults).
    std::vector<GateId> gates_v1;
    std::vector<std::int32_t> flops;  // terminal flop indices
    std::vector<std::int32_t> pos;    // terminal PO indices
    // Flops whose launch capture may change (static faults): re-launched
    // from the faulty V1 before the capture-cycle evaluation.
    std::vector<std::int32_t> launch_flops;
    // Stem overrides by net; applied after the driver's evaluation, or as a
    // seed when the driver is outside the cone.
    std::unordered_map<NetId, FaultType> stems;
    std::vector<NetId> seed_stems;     // capture-cycle seeds
    std::vector<NetId> seed_stems_v1;  // launch-cycle seeds (static only)
    // Branch overrides keyed by global input-pin id.
    std::unordered_map<PinId, FaultType> branches;
  };

  Cone build_cone(std::span<const Fault> faults) const;
  // Simulates one pattern word; appends failing observations.
  void simulate_word(const Cone& cone, std::int32_t w,
                     std::vector<Observation>* out);

  std::uint64_t value_v1(NetId net, std::int32_t w) const {
    return stamp1_[static_cast<std::size_t>(net)] == version_
               ? val1_[static_cast<std::size_t>(net)]
               : good_->v1(net, w);
  }
  void set_value_v1(NetId net, std::uint64_t v) {
    stamp1_[static_cast<std::size_t>(net)] = version_;
    val1_[static_cast<std::size_t>(net)] = v;
  }
  std::uint64_t value(NetId net, std::int32_t w) const {
    return stamp_[static_cast<std::size_t>(net)] == version_
               ? val_[static_cast<std::size_t>(net)]
               : good_->v2(net, w);
  }
  void set_value(NetId net, std::uint64_t v) {
    stamp_[static_cast<std::size_t>(net)] = version_;
    val_[static_cast<std::size_t>(net)] = v;
  }

  const Netlist* netlist_;
  const LocSimulator* good_;
  const MivMap* mivs_;
  std::vector<std::int32_t> flop_index_;  // gate -> flop index (-1 otherwise)
  std::vector<std::int32_t> po_index_;    // gate -> PO index (-1 otherwise)
  // Versioned scratch values for the faulty machine (V2 and V1 planes).
  std::vector<std::uint64_t> val_;
  std::vector<std::uint64_t> stamp_;
  std::vector<std::uint64_t> val1_;
  std::vector<std::uint64_t> stamp1_;
  std::uint64_t version_ = 0;
};

}  // namespace m3dfl::testing

#endif  // M3DFL_TESTS_BASELINE_FAULT_SIM_H_
