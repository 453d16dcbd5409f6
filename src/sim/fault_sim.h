// Fault simulator.
//
// Re-evaluates only what the injected fault(s) disturb, on top of the
// good-machine results of a LocSimulator run, word-parallel over 64
// patterns.  Versioned scratch arrays make repeated fault injections
// allocation-free, which matters because ATPG coverage and per-candidate
// diagnosis both simulate thousands of faults per design.
//
// Two schedules share the scratch state:
//  * Event-driven (single delay faults: TDFs and MIV delay faults).  From
//    the fault site, scheduled gates wait in one queue per topological
//    level and are evaluated level by level; a gate's sinks always sit at
//    higher levels, so each gate is evaluated once per word, after all of
//    its fan-in changes, and scheduling costs O(1).  A gate's output is
//    stored, and its sinks scheduled, only when it differs from the good
//    V2 value in a requested lane.  The caller passes one lane mask per
//    64-pattern word, and only the masked differences at the flops and POs
//    reached are reported.  Gate evaluation is bitwise, so every lane is an
//    independent pattern and the requested lanes are exact; the other
//    lanes are simply not computed.  simulate(const Fault&) and detects()
//    take this path with every lane set.  The inner loop reads the
//    netlist's flat view (Netlist::view(): fan-in and sink CSRs, per-gate
//    type, output net and level), which finalize() derives once per
//    netlist.
//  * Cone-scheduled (static faults and multi-fault sets): the full fan-out
//    cone is collected and evaluated in topological order over every
//    pattern word.  simulate(std::span<const Fault>) always takes this
//    path, so it is also the test oracle for the event-driven one.
//
// Delay faults (the paper's model) corrupt only the at-speed capture cycle,
// so one pass over the V2 evaluation suffices.  Static stuck-at faults (the
// library's extension) corrupt the launch cycle too: the simulator then also
// re-evaluates the V1 cone, re-launches the affected flops, and extends the
// capture-cycle cone through their Q fan-out — exact two-cycle semantics.
//
// Multi-fault injection (paper Sec. VII-A: 2-5 TDFs in one tier) is
// supported by merging cones; each fault's behaviour is applied to the value
// actually arriving at its site, so upstream fault effects compose
// correctly.
#ifndef M3DFL_SIM_FAULT_SIM_H_
#define M3DFL_SIM_FAULT_SIM_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "m3d/miv.h"
#include "netlist/netlist.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace m3dfl {

// One failing tester observation: pattern index plus the observation point
// (a scan cell by flop index, or a primary output by PO index).
struct Observation {
  std::int32_t pattern = 0;
  bool at_po = false;
  std::int32_t index = 0;  // flop index or PO index

  friend bool operator==(const Observation&, const Observation&) = default;
  friend auto operator<=>(const Observation&, const Observation&) = default;
};

class FaultSimulator {
 public:
  // `mivs` may be null if no MIV faults will be simulated.
  FaultSimulator(const Netlist& netlist, const LocSimulator& good,
                 const MivMap* mivs = nullptr);

  // All failing observations of the fault (set) across all patterns, sorted
  // by (pattern, po-flag, index).  A single delay fault takes the
  // event-driven path; the span overload is always cone-scheduled.
  std::vector<Observation> simulate(const Fault& fault);
  std::vector<Observation> simulate(std::span<const Fault> faults);

  // Failing observations of one fault in the requested pattern lanes only:
  // bit b of lanes[w] requests pattern w * 64 + b, and lanes.size() must
  // equal the good simulation's word count.  The result is simulate(fault)
  // filtered to those patterns, in the same order.  Delay faults simulate
  // only the requested lanes; a static fault is simulated in full and
  // filtered.
  std::vector<Observation> simulate(const Fault& fault,
                                    std::span<const std::uint64_t> lanes);

  // True iff any pattern detects the fault; early-exits on first detection.
  bool detects(const Fault& fault);

 private:
  struct Cone {
    bool has_static = false;
    // Capture-cycle evaluation schedule (topo-sorted).  For static faults
    // this includes the launch-affected flops' Q fan-out.
    std::vector<GateId> gates;
    // Launch-cycle schedule (only populated for static faults).
    std::vector<GateId> gates_v1;
    std::vector<std::int32_t> flops;       // terminal flop indices
    std::vector<std::int32_t> pos;         // terminal PO indices
    // Flops whose launch capture may change (static faults): re-launched
    // from the faulty V1 before the capture-cycle evaluation.
    std::vector<std::int32_t> launch_flops;
    // Stem overrides by net; applied after the driver's evaluation, or as a
    // seed when the driver is outside the cone.
    std::unordered_map<NetId, FaultType> stems;
    std::vector<NetId> seed_stems;         // capture-cycle seeds
    std::vector<NetId> seed_stems_v1;      // launch-cycle seeds (static only)
    // Branch overrides keyed by global input-pin id.
    std::unordered_map<PinId, FaultType> branches;
  };

  Cone build_cone(std::span<const Fault> faults) const;
  // Event-driven path for one delay fault over the requested lanes;
  // appends the failing observations, sorted, to `out`, or with a null
  // `out` returns at the first one.  Returns true if any lane fails.
  bool simulate_events(const Fault& fault,
                       std::span<const std::uint64_t> lanes,
                       std::vector<Observation>* out);
  // One pattern word of the fault loaded by simulate_events, restricted to
  // `lanes`; its observations follow every earlier word's in `out`.
  bool simulate_word_events(FaultType type, std::int32_t w,
                            std::uint64_t lanes,
                            std::vector<Observation>* out);
  void schedule(GateId g);
  // Simulates one pattern word; appends failing observations.  Returns true
  // if any failure was found (for detects()).
  bool simulate_word(const Cone& cone, std::int32_t w,
                     std::vector<Observation>* out);

  // Launch-cycle faulty value of a net (falls back to the good V1).
  std::uint64_t value_v1(NetId net, std::int32_t w) const {
    return stamp1_[static_cast<std::size_t>(net)] == version_
               ? val1_[static_cast<std::size_t>(net)]
               : good_->v1(net, w);
  }
  void set_value_v1(NetId net, std::uint64_t v) {
    stamp1_[static_cast<std::size_t>(net)] = version_;
    val1_[static_cast<std::size_t>(net)] = v;
  }
  // Capture-cycle faulty value of a net (falls back to the good V2).
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
  const NetlistView* view_;  // netlist_->view()
  const LocSimulator* good_;
  const MivMap* mivs_;
  std::vector<std::int32_t> flop_index_;   // gate -> flop index (-1 otherwise)
  std::vector<std::int32_t> po_index_;     // gate -> PO index (-1 otherwise)
  // Versioned scratch values for the faulty machine (V2 and V1 planes).
  std::vector<std::uint64_t> val_;
  std::vector<std::uint64_t> stamp_;
  std::vector<std::uint64_t> val1_;
  std::vector<std::uint64_t> stamp1_;
  std::uint64_t version_ = 0;
  // Event-driven scratch: the current fault's faulty stem net (stem faults)
  // or faulty input pins (branch and MIV faults); per-gate "queued in this
  // word" stamps; one queue of scheduled gates per level, and the lowest and
  // highest level queued in this word; and the flops and POs reached.
  NetId event_stem_ = kNullNet;
  std::vector<PinRef> event_branches_;
  std::vector<std::uint64_t> queued_;
  std::vector<std::vector<GateId>> level_queue_;
  std::int32_t first_level_ = 0;
  std::int32_t last_level_ = -1;
  std::vector<GateId> terminals_;
  // The failing flops (at_po false) and POs of one word, with their lanes.
  struct Hit {
    bool at_po = false;
    std::int32_t index = 0;
    std::uint64_t diff = 0;
  };
  std::vector<Hit> hits_;
};

}  // namespace m3dfl

#endif  // M3DFL_SIM_FAULT_SIM_H_
