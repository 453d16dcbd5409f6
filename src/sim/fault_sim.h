// Fault simulator.
//
// Re-evaluates only what the injected fault(s) disturb, on top of the
// good-machine results of a LocSimulator run, word-parallel over 64
// patterns.  Versioned scratch arrays make repeated fault injections
// allocation-free, which matters because ATPG coverage and per-candidate
// diagnosis both simulate thousands of faults per design.
//
// One levelized event schedule serves every fault set: single TDFs, MIV
// delay faults, static stuck-at faults and the 2-5-fault sets of paper
// Sec. VII-A.  Scheduled gates wait in one queue per topological level and
// are evaluated level by level; a gate's sinks always sit at higher levels,
// so each gate is evaluated once per word, after all of its fan-in changes,
// and scheduling costs O(1).  The queues are seeded from every fault site:
// a stem fault seeds its net, a branch (or MIV far-sink) fault schedules the
// gate that reads it.  Each fault acts on the value that reaches its site,
// so the effects of a set compose; a per-gate slot marks the gates that
// carry a fault, so the inner loop never scans the fault list.  A gate's
// output is stored, and its sinks scheduled, only when it differs from the
// good value in a requested lane; the one exception is a stem fault's
// driver, whose re-evaluation always replaces the seeded value.
//
// Delay faults (the paper's model) corrupt only the at-speed capture cycle,
// so one pass over the V2 evaluation suffices.  Static stuck-at faults (the
// library's extension) corrupt the launch cycle too: a word with a static
// fault first runs an event pass over V1 from the static sites, re-launches
// the flops it reaches from their faulty captured values, and then runs the
// V2 pass from every site and the re-launched Q nets — exact two-cycle
// semantics.  Delay faults in a mixed set hold the faulty V1 value.
//
// The caller may pass one lane mask per 64-pattern word; only the masked
// differences at the flops and POs reached are reported.  Gate evaluation
// and fault behaviour are bitwise, so every lane is an independent pattern
// and the requested lanes are exact for every fault type; the other lanes
// are simply not computed.  The inner loop reads the netlist's flat view
// (Netlist::view(): fan-in and sink CSRs, per-gate type, output net and
// level), which finalize() derives once per netlist.
//
// The tests check this kernel against a cone-scheduled reference simulator,
// tests/baseline_fault_sim.h.
#ifndef M3DFL_SIM_FAULT_SIM_H_
#define M3DFL_SIM_FAULT_SIM_H_

#include <array>
#include <cstdint>
#include <span>
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
  // `mivs` may be null if no MIV faults will be simulated.  `good` must
  // already hold the run the faults are simulated against.
  FaultSimulator(const Netlist& netlist, const LocSimulator& good,
                 const MivMap* mivs = nullptr);

  // Failing observations of the fault set in the requested pattern lanes
  // only, sorted by (pattern, po-flag, index): bit b of lanes[w] requests
  // pattern w * 64 + b, and lanes.size() must equal the good simulation's
  // word count.  The result is the all-lane result filtered to those
  // patterns, in the same order.  Every other overload forwards here.
  std::vector<Observation> simulate(std::span<const Fault> faults,
                                    std::span<const std::uint64_t> lanes);
  std::vector<Observation> simulate(const Fault& fault,
                                    std::span<const std::uint64_t> lanes) {
    return simulate(std::span<const Fault>(&fault, 1), lanes);
  }
  // All failing observations of the fault (set) across all patterns.
  std::vector<Observation> simulate(std::span<const Fault> faults) {
    return simulate(faults, all_lanes_);
  }
  std::vector<Observation> simulate(const Fault& fault) {
    return simulate(std::span<const Fault>(&fault, 1), all_lanes_);
  }

  // True iff any pattern detects the fault; early-exits on first detection.
  bool detects(const Fault& fault);

 private:
  // The two capture cycles of a launch-on-capture test, as value planes.
  static constexpr int kLaunch = 0;   // V1
  static constexpr int kCapture = 1;  // V2

  // Records the sites of `faults` by gate, replacing the previous set.
  void load(std::span<const Fault> faults);
  // Simulates the loaded faults over the requested lanes; appends the
  // failing observations, sorted, to `out`, or with a null `out` returns at
  // the first one.  Returns true if any lane fails.
  bool run(std::span<const Fault> faults,
           std::span<const std::uint64_t> lanes,
           std::vector<Observation>* out);
  // One pattern word, restricted to `lanes`; its observations follow every
  // earlier word's in `out`.
  bool simulate_one_word(std::int32_t w, std::uint64_t lanes,
                         std::vector<Observation>* out);
  // Empties the level queues and the terminals for a new event pass.
  void begin_pass();
  void schedule(GateId g);
  void schedule_sinks(NetId net);
  // Seeds one cycle's pass from the fault sites that act in it.
  template <int kCycle>
  void seed(std::int32_t w, std::uint64_t lanes);
  // Evaluates the scheduled gates level by level.
  template <int kCycle>
  void propagate(std::int32_t w, std::uint64_t lanes);
  // Inputs of gate g as the faulty machine sees them in one cycle; returns
  // the input count.
  template <int kCycle>
  std::size_t load_inputs(GateId g, std::int32_t w, std::uint64_t* inputs);
  // The fault at a site acting on `v`, the value reaching it in one cycle.
  template <int kCycle>
  std::uint64_t apply(FaultType type, NetId net, std::int32_t w,
                      std::uint64_t v) const;

  template <int kCycle>
  std::uint64_t good(NetId net, std::int32_t w) const {
    return kCycle == kLaunch ? good_->v1(net, w) : good_->v2(net, w);
  }
  // Faulty value of a net in one cycle (falls back to the good value).
  template <int kCycle>
  std::uint64_t value(NetId net, std::int32_t w) const {
    const Plane& p = planes_[kCycle];
    return p.stamp[static_cast<std::size_t>(net)] == version_
               ? p.val[static_cast<std::size_t>(net)]
               : good<kCycle>(net, w);
  }
  template <int kCycle>
  void set_value(NetId net, std::uint64_t v) {
    Plane& p = planes_[kCycle];
    p.stamp[static_cast<std::size_t>(net)] = version_;
    p.val[static_cast<std::size_t>(net)] = v;
  }

  const Netlist* netlist_;
  const NetlistView* view_;  // netlist_->view()
  const LocSimulator* good_;
  const MivMap* mivs_;
  std::vector<std::uint64_t> all_lanes_;  // one ~0 mask per pattern word
  std::vector<std::int32_t> flop_index_;  // gate -> flop index (-1 otherwise)
  std::vector<std::int32_t> po_index_;    // gate -> PO index (-1 otherwise)
  // Versioned scratch values for the faulty machine, one plane per cycle.
  struct Plane {
    std::vector<std::uint64_t> val;
    std::vector<std::uint64_t> stamp;
  };
  Plane planes_[2];
  std::uint64_t version_ = 0;  // per pattern word
  // The loaded fault set, by gate: fault_slot_[g] indexes gate_faults_ for
  // a gate whose input pins or output net carry a fault, and is -1
  // otherwise.  A site named twice keeps its last fault.
  struct GateFaults {
    GateId gate = kNullGate;
    bool stem = false;  // the output net is faulty
    FaultType stem_type = FaultType::kSlowToRise;
    std::uint8_t branches = 0;  // bit i: input pin i is faulty
    std::array<FaultType, 8> branch_type{};
  };
  std::vector<std::int32_t> fault_slot_;
  std::vector<GateFaults> gate_faults_;
  const GateFaults* faults_at(std::size_t g) const {
    const std::int32_t slot = fault_slot_[g];
    return slot < 0 ? nullptr : &gate_faults_[static_cast<std::size_t>(slot)];
  }
  bool has_static_ = false;
  // Event scratch: per-gate "queued in this pass" stamps; one queue of
  // scheduled gates per level, and the lowest and highest level queued in
  // this pass; the flops and POs reached; and the Q nets re-launched from a
  // faulty V1.
  std::uint64_t pass_ = 0;
  std::vector<std::uint64_t> queued_;
  std::vector<std::vector<GateId>> level_queue_;
  std::int32_t first_level_ = 0;
  std::int32_t last_level_ = -1;
  std::vector<GateId> terminals_;
  std::vector<NetId> relaunched_;
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
