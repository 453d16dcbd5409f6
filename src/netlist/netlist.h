// Gate-level netlist model.
//
// A Netlist is a flat gate-level circuit: gates (standard cells plus
// primary-port pseudo-cells and scan flops) connected by single-driver nets.
// The design style is full-scan: the only sequential elements are scan flops,
// so one capture cycle is a pure combinational evaluation from sources
// (primary inputs and flop Q outputs) to sinks (primary outputs and flop D
// inputs).
//
// Fault sites follow the paper's convention: *every pin of a gate* is a
// fault site.  Pins are globally enumerated as PinIds (per gate: output pin
// first, then input pins in order), which is the node id space of the
// heterogeneous diagnosis graph.
//
// Construction is two-phase: build with add_gate/add_net/set_output/
// connect_input, then finalize().  finalize() validates the structure,
// derives net sink lists, the combinational topological order, per-gate
// levels, the pin enumeration, and the flat view the fault simulator's
// inner loop reads (NetlistView).  All queries require a finalized netlist.
#ifndef M3DFL_NETLIST_NETLIST_H_
#define M3DFL_NETLIST_NETLIST_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/cell.h"
#include "util/error.h"

namespace m3dfl {

using GateId = std::int32_t;
using NetId = std::int32_t;
using PinId = std::int32_t;

inline constexpr GateId kNullGate = -1;
inline constexpr NetId kNullNet = -1;
inline constexpr PinId kNullPin = -1;

// Input-pin index value denoting a gate's output pin in a PinRef.
inline constexpr std::int32_t kOutputPin = -1;

// A pin addressed structurally: (gate, input index) or (gate, kOutputPin).
struct PinRef {
  GateId gate = kNullGate;
  std::int32_t input = kOutputPin;

  bool is_output() const { return input == kOutputPin; }
  friend bool operator==(const PinRef&, const PinRef&) = default;
};

struct Gate {
  GateType type = GateType::kBuf;
  std::vector<NetId> fanin;   // input nets, in pin order
  NetId fanout = kNullNet;    // output net (kNullNet for primary outputs)
  std::string name;
};

struct Net {
  GateId driver = kNullGate;
  std::vector<PinRef> sinks;  // input pins reading this net (built by finalize)
  std::string name;
};

// The connectivity of a finalized netlist as flat arrays: fan-in nets and
// sink gates as CSRs, plus per-gate type, output net and level.  It holds
// the same facts as the Gate and Net vectors (same pin and sink order), laid
// out so a simulation inner loop reads contiguous memory.  Derived by
// finalize() and immutable until definalize().
struct NetlistView {
  std::vector<std::int32_t> fanin_offset;  // per gate, plus one end offset
  std::vector<NetId> fanin_nets;           // Gate::fanin, gate after gate
  std::vector<std::int32_t> sink_offset;   // per net, plus one end offset
  std::vector<GateId> sink_gates;          // Net::sinks[i].gate, net by net
  std::vector<GateType> type;              // per gate
  std::vector<NetId> fanout;               // per gate (kNullNet for POs)
  // Per gate (Netlist::level): a combinational gate is one more than its
  // deepest fan-in driver, counting PIs and flop Qs as level 0, so it sits
  // above every combinational gate it reads.  PIs are 0; POs and flops are
  // one more than the driver of their input pin.
  std::vector<std::int32_t> level;

  std::span<const NetId> fanin(GateId g) const {
    const auto i = static_cast<std::size_t>(g);
    return {fanin_nets.data() + fanin_offset[i],
            static_cast<std::size_t>(fanin_offset[i + 1] - fanin_offset[i])};
  }
  std::span<const GateId> sinks(NetId n) const {
    const auto i = static_cast<std::size_t>(n);
    return {sink_gates.data() + sink_offset[i],
            static_cast<std::size_t>(sink_offset[i + 1] - sink_offset[i])};
  }
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // ---- Construction phase -------------------------------------------------

  // Adds a gate of the given type; returns its id.
  GateId add_gate(GateType type, std::string name = {});
  // Adds a net; returns its id.
  NetId add_net(std::string name = {});
  // Declares `gate` the driver of `net`.  A net has exactly one driver and a
  // gate drives exactly one net.
  void set_output(GateId gate, NetId net);
  // Appends `net` as the next input pin of `gate`.
  void connect_input(GateId gate, NetId net);
  // Re-points input pin `input` of `gate` from its current net to `net`.
  // Only valid before finalize(); used by test-point insertion to splice
  // logic into existing connections.
  void reconnect_input(GateId gate, std::int32_t input, NetId net);

  // Validates the netlist and derives all query structures.  Throws
  // m3dfl::Error on arity violations, undriven nets, or combinational loops.
  void finalize();
  bool finalized() const { return finalized_; }

  // Returns the netlist to the construction phase (e.g. for test-point
  // insertion on an already-finalized design); query structures are dropped.
  void definalize();

  // ---- Basic queries ------------------------------------------------------

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::int32_t num_gates() const { return static_cast<std::int32_t>(gates_.size()); }
  std::int32_t num_nets() const { return static_cast<std::int32_t>(nets_.size()); }
  const Gate& gate(GateId id) const { return gates_[check_gate(id)]; }
  const Net& net(NetId id) const { return nets_[check_net(id)]; }

  // Gate count excluding primary-port pseudo-cells (the paper's N_g).
  std::int32_t num_logic_gates() const;

  const std::vector<GateId>& primary_inputs() const { return pis_; }
  const std::vector<GateId>& primary_outputs() const { return pos_; }
  const std::vector<GateId>& flops() const { return flops_; }

  // ---- Topology queries (finalized only) ----------------------------------

  // Combinational gates in evaluation order (every gate after its fan-ins).
  const std::vector<GateId>& topo_order() const { return topo_; }
  // Topological level: 0 for sources (PIs, flop Qs); a gate is one more than
  // its deepest fan-in driver.
  std::int32_t level(GateId id) const { return view_.level[check_gate(id)]; }
  std::int32_t max_level() const { return max_level_; }
  // Flat connectivity arrays (see NetlistView).
  const NetlistView& view() const { return view_; }

  // ---- Pin (fault-site) enumeration (finalized only) ----------------------

  PinId num_pins() const { return num_pins_; }
  // Global id of a gate's output pin; gate must have an output.
  PinId output_pin(GateId gate) const;
  // Global id of a gate's `index`-th input pin.
  PinId input_pin(GateId gate, std::int32_t index) const;
  PinId pin_id(const PinRef& ref) const;
  PinRef pin_ref(PinId pin) const;
  bool pin_is_output(PinId pin) const { return pin_ref(pin).is_output(); }
  GateId pin_gate(PinId pin) const { return pin_ref(pin).gate; }
  // Net observed at a pin: fanout net for output pins, fanin net for inputs.
  NetId pin_net(PinId pin) const;
  // Short human-readable pin name like "g42.Y" / "g42.A1" for reports.
  std::string pin_name(PinId pin) const;

 private:
  std::size_t check_gate(GateId id) const {
    M3DFL_ASSERT(id >= 0 && id < num_gates());
    return static_cast<std::size_t>(id);
  }
  std::size_t check_net(NetId id) const {
    M3DFL_ASSERT(id >= 0 && id < num_nets());
    return static_cast<std::size_t>(id);
  }
  void require_finalized() const {
    M3DFL_REQUIRE(finalized_, "netlist must be finalized before this query");
  }
  void validate() const;
  void build_sinks();
  void build_topo();
  void build_pins();
  void build_view();

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Net> nets_;
  bool finalized_ = false;

  // Derived by finalize():
  std::vector<GateId> pis_;
  std::vector<GateId> pos_;
  std::vector<GateId> flops_;
  std::vector<GateId> topo_;
  NetlistView view_;  // view_.level is filled by build_topo()
  std::int32_t max_level_ = 0;
  std::vector<PinId> pin_offset_;  // per gate: first global pin id
  PinId num_pins_ = 0;
};

}  // namespace m3dfl

#endif  // M3DFL_NETLIST_NETLIST_H_
