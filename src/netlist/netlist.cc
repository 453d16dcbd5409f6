#include "netlist/netlist.h"

#include <algorithm>
#include <queue>

namespace m3dfl {

GateId Netlist::add_gate(GateType type, std::string name) {
  M3DFL_REQUIRE(!finalized_, "cannot add gates to a finalized netlist");
  Gate g;
  g.type = type;
  g.name = std::move(name);
  gates_.push_back(std::move(g));
  return num_gates() - 1;
}

NetId Netlist::add_net(std::string name) {
  M3DFL_REQUIRE(!finalized_, "cannot add nets to a finalized netlist");
  Net n;
  n.name = std::move(name);
  nets_.push_back(std::move(n));
  return num_nets() - 1;
}

void Netlist::set_output(GateId gate, NetId net) {
  M3DFL_REQUIRE(!finalized_, "cannot rewire a finalized netlist");
  Gate& g = gates_[check_gate(gate)];
  Net& n = nets_[check_net(net)];
  M3DFL_REQUIRE(has_output(g.type), "gate type has no output pin");
  M3DFL_REQUIRE(g.fanout == kNullNet, "gate already drives a net");
  M3DFL_REQUIRE(n.driver == kNullGate, "net already has a driver");
  g.fanout = net;
  n.driver = gate;
}

void Netlist::connect_input(GateId gate, NetId net) {
  M3DFL_REQUIRE(!finalized_, "cannot rewire a finalized netlist");
  Gate& g = gates_[check_gate(gate)];
  check_net(net);
  M3DFL_REQUIRE(static_cast<int>(g.fanin.size()) < max_fanin(g.type),
                "too many input connections for gate type");
  g.fanin.push_back(net);
}

void Netlist::reconnect_input(GateId gate, std::int32_t input, NetId net) {
  M3DFL_REQUIRE(!finalized_, "cannot rewire a finalized netlist");
  Gate& g = gates_[check_gate(gate)];
  check_net(net);
  M3DFL_REQUIRE(input >= 0 && input < static_cast<int>(g.fanin.size()),
                "input pin index out of range");
  g.fanin[static_cast<std::size_t>(input)] = net;
}

void Netlist::definalize() {
  finalized_ = false;
  pis_.clear();
  pos_.clear();
  flops_.clear();
  topo_.clear();
  view_ = NetlistView{};
  pin_offset_.clear();
  num_pins_ = 0;
  max_level_ = 0;
  for (Net& n : nets_) n.sinks.clear();
}

void Netlist::finalize() {
  M3DFL_REQUIRE(!finalized_, "netlist already finalized");
  validate();
  build_sinks();
  build_topo();
  build_pins();
  build_view();
  finalized_ = true;
}

void Netlist::validate() const {
  for (GateId id = 0; id < num_gates(); ++id) {
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    const int fanin = static_cast<int>(g.fanin.size());
    if (fanin < min_fanin(g.type) || fanin > max_fanin(g.type)) {
      throw Error("gate " + std::to_string(id) + " (" +
                  std::string(gate_type_name(g.type)) + ") has invalid fan-in " +
                  std::to_string(fanin));
    }
    if (has_output(g.type) && g.fanout == kNullNet) {
      throw Error("gate " + std::to_string(id) + " has no output net");
    }
    for (NetId n : g.fanin) {
      if (nets_[check_net(n)].driver == kNullGate) {
        throw Error("net " + std::to_string(n) + " read by gate " +
                    std::to_string(id) + " has no driver");
      }
    }
  }
}

void Netlist::build_sinks() {
  for (Net& n : nets_) n.sinks.clear();
  for (GateId id = 0; id < num_gates(); ++id) {
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      nets_[static_cast<std::size_t>(g.fanin[i])].sinks.push_back(
          PinRef{id, static_cast<std::int32_t>(i)});
    }
  }
}

void Netlist::build_topo() {
  pis_.clear();
  pos_.clear();
  flops_.clear();
  topo_.clear();
  std::vector<std::int32_t>& levels = view_.level;
  levels.assign(gates_.size(), 0);

  // Classify port / state gates.
  for (GateId id = 0; id < num_gates(); ++id) {
    switch (gates_[static_cast<std::size_t>(id)].type) {
      case GateType::kPrimaryInput: pis_.push_back(id); break;
      case GateType::kPrimaryOutput: pos_.push_back(id); break;
      case GateType::kScanFlop: flops_.push_back(id); break;
      default: break;
    }
  }

  // Kahn's algorithm over combinational gates.  Flop Q outputs and primary
  // inputs are cycle-breaking sources: a fan-in net driven by a flop or PI
  // contributes no ordering constraint.
  std::vector<std::int32_t> indeg(gates_.size(), 0);
  std::queue<GateId> ready;
  std::size_t num_comb = 0;
  for (GateId id = 0; id < num_gates(); ++id) {
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    if (!is_combinational(g.type)) continue;
    ++num_comb;
    std::int32_t deg = 0;
    for (NetId n : g.fanin) {
      const GateId drv = nets_[static_cast<std::size_t>(n)].driver;
      if (is_combinational(gates_[static_cast<std::size_t>(drv)].type)) ++deg;
    }
    indeg[static_cast<std::size_t>(id)] = deg;
    if (deg == 0) ready.push(id);
  }

  topo_.reserve(num_comb);
  while (!ready.empty()) {
    const GateId id = ready.front();
    ready.pop();
    topo_.push_back(id);
    const Gate& g = gates_[static_cast<std::size_t>(id)];

    // Level: one past the deepest fan-in driver.
    std::int32_t lvl = 0;
    for (NetId n : g.fanin) {
      const GateId drv = nets_[static_cast<std::size_t>(n)].driver;
      lvl = std::max(lvl, levels[static_cast<std::size_t>(drv)] + 1);
    }
    levels[static_cast<std::size_t>(id)] = lvl;

    if (g.fanout == kNullNet) continue;
    for (const PinRef& sink : nets_[static_cast<std::size_t>(g.fanout)].sinks) {
      const Gate& sg = gates_[static_cast<std::size_t>(sink.gate)];
      if (!is_combinational(sg.type)) continue;
      if (--indeg[static_cast<std::size_t>(sink.gate)] == 0) {
        ready.push(sink.gate);
      }
    }
  }
  if (topo_.size() != num_comb) {
    throw Error("netlist contains a combinational loop");
  }

  // Levels for sinks (POs, flop D pins) for completeness.
  max_level_ = 0;
  for (GateId id = 0; id < num_gates(); ++id) {
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    if (is_combinational(g.type) || g.fanin.empty()) {
      max_level_ = std::max(max_level_, levels[static_cast<std::size_t>(id)]);
      continue;
    }
    std::int32_t lvl = 0;
    for (NetId n : g.fanin) {
      const GateId drv = nets_[static_cast<std::size_t>(n)].driver;
      lvl = std::max(lvl, levels[static_cast<std::size_t>(drv)] + 1);
    }
    levels[static_cast<std::size_t>(id)] = lvl;
    max_level_ = std::max(max_level_, lvl);
  }
}

void Netlist::build_pins() {
  pin_offset_.assign(gates_.size() + 1, 0);
  PinId next = 0;
  for (GateId id = 0; id < num_gates(); ++id) {
    pin_offset_[static_cast<std::size_t>(id)] = next;
    const Gate& g = gates_[static_cast<std::size_t>(id)];
    next += static_cast<PinId>((has_output(g.type) ? 1 : 0) + g.fanin.size());
  }
  pin_offset_[gates_.size()] = next;
  num_pins_ = next;
}

void Netlist::build_view() {
  const auto n_gates = gates_.size();
  view_.fanin_offset.assign(n_gates + 1, 0);
  std::size_t num_fanins = 0;
  for (const Gate& gate : gates_) num_fanins += gate.fanin.size();
  view_.fanin_nets.clear();
  view_.fanin_nets.reserve(num_fanins);
  view_.type.resize(n_gates);
  view_.fanout.resize(n_gates);
  for (std::size_t g = 0; g < n_gates; ++g) {
    const Gate& gate = gates_[g];
    view_.fanin_nets.insert(view_.fanin_nets.end(), gate.fanin.begin(),
                            gate.fanin.end());
    view_.fanin_offset[g + 1] =
        static_cast<std::int32_t>(view_.fanin_nets.size());
    view_.type[g] = gate.type;
    view_.fanout[g] = gate.fanout;
  }
  view_.sink_offset.assign(nets_.size() + 1, 0);
  view_.sink_gates.clear();
  view_.sink_gates.reserve(num_fanins);
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    for (const PinRef& sink : nets_[n].sinks) {
      view_.sink_gates.push_back(sink.gate);
    }
    view_.sink_offset[n + 1] =
        static_cast<std::int32_t>(view_.sink_gates.size());
  }
}

std::int32_t Netlist::num_logic_gates() const {
  std::int32_t n = 0;
  for (const Gate& g : gates_) {
    if (g.type != GateType::kPrimaryInput &&
        g.type != GateType::kPrimaryOutput) {
      ++n;
    }
  }
  return n;
}

PinId Netlist::output_pin(GateId gate) const {
  require_finalized();
  const Gate& g = gates_[check_gate(gate)];
  M3DFL_ASSERT(has_output(g.type));
  return pin_offset_[static_cast<std::size_t>(gate)];
}

PinId Netlist::input_pin(GateId gate, std::int32_t index) const {
  require_finalized();
  const Gate& g = gates_[check_gate(gate)];
  M3DFL_ASSERT(index >= 0 && index < static_cast<int>(g.fanin.size()));
  return pin_offset_[static_cast<std::size_t>(gate)] +
         (has_output(g.type) ? 1 : 0) + index;
}

PinId Netlist::pin_id(const PinRef& ref) const {
  return ref.is_output() ? output_pin(ref.gate)
                         : input_pin(ref.gate, ref.input);
}

PinRef Netlist::pin_ref(PinId pin) const {
  require_finalized();
  M3DFL_ASSERT(pin >= 0 && pin < num_pins_);
  // Binary search for the owning gate.
  const auto it = std::upper_bound(pin_offset_.begin(), pin_offset_.end(), pin);
  const GateId gate = static_cast<GateId>(it - pin_offset_.begin()) - 1;
  const Gate& g = gates_[check_gate(gate)];
  std::int32_t local = pin - pin_offset_[static_cast<std::size_t>(gate)];
  if (has_output(g.type)) {
    if (local == 0) return PinRef{gate, kOutputPin};
    --local;
  }
  return PinRef{gate, local};
}

NetId Netlist::pin_net(PinId pin) const {
  const PinRef ref = pin_ref(pin);
  const Gate& g = gates_[check_gate(ref.gate)];
  return ref.is_output() ? g.fanout
                         : g.fanin[static_cast<std::size_t>(ref.input)];
}

std::string Netlist::pin_name(PinId pin) const {
  const PinRef ref = pin_ref(pin);
  const Gate& g = gates_[check_gate(ref.gate)];
  const std::string base =
      g.name.empty() ? 'g' + std::to_string(ref.gate) : g.name;
  if (ref.is_output()) return base + ".Y";
  return base + ".A" + std::to_string(ref.input);
}

}  // namespace m3dfl
