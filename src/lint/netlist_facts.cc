#include "lint/netlist_facts.h"

#include <sstream>

#include "lint/checks.h"
#include "lint/diagnostic.h"

namespace m3dfl::lint {

std::string NetlistFacts::gate_loc(std::int32_t gate) const {
  const FactsGate& g = gates[static_cast<std::size_t>(gate)];
  if (!source.empty() && g.line > 0) {
    return source + ":" + std::to_string(g.line);
  }
  std::string loc = "gate " + std::to_string(gate);
  if (!g.name.empty()) loc += " (" + g.name + ")";
  return loc;
}

std::string NetlistFacts::net_loc(std::int32_t net) const {
  return "net " + std::to_string(net);
}

NetlistFacts NetlistFacts::from_netlist(const Netlist& netlist) {
  NetlistFacts facts;
  facts.design_name = netlist.name();
  facts.num_nets = netlist.num_nets();
  facts.net_drivers.assign(static_cast<std::size_t>(netlist.num_nets()), {});
  facts.gates.reserve(static_cast<std::size_t>(netlist.num_gates()));
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Gate& gate = netlist.gate(g);
    FactsGate fg;
    fg.type = gate.type;
    fg.name = gate.name;
    fg.fanin = gate.fanin;
    fg.fanout = gate.fanout;
    facts.gates.push_back(std::move(fg));
    if (gate.fanout != kNullNet) {
      facts.net_drivers[static_cast<std::size_t>(gate.fanout)].push_back(g);
    }
  }
  return facts;
}

NetlistFacts NetlistFacts::from_mnl(const std::string& text,
                                    const std::string& source,
                                    Report& parse_diags) {
  Emitter emit(parse_diags);
  std::istringstream is(text);
  MnlScan scan = scan_mnl(
      is, ParseLimits::defaults(), [&](int line, const std::string& what) {
        emit.emit("mnl-syntax", source + ":" + std::to_string(line), what);
      });
  NetlistFacts facts;
  facts.source = source;
  facts.design_name = std::move(scan.design_name);
  facts.gates = std::move(scan.gates);
  facts.num_nets = scan.num_nets;
  // A second driver of the same net is recorded, not rejected: diagnosing
  // it is the point of the netlist pass.
  facts.net_drivers.assign(static_cast<std::size_t>(facts.num_nets), {});
  for (std::int32_t g = 0; g < facts.num_gates(); ++g) {
    const NetId out = facts.gates[static_cast<std::size_t>(g)].fanout;
    if (out != kNullNet) {
      facts.net_drivers[static_cast<std::size_t>(out)].push_back(g);
    }
  }
  return facts;
}

}  // namespace m3dfl::lint
