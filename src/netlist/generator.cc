#include "netlist/generator.h"

#include <algorithm>
#include <vector>

namespace m3dfl {
namespace {

// Samples a combinational gate type from the mix weights.
GateType sample_type(const std::array<double, kNumGateTypes>& mix, Rng& rng) {
  double total = 0.0;
  for (int t = 0; t < kNumGateTypes; ++t) {
    if (is_combinational(static_cast<GateType>(t))) total += mix[static_cast<std::size_t>(t)];
  }
  M3DFL_REQUIRE(total > 0.0, "generator mix has no combinational weight");
  double x = rng.next_double() * total;
  for (int t = 0; t < kNumGateTypes; ++t) {
    const auto gt = static_cast<GateType>(t);
    if (!is_combinational(gt)) continue;
    x -= mix[static_cast<std::size_t>(t)];
    if (x <= 0.0) return gt;
  }
  return GateType::kNand;
}

// Samples a fan-in width for a variable-arity gate: mostly 2, some 3, few 4.
int sample_fanin(GateType type, Rng& rng) {
  const int lo = min_fanin(type);
  const int hi = max_fanin(type);
  if (lo == hi) return lo;
  const double x = rng.next_double();
  int k = x < 0.60 ? 2 : (x < 0.90 ? 3 : 4);
  return std::clamp(k, lo, hi);
}

}  // namespace

std::array<double, kNumGateTypes> GeneratorConfig::default_mix() {
  std::array<double, kNumGateTypes> mix{};
  mix[static_cast<std::size_t>(GateType::kBuf)] = 0.04;
  mix[static_cast<std::size_t>(GateType::kInv)] = 0.10;
  mix[static_cast<std::size_t>(GateType::kAnd)] = 0.13;
  mix[static_cast<std::size_t>(GateType::kNand)] = 0.17;
  mix[static_cast<std::size_t>(GateType::kOr)] = 0.12;
  mix[static_cast<std::size_t>(GateType::kNor)] = 0.11;
  mix[static_cast<std::size_t>(GateType::kXor)] = 0.08;
  mix[static_cast<std::size_t>(GateType::kXnor)] = 0.05;
  mix[static_cast<std::size_t>(GateType::kMux)] = 0.06;
  return mix;
}

Netlist generate_netlist(const GeneratorConfig& config) {
  M3DFL_REQUIRE(config.num_pis > 0, "generator needs at least one PI");
  M3DFL_REQUIRE(config.num_pos > 0, "generator needs at least one PO");
  M3DFL_REQUIRE(config.num_flops >= 0, "negative flop count");
  M3DFL_REQUIRE(config.num_gates > 0, "generator needs a positive gate count");
  M3DFL_REQUIRE(config.target_depth >= 2, "target depth too small");

  Rng rng(config.seed);
  Netlist nl(config.name);

  // Per-net bookkeeping during elaboration (the netlist itself derives sink
  // lists only at finalize()).
  std::vector<std::int32_t> net_level;
  std::vector<std::int32_t> net_sinks;
  std::vector<NetId> created;  // nets in creation order, for the frontier

  const auto new_source_net = [&](GateId driver) {
    const NetId n = nl.add_net();
    nl.set_output(driver, n);
    net_level.push_back(0);
    net_sinks.push_back(0);
    created.push_back(n);
    return n;
  };

  // Sources: primary inputs and scan-flop Q outputs.
  for (std::int32_t i = 0; i < config.num_pis; ++i) {
    new_source_net(nl.add_gate(GateType::kPrimaryInput,
                               "pi" + std::to_string(i)));
  }
  std::vector<GateId> flops;
  flops.reserve(static_cast<std::size_t>(config.num_flops));
  for (std::int32_t i = 0; i < config.num_flops; ++i) {
    const GateId ff = nl.add_gate(GateType::kScanFlop, "ff" + std::to_string(i));
    new_source_net(ff);
    flops.push_back(ff);
  }

  // Picks a fan-in net for a new gate, respecting locality, the fan-out cap,
  // the depth target, and input-duplication avoidance.
  const auto pick_input = [&](const std::vector<NetId>& taken) -> NetId {
    for (int attempt = 0; attempt < 12; ++attempt) {
      NetId cand;
      const bool local =
          rng.next_bool(config.locality) && attempt < 6;  // widen when stuck
      if (local) {
        const std::size_t window = std::min<std::size_t>(
            created.size(), static_cast<std::size_t>(config.frontier_window));
        cand = created[created.size() - 1 - rng.next_below(window)];
      } else {
        cand = created[rng.next_below(created.size())];
      }
      const auto ci = static_cast<std::size_t>(cand);
      if (net_level[ci] + 1 > config.target_depth) continue;
      if (net_sinks[ci] >= config.max_fanout && attempt < 10) continue;
      if (std::find(taken.begin(), taken.end(), cand) != taken.end()) continue;
      return cand;
    }
    // Fall back to any depth-legal net, ignoring the soft constraints.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const NetId cand = created[rng.next_below(created.size())];
      if (net_level[static_cast<std::size_t>(cand)] + 1 > config.target_depth) {
        continue;
      }
      if (std::find(taken.begin(), taken.end(), cand) == taken.end()) {
        return cand;
      }
    }
    return created[rng.next_below(created.size())];
  };

  // Elaborate the combinational logic.
  bool last_was_chain = false;
  for (std::int32_t i = 0; i < config.num_gates; ++i) {
    GateType type = sample_type(config.mix, rng);
    // Fan-out-free chain extension: continue a just-created buffer/inverter
    // with another one reading its output.
    const bool extend_chain =
        last_was_chain && rng.next_bool(config.chain_extend_prob) &&
        net_level[created.size() - 1] < config.target_depth;
    if (extend_chain) {
      type = rng.next_bool() ? GateType::kBuf : GateType::kInv;
    }
    const int k = extend_chain ? 1 : sample_fanin(type, rng);
    std::vector<NetId> ins;
    ins.reserve(static_cast<std::size_t>(k));
    std::int32_t lvl = 0;
    if (extend_chain) {
      const NetId n = created.back();
      ins.push_back(n);
      lvl = net_level[static_cast<std::size_t>(n)] + 1;
    } else {
      for (int j = 0; j < k; ++j) {
        const NetId n = pick_input(ins);
        ins.push_back(n);
        lvl = std::max(lvl, net_level[static_cast<std::size_t>(n)] + 1);
      }
    }
    last_was_chain =
        type == GateType::kBuf || type == GateType::kInv;
    const GateId g = nl.add_gate(type, 'u' + std::to_string(i));
    for (NetId n : ins) {
      nl.connect_input(g, n);
      ++net_sinks[static_cast<std::size_t>(n)];
    }
    const NetId out = nl.add_net();
    nl.set_output(g, out);
    net_level.push_back(lvl);
    net_sinks.push_back(0);
    created.push_back(out);
  }

  // Collapse dangling nets with XOR trees until every remaining dangling net
  // can be consumed by a PO or a flop D pin.  This keeps (almost) every gate
  // structurally observable, which is what gives the benchmarks their high
  // fault coverage (paper Table III reports 97–99%).
  std::vector<NetId> dangling;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (net_sinks[static_cast<std::size_t>(n)] == 0) dangling.push_back(n);
  }
  rng.shuffle(dangling);
  const std::size_t consumers =
      static_cast<std::size_t>(config.num_pos + config.num_flops);
  std::size_t xor_count = 0;
  while (dangling.size() > consumers) {
    const NetId a = dangling.back();
    dangling.pop_back();
    const NetId b = dangling.back();
    dangling.pop_back();
    const GateId g =
        nl.add_gate(GateType::kXor, "xcoll" + std::to_string(xor_count++));
    nl.connect_input(g, a);
    nl.connect_input(g, b);
    const NetId out = nl.add_net();
    nl.set_output(g, out);
    net_level.push_back(std::max(net_level[static_cast<std::size_t>(a)],
                                 net_level[static_cast<std::size_t>(b)]) +
                        1);
    net_sinks.push_back(0);
    net_sinks[static_cast<std::size_t>(a)]++;
    net_sinks[static_cast<std::size_t>(b)]++;
    created.push_back(out);
    dangling.insert(dangling.begin(), out);  // consume later, prefer old nets
  }

  // Consume the remaining dangling nets with POs and flop D pins; any
  // consumer beyond the dangling count observes a random internal net.
  const auto next_consumed = [&]() -> NetId {
    if (!dangling.empty()) {
      const NetId n = dangling.back();
      dangling.pop_back();
      return n;
    }
    return created[rng.next_below(created.size())];
  };
  for (std::int32_t i = 0; i < config.num_pos; ++i) {
    const GateId po = nl.add_gate(GateType::kPrimaryOutput,
                                  "po" + std::to_string(i));
    const NetId n = next_consumed();
    nl.connect_input(po, n);
    ++net_sinks[static_cast<std::size_t>(n)];
  }
  for (GateId ff : flops) {
    const NetId n = next_consumed();
    nl.connect_input(ff, n);
    ++net_sinks[static_cast<std::size_t>(n)];
  }

  nl.finalize();
  return nl;
}

}  // namespace m3dfl
