#include "baseline_fault_sim.h"

#include <algorithm>
#include <bit>
#include <queue>

namespace m3dfl::testing {

BaselineFaultSim::BaselineFaultSim(const Netlist& netlist,
                                   const LocSimulator& good,
                                   const MivMap* mivs)
    : netlist_(&netlist), good_(&good), mivs_(mivs) {
  M3DFL_REQUIRE(&good.netlist() == &netlist,
                "good-machine results belong to a different netlist");
  const auto n = static_cast<std::size_t>(netlist.num_gates());
  flop_index_.assign(n, -1);
  for (std::size_t i = 0; i < netlist.flops().size(); ++i) {
    flop_index_[static_cast<std::size_t>(netlist.flops()[i])] =
        static_cast<std::int32_t>(i);
  }
  po_index_.assign(n, -1);
  for (std::size_t i = 0; i < netlist.primary_outputs().size(); ++i) {
    po_index_[static_cast<std::size_t>(netlist.primary_outputs()[i])] =
        static_cast<std::int32_t>(i);
  }
  const auto nets = static_cast<std::size_t>(netlist.num_nets());
  val_.assign(nets, 0);
  stamp_.assign(nets, 0);
  val1_.assign(nets, 0);
  stamp1_.assign(nets, 0);
}

BaselineFaultSim::Cone BaselineFaultSim::build_cone(
    std::span<const Fault> faults) const {
  const Netlist& nl = *netlist_;
  Cone cone;
  std::vector<char> gate_seen(static_cast<std::size_t>(nl.num_gates()), 0);
  std::vector<char> flop_seen(nl.flops().size(), 0);
  std::vector<char> po_seen(nl.primary_outputs().size(), 0);
  std::queue<GateId> frontier;

  const auto touch_gate = [&](GateId g) {
    if (gate_seen[static_cast<std::size_t>(g)]) return;
    gate_seen[static_cast<std::size_t>(g)] = 1;
    const Gate& gate = nl.gate(g);
    if (is_combinational(gate.type)) {
      frontier.push(g);
    } else if (gate.type == GateType::kScanFlop) {
      const std::int32_t fi = flop_index_[static_cast<std::size_t>(g)];
      if (!flop_seen[static_cast<std::size_t>(fi)]) {
        flop_seen[static_cast<std::size_t>(fi)] = 1;
        cone.flops.push_back(fi);
      }
    } else if (gate.type == GateType::kPrimaryOutput) {
      const std::int32_t pi = po_index_[static_cast<std::size_t>(g)];
      if (!po_seen[static_cast<std::size_t>(pi)]) {
        po_seen[static_cast<std::size_t>(pi)] = 1;
        cone.pos.push_back(pi);
      }
    }
  };
  const auto drain = [&] {
    while (!frontier.empty()) {
      const GateId g = frontier.front();
      frontier.pop();
      cone.gates.push_back(g);
      const NetId out = nl.gate(g).fanout;
      for (const PinRef& sink : nl.net(out).sinks) touch_gate(sink.gate);
    }
  };

  for (const Fault& f : faults) {
    cone.has_static = cone.has_static || f.is_static();
    if (f.is_miv()) {
      M3DFL_REQUIRE(mivs_ != nullptr,
                    "MIV fault simulated without an MIV map");
      const Miv& miv = mivs_->miv(f.miv);
      for (const PinRef& sink : miv.far_sinks) {
        cone.branches[nl.pin_id(sink)] = FaultType::kMivDelay;
        touch_gate(sink.gate);
      }
      continue;
    }
    const PinRef ref = nl.pin_ref(f.pin);
    if (ref.is_output()) {
      const NetId net = nl.gate(ref.gate).fanout;
      M3DFL_ASSERT(net != kNullNet);
      cone.stems[net] = f.type;
      for (const PinRef& sink : nl.net(net).sinks) touch_gate(sink.gate);
    } else {
      cone.branches[f.pin] = f.type;
      touch_gate(ref.gate);
    }
  }
  drain();
  // Gates reachable in the launch-cycle cone (before the static extension
  // below): stem overrides on nets driven from outside this set must be
  // seeded in the launch cycle.
  const std::vector<char> seen_v1 = gate_seen;

  // Static faults corrupt the launch state: the flops reached in the V1 cone
  // re-launch from faulty values, so the capture-cycle cone extends through
  // their Q fan-out.  (Flops discovered during this extension capture at V2
  // only — their launch is unaffected — so the extension runs once.)
  if (cone.has_static) {
    cone.gates_v1 = cone.gates;
    cone.launch_flops = cone.flops;
    for (std::int32_t fi : cone.launch_flops) {
      const GateId ff = nl.flops()[static_cast<std::size_t>(fi)];
      const NetId qnet = nl.gate(ff).fanout;
      if (qnet == kNullNet) continue;
      for (const PinRef& sink : nl.net(qnet).sinks) touch_gate(sink.gate);
    }
    drain();
  }

  // Level order is a topological order of the combinational gates.
  const auto by_level = [&](GateId a, GateId b) {
    const std::int32_t la = nl.level(a);
    const std::int32_t lb = nl.level(b);
    return la != lb ? la < lb : a < b;
  };
  std::sort(cone.gates.begin(), cone.gates.end(), by_level);
  std::sort(cone.gates_v1.begin(), cone.gates_v1.end(), by_level);

  // Stems whose driver is not re-evaluated in a cycle's schedule must be
  // applied as seed values for that cycle.  The two cycles differ: the
  // static extension can pull a stem's driver into the capture-cycle
  // schedule (feedback through a re-launched flop) while the launch cycle
  // still needs the seed.
  for (const auto& [net, type] : cone.stems) {
    (void)type;
    const GateId driver = nl.net(net).driver;
    const bool comb = is_combinational(nl.gate(driver).type);
    if (!gate_seen[static_cast<std::size_t>(driver)] || !comb) {
      cone.seed_stems.push_back(net);
    }
    if (!seen_v1[static_cast<std::size_t>(driver)] || !comb) {
      cone.seed_stems_v1.push_back(net);
    }
  }
  return cone;
}

void BaselineFaultSim::simulate_word(const Cone& cone, std::int32_t w,
                                     std::vector<Observation>* out) {
  const Netlist& nl = *netlist_;
  ++version_;
  std::uint64_t inputs[8];

  // ---- Launch cycle (static faults only) -----------------------------------
  if (cone.has_static) {
    for (NetId net : cone.seed_stems_v1) {
      const FaultType type = cone.stems.at(net);
      if (!is_static_fault(type)) continue;
      const std::uint64_t cur = good_->v1(net, w);
      const std::uint64_t f = faulty_value(type, cur, cur);
      if (f != cur) set_value_v1(net, f);
    }
    for (GateId g : cone.gates_v1) {
      const Gate& gate = nl.gate(g);
      const std::size_t k = gate.fanin.size();
      M3DFL_ASSERT(k <= 8);
      for (std::size_t i = 0; i < k; ++i) {
        const NetId net = gate.fanin[i];
        std::uint64_t v = value_v1(net, w);
        if (!cone.branches.empty()) {
          const auto it = cone.branches.find(
              nl.input_pin(g, static_cast<std::int32_t>(i)));
          if (it != cone.branches.end() && is_static_fault(it->second)) {
            v = faulty_value(it->second, v, v);
          }
        }
        inputs[i] = v;
      }
      std::uint64_t outv =
          eval_gate(gate.type, std::span<const std::uint64_t>(inputs, k));
      const NetId out_net = gate.fanout;
      const auto stem_it = cone.stems.find(out_net);
      if (stem_it != cone.stems.end() && is_static_fault(stem_it->second)) {
        outv = faulty_value(stem_it->second, outv, outv);
      }
      if (outv != good_->v1(out_net, w)) set_value_v1(out_net, outv);
    }
    // Re-launch the affected flops: their Q nets carry the faulty captured
    // values through the at-speed cycle.
    for (std::int32_t fi : cone.launch_flops) {
      const GateId ff = nl.flops()[static_cast<std::size_t>(fi)];
      const NetId dnet = nl.gate(ff).fanin[0];
      std::uint64_t v = value_v1(dnet, w);
      if (!cone.branches.empty()) {
        const auto it = cone.branches.find(nl.input_pin(ff, 0));
        if (it != cone.branches.end() && is_static_fault(it->second)) {
          v = faulty_value(it->second, v, v);
        }
      }
      const NetId qnet = nl.gate(ff).fanout;
      if (qnet != kNullNet && v != good_->v2(qnet, w)) {
        // Good launch state == good v1 of the D net == good v2 of the Q net.
        set_value(qnet, v);
      }
    }
  }

  // ---- At-speed capture cycle ----------------------------------------------
  for (NetId net : cone.seed_stems) {
    const FaultType type = cone.stems.at(net);
    const std::uint64_t cur = value(net, w);
    const std::uint64_t f = faulty_value(type, value_v1(net, w), cur);
    if (f != cur) set_value(net, f);
  }

  for (GateId g : cone.gates) {
    const Gate& gate = nl.gate(g);
    const std::size_t k = gate.fanin.size();
    M3DFL_ASSERT(k <= 8);
    for (std::size_t i = 0; i < k; ++i) {
      const NetId net = gate.fanin[i];
      std::uint64_t v = value(net, w);
      if (!cone.branches.empty()) {
        const auto it =
            cone.branches.find(nl.input_pin(g, static_cast<std::int32_t>(i)));
        if (it != cone.branches.end()) {
          v = faulty_value(it->second, value_v1(net, w), v);
        }
      }
      inputs[i] = v;
    }
    std::uint64_t outv =
        eval_gate(gate.type, std::span<const std::uint64_t>(inputs, k));
    const NetId out_net = gate.fanout;
    const auto stem_it = cone.stems.find(out_net);
    if (stem_it != cone.stems.end()) {
      outv = faulty_value(stem_it->second, value_v1(out_net, w), outv);
    }
    if (outv != good_->v2(out_net, w)) {
      set_value(out_net, outv);
    } else if (stamp_[static_cast<std::size_t>(out_net)] == version_) {
      // A launch-perturbed Q value may have seeded this net; the driver's
      // re-evaluation settles it back to the good value.
      set_value(out_net, outv);
    }
  }

  const std::uint64_t mask = valid_mask(good_->num_patterns(), w);
  const auto emit = [&](std::uint64_t diff, bool at_po, std::int32_t index) {
    diff &= mask;
    while (diff != 0) {
      const int b = std::countr_zero(diff);
      diff &= diff - 1;
      out->push_back(Observation{w * kWordBits + b, at_po, index});
    }
  };

  for (std::int32_t fi : cone.flops) {
    const GateId g = nl.flops()[static_cast<std::size_t>(fi)];
    const NetId dnet = nl.gate(g).fanin[0];
    std::uint64_t v = value(dnet, w);
    if (!cone.branches.empty()) {
      const auto it = cone.branches.find(nl.input_pin(g, 0));
      if (it != cone.branches.end()) {
        v = faulty_value(it->second, value_v1(dnet, w), v);
      }
    }
    emit(v ^ good_->captured(fi, w), /*at_po=*/false, fi);
  }
  for (std::int32_t pi : cone.pos) {
    const GateId g = nl.primary_outputs()[static_cast<std::size_t>(pi)];
    const NetId onet = nl.gate(g).fanin[0];
    std::uint64_t v = value(onet, w);
    if (!cone.branches.empty()) {
      const auto it = cone.branches.find(nl.input_pin(g, 0));
      if (it != cone.branches.end()) {
        v = faulty_value(it->second, value_v1(onet, w), v);
      }
    }
    emit(v ^ good_->po_value(pi, w), /*at_po=*/true, pi);
  }
}

std::vector<Observation> BaselineFaultSim::simulate(
    std::span<const Fault> faults) {
  const Cone cone = build_cone(faults);
  std::vector<Observation> out;
  for (std::int32_t w = 0; w < good_->num_words(); ++w) {
    simulate_word(cone, w, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace m3dfl::testing
