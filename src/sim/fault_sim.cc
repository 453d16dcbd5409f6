#include "sim/fault_sim.h"

#include <algorithm>
#include <array>
#include <bit>

namespace m3dfl {

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const LocSimulator& good, const MivMap* mivs)
    : netlist_(&netlist), view_(&netlist.view()), good_(&good), mivs_(mivs) {
  M3DFL_REQUIRE(&good.netlist() == &netlist,
                "good-machine results belong to a different netlist");
  all_lanes_.assign(static_cast<std::size_t>(good.num_words()), ~0ULL);
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
  for (Plane& p : planes_) {
    p.val.assign(nets, 0);
    p.stamp.assign(nets, 0);
  }
  fault_slot_.assign(n, -1);
  queued_.assign(n, 0);
  level_queue_.resize(static_cast<std::size_t>(netlist.max_level()) + 1);
}

void FaultSimulator::load(std::span<const Fault> faults) {
  for (const GateFaults& gf : gate_faults_) {
    fault_slot_[static_cast<std::size_t>(gf.gate)] = -1;
  }
  gate_faults_.clear();
  has_static_ = false;
  const auto at = [&](GateId g) -> GateFaults& {
    std::int32_t& slot = fault_slot_[static_cast<std::size_t>(g)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(gate_faults_.size());
      gate_faults_.push_back(GateFaults{g});
    }
    return gate_faults_[static_cast<std::size_t>(slot)];
  };
  const auto add_branch = [&](const PinRef& ref, FaultType type) {
    GateFaults& gf = at(ref.gate);
    gf.branches = static_cast<std::uint8_t>(gf.branches | (1u << ref.input));
    gf.branch_type[static_cast<std::size_t>(ref.input)] = type;
  };
  for (const Fault& f : faults) {
    has_static_ = has_static_ || f.is_static();
    if (f.is_miv()) {
      M3DFL_REQUIRE(mivs_ != nullptr, "MIV fault simulated without an MIV map");
      for (const PinRef& sink : mivs_->miv(f.miv).far_sinks) {
        add_branch(sink, FaultType::kMivDelay);
      }
    } else if (const PinRef ref = netlist_->pin_ref(f.pin); ref.is_output()) {
      GateFaults& gf = at(ref.gate);
      gf.stem = true;
      gf.stem_type = f.type;
    } else {
      add_branch(ref, f.type);
    }
  }
}

void FaultSimulator::begin_pass() {
  ++pass_;
  terminals_.clear();
  first_level_ = static_cast<std::int32_t>(level_queue_.size());
  last_level_ = -1;
}

void FaultSimulator::schedule(GateId g) {
  const auto gi = static_cast<std::size_t>(g);
  if (queued_[gi] == pass_) return;
  queued_[gi] = pass_;
  const GateType type = view_->type[gi];
  if (is_combinational(type)) {
    const std::int32_t level = view_->level[gi];
    level_queue_[static_cast<std::size_t>(level)].push_back(g);
    first_level_ = std::min(first_level_, level);
    last_level_ = std::max(last_level_, level);
  } else if (type == GateType::kScanFlop ||
             type == GateType::kPrimaryOutput) {
    terminals_.push_back(g);
  }
}

void FaultSimulator::schedule_sinks(NetId net) {
  for (GateId sink : view_->sinks(net)) schedule(sink);
}

// A static fault forces its constant in both cycles; a delay fault acts only
// at capture, where it holds the site's launch value, the faulty V1.
template <int kCycle>
std::uint64_t FaultSimulator::apply(FaultType type, NetId net, std::int32_t w,
                                    std::uint64_t v) const {
  if constexpr (kCycle == kLaunch) {
    return is_static_fault(type) ? faulty_value(type, v, v) : v;
  } else {
    return faulty_value(type, value<kLaunch>(net, w), v);
  }
}

template <int kCycle>
std::size_t FaultSimulator::load_inputs(GateId g, std::int32_t w,
                                        std::uint64_t* inputs) {
  const auto gi = static_cast<std::size_t>(g);
  const std::span<const NetId> fanin = view_->fanin(g);
  M3DFL_ASSERT(fanin.size() <= 8);
  for (std::size_t i = 0; i < fanin.size(); ++i) {
    inputs[i] = value<kCycle>(fanin[i], w);
  }
  if (const GateFaults* gf = faults_at(gi)) {
    for (unsigned m = gf->branches; m != 0; m &= m - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(m));
      inputs[i] = apply<kCycle>(gf->branch_type[i], fanin[i], w, inputs[i]);
    }
  }
  return fanin.size();
}

template <int kCycle>
void FaultSimulator::seed(std::int32_t w, std::uint64_t lanes) {
  const auto acts = [](FaultType type) {
    return kCycle == kCapture || is_static_fault(type);
  };
  for (const GateFaults& gf : gate_faults_) {
    if (gf.stem && acts(gf.stem_type)) {
      // The stem's value as if its driver saw good inputs (a re-launched Q
      // included); a driver reached later re-evaluates it.
      const NetId net = view_->fanout[static_cast<std::size_t>(gf.gate)];
      const std::uint64_t f =
          apply<kCycle>(gf.stem_type, net, w, value<kCycle>(net, w));
      set_value<kCycle>(net, f);
      if (((f ^ good<kCycle>(net, w)) & lanes) != 0) schedule_sinks(net);
    }
    for (unsigned m = gf.branches; m != 0; m &= m - 1) {
      if (acts(gf.branch_type[static_cast<std::size_t>(std::countr_zero(m))])) {
        schedule(gf.gate);
      }
    }
  }
}

template <int kCycle>
void FaultSimulator::propagate(std::int32_t w, std::uint64_t lanes) {
  const NetlistView& view = *view_;
  std::uint64_t inputs[8];
  // Level by level: a gate's sinks sit at higher levels, so each gate is
  // evaluated once, after every fan-in change has arrived.
  for (std::int32_t level = first_level_; level <= last_level_; ++level) {
    std::vector<GateId>& queue = level_queue_[static_cast<std::size_t>(level)];
    for (const GateId g : queue) {
      const auto gi = static_cast<std::size_t>(g);
      const std::size_t k = load_inputs<kCycle>(g, w, inputs);
      std::uint64_t outv = eval_gate(view.type[gi],
                                     std::span<const std::uint64_t>(inputs, k));
      const NetId out_net = view.fanout[gi];
      if (const GateFaults* gf = faults_at(gi); gf != nullptr && gf->stem) {
        // The driver of a seeded stem: its value replaces the seed, even
        // when it is the good one.
        outv = apply<kCycle>(gf->stem_type, out_net, w, outv);
        set_value<kCycle>(out_net, outv);
      }
      if (((outv ^ good<kCycle>(out_net, w)) & lanes) == 0) continue;
      set_value<kCycle>(out_net, outv);
      schedule_sinks(out_net);
    }
    queue.clear();
  }
}

bool FaultSimulator::simulate_one_word(std::int32_t w, std::uint64_t lanes,
                                       std::vector<Observation>* out) {
  const NetlistView& view = *view_;
  ++version_;
  std::uint64_t inputs[8];

  // Launch cycle (static faults only): the flops its pass reaches capture
  // their faulty V1 at the launch edge, and their Q nets carry it through
  // the capture cycle.  The good launch state is the good V2 of the Q net.
  relaunched_.clear();
  if (has_static_) {
    begin_pass();
    seed<kLaunch>(w, lanes);
    propagate<kLaunch>(w, lanes);
    for (const GateId g : terminals_) {
      const NetId q = view.fanout[static_cast<std::size_t>(g)];
      if (q == kNullNet) continue;  // a PO
      load_inputs<kLaunch>(g, w, inputs);
      if (((inputs[0] ^ good_->v2(q, w)) & lanes) == 0) continue;
      set_value<kCapture>(q, inputs[0]);
      relaunched_.push_back(q);
    }
  }

  // At-speed capture cycle.
  begin_pass();
  for (const NetId q : relaunched_) schedule_sinks(q);
  seed<kCapture>(w, lanes);
  propagate<kCapture>(w, lanes);

  // The failing flops and POs of this word.
  hits_.clear();
  for (const GateId g : terminals_) {
    load_inputs<kCapture>(g, w, inputs);
    // The good captured value (flop) or PO value is the good V2 of the
    // terminal's input net.
    const NetId in = view.fanin(g)[0];
    const std::uint64_t diff = (inputs[0] ^ good_->v2(in, w)) & lanes;
    if (diff == 0) continue;
    if (out == nullptr) return true;
    const bool at_po =
        view.type[static_cast<std::size_t>(g)] == GateType::kPrimaryOutput;
    hits_.push_back(Hit{at_po,
                        at_po ? po_index_[static_cast<std::size_t>(g)]
                              : flop_index_[static_cast<std::size_t>(g)],
                        diff});
  }
  if (hits_.empty()) return false;

  // Emit in Observation order, so that the words concatenate sorted: the
  // hits sorted by observation point, then one counting pass that buckets
  // their failing lanes by pattern.
  std::sort(hits_.begin(), hits_.end(), [](const Hit& x, const Hit& y) {
    return x.at_po != y.at_po ? y.at_po : x.index < y.index;
  });
  std::array<std::size_t, kWordBits + 1> next{};
  for (const Hit& h : hits_) {
    for (std::uint64_t d = h.diff; d != 0; d &= d - 1) {
      ++next[static_cast<std::size_t>(std::countr_zero(d)) + 1];
    }
  }
  // next[b]: where lane b's first observation goes.
  std::size_t end = out->size();
  for (std::size_t& n : next) {
    end += n;
    n = end;
  }
  out->resize(end);
  for (const Hit& h : hits_) {
    for (std::uint64_t d = h.diff; d != 0; d &= d - 1) {
      const int b = std::countr_zero(d);
      (*out)[next[static_cast<std::size_t>(b)]++] =
          Observation{w * kWordBits + b, h.at_po, h.index};
    }
  }
  return true;
}

bool FaultSimulator::run(std::span<const Fault> faults,
                         std::span<const std::uint64_t> lanes,
                         std::vector<Observation>* out) {
  M3DFL_REQUIRE(static_cast<std::int32_t>(lanes.size()) == good_->num_words(),
                "one lane mask per pattern word expected");
  load(faults);
  bool any = false;
  for (std::int32_t w = 0; w < good_->num_words(); ++w) {
    const std::uint64_t mask = lanes[static_cast<std::size_t>(w)] &
                               valid_mask(good_->num_patterns(), w);
    if (mask == 0) continue;
    any |= simulate_one_word(w, mask, out);
    if (any && out == nullptr) return true;
  }
  return any;
}

std::vector<Observation> FaultSimulator::simulate(
    std::span<const Fault> faults, std::span<const std::uint64_t> lanes) {
  std::vector<Observation> out;
  run(faults, lanes, &out);
  return out;
}

bool FaultSimulator::detects(const Fault& fault) {
  return run(std::span<const Fault>(&fault, 1), all_lanes_, nullptr);
}

}  // namespace m3dfl
