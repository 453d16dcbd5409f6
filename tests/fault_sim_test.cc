#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "baseline_fault_sim.h"
#include "core/pipeline.h"
#include "diag/datagen.h"
#include "m3d/partition.h"
#include "sim/fault_sim.h"
#include "sta/collapse.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

using testing::BaselineFaultSim;

// Brute-force reference: full scalar re-simulation of the faulty machine,
// one pattern at a time, with no cone extraction or word packing.  Both the
// event kernel and the cone-scheduled baseline must match this.
class ReferenceSim {
 public:
  ReferenceSim(const Netlist& nl, const PatternSet& patterns,
               const MivMap* mivs)
      : nl_(nl), patterns_(patterns), mivs_(mivs) {}

  std::vector<Observation> simulate(std::span<const Fault> faults) const {
    // Branch overrides: input pin -> fault type; stem overrides: net -> type.
    std::map<PinId, FaultType> branches;
    std::map<NetId, FaultType> stems;
    for (const Fault& f : faults) {
      if (f.is_miv()) {
        const Miv& miv = mivs_->miv(f.miv);
        for (const PinRef& sink : miv.far_sinks) {
          branches[nl_.pin_id(sink)] = FaultType::kMivDelay;
        }
      } else if (nl_.pin_ref(f.pin).is_output()) {
        stems[nl_.pin_net(f.pin)] = f.type;
      } else {
        branches[f.pin] = f.type;
      }
    }

    std::vector<Observation> out;
    for (std::int32_t p = 0; p < patterns_.num_patterns; ++p) {
      const std::vector<char> v1_good = evaluate_v1(p, {}, {});
      const std::vector<char> good_v2 =
          evaluate_v2(p, v1_good, v1_good, {}, {});
      // Static faults corrupt the launch cycle too; evaluate_v1 applies only
      // the static subset of the overrides.
      const std::vector<char> v1_bad = evaluate_v1(p, branches, stems);
      const std::vector<char> bad_v2 =
          evaluate_v2(p, v1_bad, v1_bad, branches, stems);
      for (std::size_t i = 0; i < nl_.flops().size(); ++i) {
        const GateId ff = nl_.flops()[i];
        const NetId d = nl_.gate(ff).fanin[0];
        bool good = good_v2[static_cast<std::size_t>(d)] != 0;
        bool bad = bad_v2[static_cast<std::size_t>(d)] != 0;
        bad = apply_branch(branches, nl_.input_pin(ff, 0), d, v1_bad, bad);
        if (good != bad) {
          out.push_back(Observation{p, false, static_cast<std::int32_t>(i)});
        }
      }
      for (std::size_t i = 0; i < nl_.primary_outputs().size(); ++i) {
        const GateId po = nl_.primary_outputs()[i];
        const NetId n = nl_.gate(po).fanin[0];
        bool good = good_v2[static_cast<std::size_t>(n)] != 0;
        bool bad = bad_v2[static_cast<std::size_t>(n)] != 0;
        bad = apply_branch(branches, nl_.input_pin(po, 0), n, v1_bad, bad);
        if (good != bad) {
          out.push_back(Observation{p, true, static_cast<std::int32_t>(i)});
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static bool scalar_fault(FaultType type, bool launch, bool current) {
    return (faulty_value(type, launch ? ~0ULL : 0u,
                         current ? ~0ULL : 0u) & 1u) != 0;
  }

  bool apply_branch(const std::map<PinId, FaultType>& branches, PinId pin,
                    NetId net, const std::vector<char>& v1,
                    bool current) const {
    const auto it = branches.find(pin);
    if (it == branches.end()) return current;
    return scalar_fault(it->second, v1[static_cast<std::size_t>(net)] != 0,
                        current);
  }

  // Launch-cycle evaluation; only the *static* overrides act in this cycle.
  std::vector<char> evaluate_v1(
      std::int32_t p, const std::map<PinId, FaultType>& branches,
      const std::map<NetId, FaultType>& stems) const {
    std::map<PinId, FaultType> static_branches;
    std::map<NetId, FaultType> static_stems;
    for (const auto& [pin, type] : branches) {
      if (is_static_fault(type)) static_branches[pin] = type;
    }
    for (const auto& [net, type] : stems) {
      if (is_static_fault(type)) static_stems[net] = type;
    }
    std::vector<char> value(static_cast<std::size_t>(nl_.num_nets()), 0);
    for (std::size_t i = 0; i < nl_.primary_inputs().size(); ++i) {
      value[static_cast<std::size_t>(
          nl_.gate(nl_.primary_inputs()[i]).fanout)] =
          patterns_.pi.bit(static_cast<std::int32_t>(i), p) ? 1 : 0;
    }
    for (std::size_t i = 0; i < nl_.flops().size(); ++i) {
      value[static_cast<std::size_t>(nl_.gate(nl_.flops()[i]).fanout)] =
          patterns_.scan.bit(static_cast<std::int32_t>(i), p) ? 1 : 0;
    }
    // Static seeds on source nets (constants ignore the launch argument).
    for (const auto& [net, type] : static_stems) {
      const GateId driver = nl_.net(net).driver;
      if (!is_combinational(nl_.gate(driver).type)) {
        value[static_cast<std::size_t>(net)] =
            scalar_fault(type, false, false) ? 1 : 0;
      }
    }
    if (static_branches.empty() && static_stems.empty()) {
      evaluate_comb(value, {}, {}, {});
    } else {
      evaluate_comb(value, value, static_branches, static_stems);
    }
    return value;
  }

  std::vector<char> evaluate_v2(std::int32_t p,
                                const std::vector<char>& launch,
                                const std::vector<char>& v1,
                                const std::map<PinId, FaultType>& branches,
                                const std::map<NetId, FaultType>& stems) const {
    (void)p;
    std::vector<char> value(static_cast<std::size_t>(nl_.num_nets()), 0);
    for (std::size_t i = 0; i < nl_.primary_inputs().size(); ++i) {
      value[static_cast<std::size_t>(
          nl_.gate(nl_.primary_inputs()[i]).fanout)] =
          patterns_.pi.bit(static_cast<std::int32_t>(i), p) ? 1 : 0;
    }
    for (std::size_t i = 0; i < nl_.flops().size(); ++i) {
      const Gate& ff = nl_.gate(nl_.flops()[i]);
      // Launch state: D value at (possibly faulty) V1, with any static/delay
      // override at the D pin applied at the launch capture.
      bool d = launch[static_cast<std::size_t>(ff.fanin[0])] != 0;
      d = apply_branch(branches, nl_.input_pin(nl_.flops()[i], 0),
                       ff.fanin[0], v1, d);
      value[static_cast<std::size_t>(ff.fanout)] = d ? 1 : 0;
    }
    // Seed stem overrides on source nets.
    for (const auto& [net, type] : stems) {
      const GateId driver = nl_.net(net).driver;
      if (!is_combinational(nl_.gate(driver).type)) {
        value[static_cast<std::size_t>(net)] =
            scalar_fault(type, v1[static_cast<std::size_t>(net)] != 0,
                         value[static_cast<std::size_t>(net)] != 0)
                ? 1
                : 0;
      }
    }
    evaluate_comb(value, v1, branches, stems);
    return value;
  }

  void evaluate_comb(std::vector<char>& value, const std::vector<char>& v1,
                     const std::map<PinId, FaultType>& branches,
                     const std::map<NetId, FaultType>& stems) const {
    for (GateId g : nl_.topo_order()) {
      const Gate& gate = nl_.gate(g);
      bool ins[8];
      std::size_t k = 0;
      for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
        const NetId in = gate.fanin[i];
        bool v = value[static_cast<std::size_t>(in)] != 0;
        if (!v1.empty()) {
          v = apply_branch(branches,
                           nl_.input_pin(g, static_cast<std::int32_t>(i)), in,
                           v1, v);
        }
        ins[k++] = v;
      }
      bool out = eval_gate_scalar(gate.type, std::span<const bool>(ins, k));
      if (!v1.empty()) {
        const auto it = stems.find(gate.fanout);
        if (it != stems.end()) {
          out = scalar_fault(it->second,
                             v1[static_cast<std::size_t>(gate.fanout)] != 0,
                             out);
        }
      }
      value[static_cast<std::size_t>(gate.fanout)] = out ? 1 : 0;
    }
  }

  const Netlist& nl_;
  const PatternSet& patterns_;
  const MivMap* mivs_;
};

// An oracle's observations restricted to the lanes set in `lanes`.
std::vector<Observation> in_lanes(std::vector<Observation> obs,
                                  const std::vector<std::uint64_t>& lanes) {
  std::erase_if(obs, [&](const Observation& o) {
    return ((lanes[static_cast<std::size_t>(o.pattern / kWordBits)] >>
             (o.pattern % kWordBits)) & 1) == 0;
  });
  return obs;
}

// Eight seeded lane masks from dense (half the lanes) to sparse (one in 16).
std::vector<std::vector<std::uint64_t>> random_lane_masks(
    std::int32_t num_words, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> masks;
  for (int k = 0; k < 8; ++k) {
    std::vector<std::uint64_t> mask(static_cast<std::size_t>(num_words));
    for (std::uint64_t& word : mask) {
      word = ~0ULL;
      for (int j = 0; j <= k % 4; ++j) word &= rng.next_u64();
    }
    masks.push_back(std::move(mask));
  }
  return masks;
}

// The kernel on one fault set against an oracle's all-lane result `want`:
// all lanes, and each of `masks`.
void expect_kernel_matches(FaultSimulator& fsim, std::span<const Fault> faults,
                           const std::vector<Observation>& want,
                           const std::vector<std::vector<std::uint64_t>>& masks,
                           const Netlist& nl) {
  std::string what;
  for (const Fault& f : faults) what += fault_to_string(nl, f) + " ";
  ASSERT_EQ(fsim.simulate(faults), want) << what;
  for (std::size_t k = 0; k < masks.size(); ++k) {
    ASSERT_EQ(fsim.simulate(faults, masks[k]), in_lanes(want, masks[k]))
        << what << "mask " << k;
  }
}

struct SimSetup {
  Netlist nl;
  TierAssignment tiers;
  MivMap mivs;
  PatternSet patterns;
  LocSimulator sim;

  explicit SimSetup(std::uint64_t seed)
      : nl(testing::small_netlist(seed)),
        tiers(partition_tiers(nl, {})),
        mivs(nl, tiers),
        patterns([&] {
          Rng rng(seed ^ 0xF00D);
          return PatternSet::random(
              static_cast<std::int32_t>(nl.primary_inputs().size()),
              static_cast<std::int32_t>(nl.flops().size()), 80, rng);
        }()),
        sim(nl) {
    sim.run(patterns);
  }
};

class FaultSimVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSimVsReference, RandomTdfFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  BaselineFaultSim base(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 25; ++trial) {
    const PinId pin =
        static_cast<PinId>(rng.next_below(
            static_cast<std::uint64_t>(s.nl.num_pins())));
    const Fault f = rng.next_bool() ? Fault::slow_to_rise(pin)
                                    : Fault::slow_to_fall(pin);
    const std::vector<Observation> want = ref.simulate({&f, 1});
    EXPECT_EQ(fsim.simulate(f), want) << fault_to_string(s.nl, f);
    EXPECT_EQ(base.simulate(f), want) << fault_to_string(s.nl, f);
  }
}

TEST_P(FaultSimVsReference, MivFaultsMatch) {
  SimSetup s(GetParam());
  ASSERT_GT(s.mivs.num_mivs(), 0);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  BaselineFaultSim base(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0xCAFE);
  for (int trial = 0; trial < 10; ++trial) {
    const Fault f = Fault::miv_delay(static_cast<MivId>(
        rng.next_below(static_cast<std::uint64_t>(s.mivs.num_mivs()))));
    const std::vector<Observation> want = ref.simulate({&f, 1});
    EXPECT_EQ(fsim.simulate(f), want) << fault_to_string(s.nl, f);
    EXPECT_EQ(base.simulate(f), want) << fault_to_string(s.nl, f);
  }
}

TEST_P(FaultSimVsReference, MultiFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  BaselineFaultSim base(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  const auto masks = random_lane_masks(s.sim.num_words(), GetParam());
  Rng rng(GetParam() ^ 0xD00D);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Fault> faults;
    const int k = 2 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < k; ++i) {
      const PinId pin = static_cast<PinId>(
          rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
      faults.push_back(rng.next_bool() ? Fault::slow_to_rise(pin)
                                       : Fault::slow_to_fall(pin));
    }
    const std::vector<Observation> want = ref.simulate(faults);
    EXPECT_EQ(base.simulate(faults), want);
    expect_kernel_matches(fsim, faults, want, masks, s.nl);
  }
}

TEST_P(FaultSimVsReference, StuckAtFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  BaselineFaultSim base(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  const auto masks = random_lane_masks(s.sim.num_words(), GetParam());
  Rng rng(GetParam() ^ 0x5A5A);
  for (int trial = 0; trial < 20; ++trial) {
    const PinId pin = static_cast<PinId>(
        rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
    const Fault f = Fault::stuck_at(pin, rng.next_bool());
    const std::vector<Observation> want = ref.simulate({&f, 1});
    EXPECT_EQ(base.simulate(f), want) << fault_to_string(s.nl, f);
    expect_kernel_matches(fsim, {&f, 1}, want, masks, s.nl);
  }
}

TEST_P(FaultSimVsReference, MixedStaticAndDelayFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  BaselineFaultSim base(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  const auto masks = random_lane_masks(s.sim.num_words(), GetParam());
  Rng rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Fault> faults;
    for (int i = 0; i < 3; ++i) {
      const PinId pin = static_cast<PinId>(
          rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
      switch (rng.next_below(4)) {
        case 0: faults.push_back(Fault::slow_to_rise(pin)); break;
        case 1: faults.push_back(Fault::slow_to_fall(pin)); break;
        case 2: faults.push_back(Fault::stuck_at(pin, false)); break;
        default: faults.push_back(Fault::stuck_at(pin, true)); break;
      }
    }
    const std::vector<Observation> want = ref.simulate(faults);
    EXPECT_EQ(base.simulate(faults), want);
    expect_kernel_matches(fsim, faults, want, masks, s.nl);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSimVsReference,
                         ::testing::Values(1, 7, 23, 41, 77));

TEST(FaultSimTest, StuckAtCorruptsLaunchState) {
  // pi -> ff_a (D) ; ff_a.Q -> INV -> ff_b (D).  A SA1 on pi's net corrupts
  // ff_a's launch capture, which only becomes observable at ff_b through the
  // second cycle — the two-cycle semantics a capture-only model would miss.
  Netlist nl;
  const GateId pi = nl.add_gate(GateType::kPrimaryInput, "pi");
  const GateId ffa = nl.add_gate(GateType::kScanFlop, "ffa");
  const GateId inv = nl.add_gate(GateType::kInv, "inv");
  const GateId ffb = nl.add_gate(GateType::kScanFlop, "ffb");
  const NetId n_pi = nl.add_net();
  const NetId n_qa = nl.add_net();
  const NetId n_i = nl.add_net();
  const NetId n_qb = nl.add_net();  // scan-observed only
  nl.set_output(pi, n_pi);
  nl.set_output(ffa, n_qa);
  nl.set_output(inv, n_i);
  nl.set_output(ffb, n_qb);
  nl.connect_input(ffa, n_pi);
  nl.connect_input(inv, n_qa);
  nl.connect_input(ffb, n_i);
  nl.finalize();

  // One pattern: pi = 0, both flops load 0.
  PatternSet p;
  p.num_patterns = 1;
  p.pi = BitMatrix(1, 1);
  p.scan = BitMatrix(2, 1);
  LocSimulator sim(nl);
  sim.run(p);
  FaultSimulator fsim(nl, sim);

  // Good: launch captures ffa <- 0, V2: inv(0) = 1, ffb captures 1 and
  // ffa re-captures 0.  SA1 on the PI net: launch ffa <- 1, V2 inv(1) = 0 at
  // ffb, and ffa re-captures 1.
  const auto obs =
      fsim.simulate(Fault::stuck_at(nl.output_pin(pi), true));
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0], (Observation{0, false, 0}));  // ffa: 0 -> 1
  EXPECT_EQ(obs[1], (Observation{0, false, 1}));  // ffb: 1 -> 0

  // A delay fault on ffa's Q acts on the re-launched value: Q rises from
  // its scan load 0 to the faulty launch 1, which a slow-to-fall fault lets
  // through (ffb still fails) and a slow-to-rise fault holds at 0 (ffb
  // captures the good 1).
  const Fault sa1 = Fault::stuck_at(nl.output_pin(pi), true);
  const std::vector<Fault> with_stf = {sa1,
                                       Fault::slow_to_fall(nl.output_pin(ffa))};
  const std::vector<Fault> with_str = {sa1,
                                       Fault::slow_to_rise(nl.output_pin(ffa))};
  EXPECT_EQ(fsim.simulate(with_stf), obs);
  EXPECT_EQ(fsim.simulate(with_str),
            std::vector<Observation>{(Observation{0, false, 0})});
  BaselineFaultSim base(nl, sim);
  EXPECT_EQ(base.simulate(with_stf), obs);
  EXPECT_EQ(base.simulate(with_str),
            std::vector<Observation>{(Observation{0, false, 0})});
}

TEST(FaultSimTest, DetectsAgreesWithSimulate) {
  SimSetup s(11);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const PinId pin = static_cast<PinId>(
        rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
    const Fault f = rng.next_bool() ? Fault::slow_to_rise(pin)
                                    : Fault::slow_to_fall(pin);
    EXPECT_EQ(fsim.detects(f), !fsim.simulate(f).empty());
  }
}

TEST(FaultSimTest, OppositeDirectionsDisjointActivation) {
  // A pattern that activates STR at a site cannot simultaneously activate
  // STF there: per pattern, the failing sets of the two directions at one
  // pin are disjoint.
  SimSetup s(13);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  const PinId pin = s.nl.output_pin(s.nl.topo_order()[5]);
  const auto rises = fsim.simulate(Fault::slow_to_rise(pin));
  const auto falls = fsim.simulate(Fault::slow_to_fall(pin));
  for (const Observation& r : rises) {
    for (const Observation& f : falls) {
      EXPECT_FALSE(r == f);
    }
  }
}

TEST(FaultSimTest, MivFaultSparesNearTierSinks) {
  // Build a dedicated circuit: one net with a near-tier and a far-tier sink.
  Netlist nl;
  const GateId pi = nl.add_gate(GateType::kPrimaryInput, "pi");
  const GateId ff_src = nl.add_gate(GateType::kScanFlop, "ffs");
  const GateId buf = nl.add_gate(GateType::kBuf, "buf");
  const GateId ff_near = nl.add_gate(GateType::kScanFlop, "ffn");
  const GateId ff_far = nl.add_gate(GateType::kScanFlop, "fff");
  const GateId po = nl.add_gate(GateType::kPrimaryOutput, "po");
  const NetId n_pi = nl.add_net();
  const NetId n_q = nl.add_net();
  const NetId n_b = nl.add_net();
  const NetId n_n = nl.add_net();
  const NetId n_f = nl.add_net();
  nl.set_output(pi, n_pi);
  nl.set_output(ff_src, n_q);
  nl.set_output(buf, n_b);
  nl.set_output(ff_near, n_n);
  nl.set_output(ff_far, n_f);
  nl.connect_input(buf, n_q);
  nl.connect_input(ff_near, n_b);  // near-tier sink of n_b
  nl.connect_input(ff_far, n_b);   // far-tier sink of n_b
  nl.connect_input(ff_src, n_pi);
  nl.connect_input(po, n_n);
  (void)n_f;
  nl.finalize();

  std::vector<std::int8_t> tiers(static_cast<std::size_t>(nl.num_gates()),
                                 static_cast<std::int8_t>(kBottomTier));
  TierAssignment ta(std::move(tiers));
  ta.set_tier(ff_far, kTopTier);
  const MivMap mivs(nl, ta);
  const MivId miv = mivs.miv_of_net(n_b);
  ASSERT_NE(miv, kNullMiv);

  // Patterns: load ffs with 0 then launch 1 (transition on n_b).
  PatternSet p;
  p.num_patterns = 1;
  p.pi = BitMatrix(1, 1);
  p.scan = BitMatrix(3, 1);
  p.pi.set_bit(0, 0, true);   // D of ff_src = 1
  // scan order = flop order: ffs, ffn, fff all load 0.
  LocSimulator sim(nl);
  sim.run(p);

  FaultSimulator fsim(nl, sim, &mivs);
  const auto obs = fsim.simulate(Fault::miv_delay(miv));
  // Launch: ffs goes 0 -> 1, so n_b rises in the at-speed cycle; the MIV
  // delays it only toward the far-tier flop fff (flop index 2).
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].pattern, 0);
  EXPECT_FALSE(obs[0].at_po);
  EXPECT_EQ(obs[0].index, 2);
}

TEST(FaultSimTest, UnactivatedFaultYieldsNoObservations) {
  // A slow-to-rise fault at a pin whose net never rises between launch and
  // capture is never activated, hence never observed.
  SimSetup s(17);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  std::int32_t checked = 0;
  for (PinId pin = 0; pin < s.nl.num_pins() && checked < 20; ++pin) {
    const NetId net = s.nl.pin_net(pin);
    if (net == kNullNet) continue;
    std::uint64_t rising = 0;
    for (std::int32_t w = 0; w < s.sim.num_words(); ++w) {
      rising |= s.sim.transition(net, w) & ~s.sim.v1(net, w) &
                valid_mask(s.sim.num_patterns(), w);
    }
    if (rising != 0) continue;
    ++checked;
    EXPECT_TRUE(fsim.simulate(Fault::slow_to_rise(pin)).empty())
        << s.nl.pin_name(pin);
  }
  EXPECT_GT(checked, 0);
}

// ---- Event kernel vs the cone-scheduled baseline ----------------------------
//
// BaselineFaultSim (tests/baseline_fault_sim.h) is the design-scale oracle:
// it is itself checked against the scalar ReferenceSim above.

// Every `stride`-th pin x {STR, STF} plus every `stride`-th MIV: all lanes,
// eight lane masks and detects() against the baseline.
void expect_event_path_matches_oracle(const Netlist& nl,
                                      const LocSimulator& good,
                                      const MivMap& mivs,
                                      std::int32_t stride = 1) {
  FaultSimulator fsim(nl, good, &mivs);
  BaselineFaultSim base(nl, good, &mivs);
  std::vector<Fault> faults;
  for (PinId pin = 0; pin < nl.num_pins(); pin += stride) {
    faults.push_back(Fault::slow_to_rise(pin));
    faults.push_back(Fault::slow_to_fall(pin));
  }
  for (MivId m = 0; m < mivs.num_mivs(); m += stride) {
    faults.push_back(Fault::miv_delay(m));
  }
  const auto masks = random_lane_masks(good.num_words(), 0x1A7E);
  std::int64_t detected = 0;
  std::int64_t masked_observations = 0;
  for (const Fault& f : faults) {
    const std::vector<Observation> oracle = base.simulate(f);
    ASSERT_EQ(fsim.simulate(f), oracle) << fault_to_string(nl, f);
    ASSERT_EQ(fsim.detects(f), !oracle.empty()) << fault_to_string(nl, f);
    detected += oracle.empty() ? 0 : 1;
    for (std::size_t k = 0; k < masks.size(); ++k) {
      const std::vector<Observation> want = in_lanes(oracle, masks[k]);
      ASSERT_EQ(fsim.simulate(f, masks[k]), want)
          << fault_to_string(nl, f) << " mask " << k;
      masked_observations += static_cast<std::int64_t>(want.size());
    }
  }
  // The comparison must not be vacuous.
  EXPECT_GT(detected, static_cast<std::int64_t>(faults.size()) / 4);
  EXPECT_GT(masked_observations, 0);
}

TEST(EventDrivenFaultSimTest, MatchesConeOracleOnSmallDesign) {
  const testing::SmallDesign d(7);
  ASSERT_GT(d.mivs.num_mivs(), 0);
  expect_event_path_matches_oracle(d.netlist, d.sim, d.mivs);
}

TEST(EventDrivenFaultSimTest, MatchesConeOracleOnAesSyn1) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  ASSERT_GT(design->mivs().num_mivs(), 0);
  expect_event_path_matches_oracle(design->netlist(), design->good_sim(),
                                   design->mivs());
}

// The large-pattern profiles, deeper logic and several pattern words, on a
// strided pin sample to bound run time.
TEST(EventDrivenFaultSimTest, MatchesConeOracleOnNetcardSyn1) {
  const auto design = Design::build(Profile::kNetcard, DesignConfig::kSyn1);
  ASSERT_GT(design->good_sim().num_words(), 4);
  expect_event_path_matches_oracle(design->netlist(), design->good_sim(),
                                   design->mivs(), 7);
}

TEST(EventDrivenFaultSimTest, MatchesConeOracleOnLeon3mpSyn2) {
  const auto design = Design::build(Profile::kLeon3mp, DesignConfig::kSyn2);
  ASSERT_GT(design->good_sim().num_words(), 4);
  expect_event_path_matches_oracle(design->netlist(), design->good_sim(),
                                   design->mivs(), 7);
}

TEST(EventDrivenFaultSimTest, StaticFaultsGiveTheOracleResult) {
  const testing::SmallDesign d(7);
  FaultSimulator fsim(d.netlist, d.sim, &d.mivs);
  BaselineFaultSim base(d.netlist, d.sim, &d.mivs);
  const auto masks = random_lane_masks(d.sim.num_words(), 0x57A7);
  for (PinId pin = 0; pin < d.netlist.num_pins(); ++pin) {
    for (const bool value : {false, true}) {
      const Fault f = Fault::stuck_at(pin, value);
      const std::vector<Observation> oracle = base.simulate(f);
      ASSERT_EQ(fsim.simulate(f), oracle) << fault_to_string(d.netlist, f);
      ASSERT_EQ(fsim.detects(f), !oracle.empty());
      for (const auto& mask : masks) {
        ASSERT_EQ(fsim.simulate(f, mask), in_lanes(oracle, mask))
            << fault_to_string(d.netlist, f);
      }
    }
  }
}

// Fault sets against the baseline: all lanes, eight lane masks, and
// detects() on every member.
void expect_sets_match_baseline(const Netlist& nl, const LocSimulator& good,
                                const MivMap& mivs,
                                const std::vector<std::vector<Fault>>& sets) {
  FaultSimulator fsim(nl, good, &mivs);
  BaselineFaultSim base(nl, good, &mivs);
  const auto masks = random_lane_masks(good.num_words(), 0x5E75);
  std::int64_t failing = 0;
  for (const std::vector<Fault>& set : sets) {
    const std::vector<Observation> oracle = base.simulate(set);
    expect_kernel_matches(fsim, set, oracle, masks, nl);
    for (const Fault& f : set) {
      ASSERT_EQ(fsim.detects(f), !base.simulate(f).empty())
          << fault_to_string(nl, f);
    }
    failing += oracle.empty() ? 0 : 1;
  }
  // The comparison must not be vacuous.
  EXPECT_GT(failing, static_cast<std::int64_t>(sets.size()) / 2);
}

// 2-5 TDFs in one tier, drawn as Table X draws them (paper Sec. VII-A).
std::vector<std::vector<Fault>> table10_sets(const Design& design) {
  DataGenOptions opt;
  opt.num_samples = 120;
  opt.min_faults = 2;
  opt.max_faults = 5;
  opt.seed = 0x7AB10;
  std::vector<std::vector<Fault>> sets;
  for (const Sample& s : generate_samples(design.context(), opt)) {
    sets.push_back(s.faults);
  }
  return sets;
}

// 2-4 pin faults of any type (STR, STF, SA0, SA1), plus an MIV delay fault
// in every other set, with no detectability filter.
std::vector<std::vector<Fault>> mixed_sets(const Netlist& nl,
                                           const MivMap& mivs,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Fault>> sets(120);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const int k = 2 + static_cast<int>(rng.next_below(3));
    for (int j = 0; j < k; ++j) {
      const PinId pin = static_cast<PinId>(
          rng.next_below(static_cast<std::uint64_t>(nl.num_pins())));
      switch (rng.next_below(4)) {
        case 0: sets[i].push_back(Fault::slow_to_rise(pin)); break;
        case 1: sets[i].push_back(Fault::slow_to_fall(pin)); break;
        case 2: sets[i].push_back(Fault::stuck_at(pin, false)); break;
        default: sets[i].push_back(Fault::stuck_at(pin, true)); break;
      }
    }
    if (i % 2 == 0) {
      sets[i].push_back(Fault::miv_delay(static_cast<MivId>(
          rng.next_below(static_cast<std::uint64_t>(mivs.num_mivs())))));
    }
  }
  return sets;
}

TEST(EventDrivenFaultSimTest, TableXSetsMatchBaselineOnAesSyn1) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  expect_sets_match_baseline(design->netlist(), design->good_sim(),
                             design->mivs(), table10_sets(*design));
}

TEST(EventDrivenFaultSimTest, TableXSetsMatchBaselineOnNetcardSyn1) {
  const auto design = Design::build(Profile::kNetcard, DesignConfig::kSyn1);
  expect_sets_match_baseline(design->netlist(), design->good_sim(),
                             design->mivs(), table10_sets(*design));
}

TEST(EventDrivenFaultSimTest, MixedSetsMatchBaselineOnAesSyn1) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  ASSERT_GT(design->mivs().num_mivs(), 0);
  expect_sets_match_baseline(
      design->netlist(), design->good_sim(), design->mivs(),
      mixed_sets(design->netlist(), design->mivs(), 0x3141));
}

TEST(EventDrivenFaultSimTest, MixedSetsMatchBaselineOnNetcardSyn1) {
  const auto design = Design::build(Profile::kNetcard, DesignConfig::kSyn1);
  ASSERT_GT(design->mivs().num_mivs(), 0);
  expect_sets_match_baseline(
      design->netlist(), design->good_sim(), design->mivs(),
      mixed_sets(design->netlist(), design->mivs(), 0x2718));
}

TEST(EventDrivenFaultSimTest, RejectsAMaskPerWordMismatch) {
  const testing::SmallDesign d(7);
  FaultSimulator fsim(d.netlist, d.sim, &d.mivs);
  const std::vector<std::uint64_t> short_mask(
      static_cast<std::size_t>(d.sim.num_words() - 1), ~0ULL);
  EXPECT_THROW(fsim.simulate(Fault::slow_to_rise(0), short_mask), Error);
}

// Structural TDF equivalence (sta::collapse_tdf_faults) is
// observation-preserving: every member of a class yields its
// representative's observation list.
void expect_collapse_classes_simulate_identically(const Netlist& nl,
                                                  const LocSimulator& good,
                                                  const MivMap& mivs) {
  const sta::CollapsedFaults collapsed = sta::collapse_tdf_faults(nl);
  ASSERT_LT(collapsed.num_classes(),
            static_cast<std::int32_t>(collapsed.full.size()));
  FaultSimulator fsim(nl, good, &mivs);
  std::vector<std::vector<Observation>> by_class(
      static_cast<std::size_t>(collapsed.num_classes()));
  for (std::int32_t cls = 0; cls < collapsed.num_classes(); ++cls) {
    by_class[static_cast<std::size_t>(cls)] =
        fsim.simulate(collapsed.representative(cls));
  }
  for (std::size_t i = 0; i < collapsed.full.size(); ++i) {
    const Fault& f = collapsed.full[i];
    ASSERT_EQ(fsim.simulate(f),
              by_class[static_cast<std::size_t>(collapsed.class_of[i])])
        << fault_to_string(nl, f);
  }
}

TEST(EventDrivenFaultSimTest, CollapseClassMembersSimulateIdentically) {
  const testing::SmallDesign d(7);
  expect_collapse_classes_simulate_identically(d.netlist, d.sim, d.mivs);
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  expect_collapse_classes_simulate_identically(
      design->netlist(), design->good_sim(), design->mivs());
}

}  // namespace
}  // namespace m3dfl
