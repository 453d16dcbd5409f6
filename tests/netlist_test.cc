#include <set>

#include <gtest/gtest.h>

#include "core/config.h"
#include "dft/test_points.h"
#include "test_helpers.h"
#include "util/error.h"

namespace m3dfl {
namespace {

using testing::TinyCircuit;
using testing::small_netlist;

TEST(NetlistTest, TinyCircuitClassification) {
  TinyCircuit c;
  const Netlist& nl = c.netlist;
  EXPECT_EQ(nl.num_gates(), 7);
  EXPECT_EQ(nl.num_nets(), 6);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.flops().size(), 1u);
  EXPECT_EQ(nl.num_logic_gates(), 4);  // ff0, u0, u1, u2
}

TEST(NetlistTest, SinksDerivedFromFanins) {
  TinyCircuit c;
  const Net& n4 = c.netlist.net(c.n4);
  EXPECT_EQ(n4.driver, c.u0);
  ASSERT_EQ(n4.sinks.size(), 2u);
  // u1 input 0 and u2 input 0 read n4.
  std::set<GateId> sinks;
  for (const PinRef& s : n4.sinks) sinks.insert(s.gate);
  EXPECT_TRUE(sinks.count(c.u1));
  EXPECT_TRUE(sinks.count(c.u2));
}

TEST(NetlistTest, TopoOrderRespectsDependencies) {
  TinyCircuit c;
  const auto& topo = c.netlist.topo_order();
  EXPECT_EQ(topo.size(), 3u);  // u0, u1, u2
  // u0 must precede u1 and u2.
  auto pos = [&](GateId g) {
    for (std::size_t i = 0; i < topo.size(); ++i) {
      if (topo[i] == g) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(pos(c.u0), pos(c.u1));
  EXPECT_LT(pos(c.u0), pos(c.u2));
}

TEST(NetlistTest, Levels) {
  TinyCircuit c;
  EXPECT_EQ(c.netlist.level(c.pi0), 0);
  EXPECT_EQ(c.netlist.level(c.ff0), 3);  // D-cone depth: u0(1) -> u1(2) -> D(3)
  EXPECT_EQ(c.netlist.level(c.u0), 1);
  EXPECT_EQ(c.netlist.level(c.u1), 2);
  EXPECT_EQ(c.netlist.level(c.u2), 2);
  EXPECT_EQ(c.netlist.level(c.po0), 3);
  EXPECT_EQ(c.netlist.max_level(), 3);
}

TEST(NetlistTest, PinEnumerationRoundTrip) {
  TinyCircuit c;
  const Netlist& nl = c.netlist;
  // 7 gates: pi (1 pin each x2), ff (2), u0 (3), u1 (2), u2 (3), po (1).
  EXPECT_EQ(nl.num_pins(), 2 + 2 + 3 + 2 + 3 + 1);
  std::set<PinId> seen;
  for (PinId p = 0; p < nl.num_pins(); ++p) {
    const PinRef ref = nl.pin_ref(p);
    EXPECT_EQ(nl.pin_id(ref), p);
    seen.insert(p);
  }
  EXPECT_EQ(static_cast<PinId>(seen.size()), nl.num_pins());
}

TEST(NetlistTest, PinNets) {
  TinyCircuit c;
  const Netlist& nl = c.netlist;
  EXPECT_EQ(nl.pin_net(nl.output_pin(c.u0)), c.n4);
  EXPECT_EQ(nl.pin_net(nl.input_pin(c.u0, 0)), c.n_pi0);
  EXPECT_EQ(nl.pin_net(nl.input_pin(c.u0, 1)), c.n_pi1);
  EXPECT_EQ(nl.pin_net(nl.input_pin(c.ff0, 0)), c.n5);
  EXPECT_EQ(nl.pin_net(nl.input_pin(c.po0, 0)), c.n6);
}

TEST(NetlistTest, PinNames) {
  TinyCircuit c;
  EXPECT_EQ(c.netlist.pin_name(c.netlist.output_pin(c.u0)), "u0.Y");
  EXPECT_EQ(c.netlist.pin_name(c.netlist.input_pin(c.u2, 1)), "u2.A1");
}

TEST(NetlistTest, FinalizeRejectsUndrivenNet) {
  Netlist nl;
  const GateId g = nl.add_gate(GateType::kBuf);
  const NetId floating = nl.add_net();
  const NetId out = nl.add_net();
  nl.connect_input(g, floating);
  nl.set_output(g, out);
  EXPECT_THROW(nl.finalize(), Error);
}

TEST(NetlistTest, FinalizeRejectsBadArity) {
  Netlist nl;
  const GateId pi = nl.add_gate(GateType::kPrimaryInput);
  const NetId n = nl.add_net();
  nl.set_output(pi, n);
  const GateId g = nl.add_gate(GateType::kAnd);  // needs >= 2 inputs
  const NetId out = nl.add_net();
  nl.set_output(g, out);
  nl.connect_input(g, n);
  EXPECT_THROW(nl.finalize(), Error);
}

TEST(NetlistTest, FinalizeRejectsCombinationalLoop) {
  Netlist nl;
  const GateId a = nl.add_gate(GateType::kInv);
  const GateId b = nl.add_gate(GateType::kInv);
  const NetId na = nl.add_net();
  const NetId nb = nl.add_net();
  nl.set_output(a, na);
  nl.set_output(b, nb);
  nl.connect_input(a, nb);
  nl.connect_input(b, na);
  EXPECT_THROW(nl.finalize(), Error);
}

TEST(NetlistTest, FlopBreaksCycle) {
  // Flop Q feeding logic that feeds the flop D is sequential, not a loop.
  Netlist nl;
  const GateId ff = nl.add_gate(GateType::kScanFlop);
  const GateId inv = nl.add_gate(GateType::kInv);
  const NetId q = nl.add_net();
  const NetId d = nl.add_net();
  nl.set_output(ff, q);
  nl.set_output(inv, d);
  nl.connect_input(inv, q);
  nl.connect_input(ff, d);
  EXPECT_NO_THROW(nl.finalize());
}

TEST(NetlistTest, RejectsDoubleDriver) {
  Netlist nl;
  const GateId a = nl.add_gate(GateType::kPrimaryInput);
  const GateId b = nl.add_gate(GateType::kPrimaryInput);
  const NetId n = nl.add_net();
  nl.set_output(a, n);
  EXPECT_THROW(nl.set_output(b, n), Error);
}

TEST(NetlistTest, RejectsTooManyInputs) {
  Netlist nl;
  const GateId pi = nl.add_gate(GateType::kPrimaryInput);
  const NetId n = nl.add_net();
  nl.set_output(pi, n);
  const GateId inv = nl.add_gate(GateType::kInv);
  nl.connect_input(inv, n);
  EXPECT_THROW(nl.connect_input(inv, n), Error);
}

TEST(NetlistTest, DefinalizeAllowsRewiring) {
  TinyCircuit c;
  Netlist& nl = c.netlist;
  EXPECT_TRUE(nl.finalized());
  nl.definalize();
  EXPECT_FALSE(nl.finalized());
  // Splice a buffer into n4 -> u1.
  const GateId buf = nl.add_gate(GateType::kBuf);
  const NetId nb = nl.add_net();
  nl.set_output(buf, nb);
  nl.connect_input(buf, c.n4);
  nl.reconnect_input(c.u1, 0, nb);
  nl.finalize();
  EXPECT_EQ(nl.gate(c.u1).fanin[0], nb);
  EXPECT_EQ(nl.level(c.u1), 3);  // one level deeper through the buffer
}

TEST(NetlistTest, QueriesRequireFinalized) {
  Netlist nl;
  nl.add_gate(GateType::kPrimaryInput);
  EXPECT_THROW(nl.output_pin(0), Error);
}

// ---- Flat view ---------------------------------------------------------------

// The view holds exactly the Gate/Net facts, in pin and sink order, and its
// levels put every combinational sink above its driver.
void expect_view_matches_netlist(const Netlist& nl) {
  const NetlistView& view = nl.view();
  ASSERT_EQ(view.fanin_offset.size(),
            static_cast<std::size_t>(nl.num_gates()) + 1);
  ASSERT_EQ(view.sink_offset.size(),
            static_cast<std::size_t>(nl.num_nets()) + 1);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    const std::span<const NetId> fanin = view.fanin(g);
    ASSERT_EQ(std::vector<NetId>(fanin.begin(), fanin.end()), gate.fanin)
        << "gate " << g;
    ASSERT_EQ(view.type[static_cast<std::size_t>(g)], gate.type);
    ASSERT_EQ(view.fanout[static_cast<std::size_t>(g)], gate.fanout);
    ASSERT_EQ(view.level[static_cast<std::size_t>(g)], nl.level(g));
  }
  std::int64_t combinational_edges = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    const std::span<const GateId> sinks = view.sinks(n);
    ASSERT_EQ(sinks.size(), net.sinks.size()) << "net " << n;
    // A flop's level is the depth of its D cone; as a driver its Q is a
    // source, level 0.
    const GateId driver = net.driver;
    const std::int32_t driver_level =
        nl.gate(driver).type == GateType::kScanFlop ? 0 : nl.level(driver);
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      ASSERT_EQ(sinks[i], net.sinks[i].gate) << "net " << n << " sink " << i;
      if (!is_combinational(nl.gate(sinks[i]).type)) continue;
      ASSERT_GT(nl.level(sinks[i]), driver_level) << "net " << n;
      ++combinational_edges;
    }
  }
  EXPECT_GT(combinational_edges, 0);
}

TEST(NetlistViewTest, MatchesTheGateAndNetVectors) {
  TinyCircuit c;
  expect_view_matches_netlist(c.netlist);
  expect_view_matches_netlist(testing::SmallDesign(7).netlist);
}

TEST(NetlistViewTest, IsRebuiltAfterDefinalize) {
  TinyCircuit c;
  Netlist& nl = c.netlist;
  nl.definalize();
  EXPECT_TRUE(nl.view().fanin_nets.empty());
  const GateId buf = nl.add_gate(GateType::kBuf);
  const NetId nb = nl.add_net();
  nl.set_output(buf, nb);
  nl.connect_input(buf, c.n4);
  nl.reconnect_input(c.u1, 0, nb);
  nl.finalize();
  expect_view_matches_netlist(nl);
  EXPECT_EQ(nl.view().sinks(nb).size(), 1u);
}

TEST(NetlistViewTest, MatchesOnEveryProfileBeforeAndAfterTestPoints) {
  Netlist small = small_netlist(7);
  insert_test_points(small, TestPointOptions{});
  expect_view_matches_netlist(small);
  for (const Profile profile : all_profiles()) {
    const ProfileSpec spec = profile_spec(profile);
    SCOPED_TRACE(spec.name);
    for (const DesignConfig config : {DesignConfig::kSyn1, DesignConfig::kSyn2}) {
      Netlist nl = generate_netlist(generator_for(spec, config));
      expect_view_matches_netlist(nl);
      // Test-point insertion definalizes, splices and finalizes again.
      const std::int32_t gates = nl.num_gates();
      insert_test_points(nl, spec.tpi);
      ASSERT_GT(nl.num_gates(), gates);
      expect_view_matches_netlist(nl);
    }
  }
}

// Property sweep over generated netlists.
class NetlistProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistProperty, TopoOrderIsValidSchedule) {
  const Netlist nl = small_netlist(GetParam());
  std::vector<char> ready(static_cast<std::size_t>(nl.num_nets()), 0);
  for (GateId g : nl.primary_inputs()) {
    ready[static_cast<std::size_t>(nl.gate(g).fanout)] = 1;
  }
  for (GateId g : nl.flops()) {
    ready[static_cast<std::size_t>(nl.gate(g).fanout)] = 1;
  }
  for (GateId g : nl.topo_order()) {
    for (NetId in : nl.gate(g).fanin) {
      EXPECT_TRUE(ready[static_cast<std::size_t>(in)])
          << "gate scheduled before its input";
    }
    ready[static_cast<std::size_t>(nl.gate(g).fanout)] = 1;
  }
}

TEST_P(NetlistProperty, LevelsMonotoneAlongEdges) {
  const Netlist nl = small_netlist(GetParam());
  for (GateId g : nl.topo_order()) {
    for (NetId in : nl.gate(g).fanin) {
      const GateId driver = nl.net(in).driver;
      // Flop levels describe their D-cone depth, not their (source) Q pin,
      // so monotonicity only holds along combinational drivers and PIs.
      if (nl.gate(driver).type == GateType::kScanFlop) continue;
      EXPECT_GT(nl.level(g), nl.level(driver));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace m3dfl
