#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "graph/hetero_graph.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

// TinyCircuit, all gates on the bottom tier: no MIV nodes.
struct TinyGraph {
  testing::TinyCircuit c;
  TierAssignment tiers;
  MivMap mivs;
  HeteroGraph graph;

  explicit TinyGraph(int u2_tier = kBottomTier)
      : tiers(std::vector<std::int8_t>(
            static_cast<std::size_t>(c.netlist.num_gates()), kBottomTier)) {
    tiers.set_tier(c.u2, u2_tier);
    mivs = MivMap(c.netlist, tiers);
    graph = HeteroGraph(c.netlist, tiers, mivs);
  }
};

TEST(HeteroGraphTest, NodeCounts) {
  TinyGraph t;
  EXPECT_EQ(t.graph.num_pins(), t.c.netlist.num_pins());
  EXPECT_EQ(t.graph.num_mivs(), 0);
  EXPECT_EQ(t.graph.num_nodes(), t.c.netlist.num_pins());
}

TEST(HeteroGraphTest, GateInternalAndNetEdges) {
  TinyGraph t;
  const Netlist& nl = t.c.netlist;
  // u0 input pins point at u0's output pin.
  const PinId u0_out = nl.output_pin(t.c.u0);
  const PinId u0_a = nl.input_pin(t.c.u0, 0);
  bool found = false;
  for (NodeId v : t.graph.successors(u0_a)) found = found || v == u0_out;
  EXPECT_TRUE(found);
  // Net n4: u0.Y -> u1.A0 and u2.A0.
  const auto succ = t.graph.successors(u0_out);
  EXPECT_EQ(succ.size(), 2u);
  // Flops do not conduct: ff0 D pin has no successors.
  EXPECT_TRUE(t.graph.successors(nl.input_pin(t.c.ff0, 0)).empty());
  // Predecessor symmetry.
  bool back = false;
  for (NodeId v : t.graph.predecessors(u0_out)) back = back || v == u0_a;
  EXPECT_TRUE(back);
}

TEST(HeteroGraphTest, MivNodeSplicedIntoCrossTierNet) {
  TinyGraph t(kTopTier);  // u2 on top: nets n4 and n_q cross
  const Netlist& nl = t.c.netlist;
  ASSERT_GE(t.graph.num_mivs(), 1);
  const MivId miv = t.mivs.miv_of_net(t.c.n4);
  ASSERT_NE(miv, kNullMiv);
  const NodeId miv_node = t.graph.miv_node(miv);
  EXPECT_TRUE(t.graph.is_miv_node(miv_node));
  EXPECT_EQ(t.graph.miv_of_node(miv_node), miv);

  // Stem -> MIV -> far sink (u2.A0); near sink (u1.A0) connects directly.
  const PinId stem = nl.output_pin(t.c.u0);
  bool stem_to_miv = false;
  bool stem_to_near = false;
  bool stem_to_far = false;
  for (NodeId v : t.graph.successors(stem)) {
    stem_to_miv = stem_to_miv || v == miv_node;
    stem_to_near = stem_to_near || v == nl.input_pin(t.c.u1, 0);
    stem_to_far = stem_to_far || v == nl.input_pin(t.c.u2, 0);
  }
  EXPECT_TRUE(stem_to_miv);
  EXPECT_TRUE(stem_to_near);
  EXPECT_FALSE(stem_to_far);
  bool miv_to_far = false;
  for (NodeId v : t.graph.successors(miv_node)) {
    miv_to_far = miv_to_far || v == nl.input_pin(t.c.u2, 0);
  }
  EXPECT_TRUE(miv_to_far);
  // MIV node attributes.
  EXPECT_FLOAT_EQ(t.graph.loc(miv_node), 0.5f);
  EXPECT_TRUE(t.graph.near_miv(miv_node));
  EXPECT_EQ(t.graph.node_net(miv_node), t.c.n4);
}

TEST(HeteroGraphTest, NodeAttributes) {
  TinyGraph t(kTopTier);
  const Netlist& nl = t.c.netlist;
  const PinId u2_out = nl.output_pin(t.c.u2);
  EXPECT_FLOAT_EQ(t.graph.loc(u2_out), 1.0f);
  EXPECT_TRUE(t.graph.is_output_pin(u2_out));
  EXPECT_FALSE(t.graph.is_output_pin(nl.input_pin(t.c.u2, 0)));
  EXPECT_EQ(t.graph.level(u2_out), nl.level(t.c.u2));
  EXPECT_EQ(t.graph.node_net(u2_out), t.c.n6);
  // u2's input from n4 shares a net with an MIV.
  EXPECT_TRUE(t.graph.near_miv(nl.input_pin(t.c.u2, 0)));
  // pi0's output pin does not (n_pi0 stays on the bottom tier).
  EXPECT_FALSE(t.graph.near_miv(nl.output_pin(t.c.pi0)));
}

TEST(HeteroGraphTest, TopnodesAreObservationPoints) {
  TinyGraph t;
  const Netlist& nl = t.c.netlist;
  // 1 flop + 1 PO.
  EXPECT_EQ(t.graph.num_topnodes(), 2);
  EXPECT_EQ(t.graph.topnodes()[0], nl.input_pin(t.c.ff0, 0));
  EXPECT_EQ(t.graph.topnodes()[1], nl.input_pin(t.c.po0, 0));
}

TEST(HeteroGraphTest, TopedgeDistancesHandChecked) {
  TinyGraph t;
  const Netlist& nl = t.c.netlist;
  // Cone of ff0.D (Topnode): u1.Y (1), u1.A0 (2), u0.Y (3), u0 inputs (4),
  // pi pins (5).
  // Cone of po0 (Topnode): u2.Y (1), u2 inputs (2), u0.Y (3) ... and ff0.Q.
  const PinId u0_out = nl.output_pin(t.c.u0);
  // u0.Y is in both cones at distance 3 each.
  EXPECT_EQ(t.graph.n_top(u0_out), 2);
  EXPECT_FLOAT_EQ(t.graph.dist_mean(u0_out), 3.0f);
  EXPECT_FLOAT_EQ(t.graph.dist_std(u0_out), 0.0f);
  EXPECT_FLOAT_EQ(t.graph.miv_mean(u0_out), 0.0f);
  // u1.Y is only in ff0's cone.
  const PinId u1_out = nl.output_pin(t.c.u1);
  EXPECT_EQ(t.graph.n_top(u1_out), 1);
  EXPECT_FLOAT_EQ(t.graph.dist_mean(u1_out), 1.0f);
  // ff0.Q is only in po0's cone (distance: q -> u2.A1 -> u2.Y -> po pin = 3).
  const PinId q = nl.output_pin(t.c.ff0);
  EXPECT_EQ(t.graph.n_top(q), 1);
  EXPECT_FLOAT_EQ(t.graph.dist_mean(q), 3.0f);
}

TEST(HeteroGraphTest, TopedgeMivCountsThroughSplicedNodes) {
  TinyGraph t(kTopTier);
  const Netlist& nl = t.c.netlist;
  // With u2 on the top tier, three nets cross: n4, n_q, and n6 (top-tier u2
  // drives the bottom-tier PO pad).  u0.Y reaches ff0.D in 3 hops with no
  // MIV, and po0 through two spliced MIV nodes in 5 hops:
  //   u0.Y -> MIV(n4) -> u2.A0 -> u2.Y -> MIV(n6) -> po0.A0.
  ASSERT_EQ(t.graph.num_mivs(), 3);
  const PinId u0_out = nl.output_pin(t.c.u0);
  EXPECT_EQ(t.graph.n_top(u0_out), 2);
  EXPECT_FLOAT_EQ(t.graph.dist_mean(u0_out), 4.0f);   // (3 + 5) / 2
  EXPECT_FLOAT_EQ(t.graph.dist_std(u0_out), 1.0f);
  EXPECT_FLOAT_EQ(t.graph.miv_mean(u0_out), 1.0f);    // (0 + 2) / 2
}

TEST(HeteroGraphTest, ConeIndexHandChecked) {
  TinyGraph t;
  const Netlist& nl = t.c.netlist;
  const auto sorted = [](std::vector<NodeId> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto cone = [&](std::int32_t obs) {
    const std::span<const NodeId> c = t.graph.cone(obs);
    return std::vector<NodeId>(c.begin(), c.end());
  };
  // ff0.D: through u1 and u0 back to the PI pads.
  EXPECT_EQ(cone(0), sorted({nl.input_pin(t.c.ff0, 0), nl.output_pin(t.c.u1),
                             nl.input_pin(t.c.u1, 0), nl.output_pin(t.c.u0),
                             nl.input_pin(t.c.u0, 0), nl.input_pin(t.c.u0, 1),
                             nl.output_pin(t.c.pi0),
                             nl.output_pin(t.c.pi1)}));
  // po0: through u2 to u0's cone and the flop's Q pin, never through u1.
  EXPECT_EQ(cone(1), sorted({nl.input_pin(t.c.po0, 0), nl.output_pin(t.c.u2),
                             nl.input_pin(t.c.u2, 0), nl.input_pin(t.c.u2, 1),
                             nl.output_pin(t.c.ff0), nl.output_pin(t.c.u0),
                             nl.input_pin(t.c.u0, 0), nl.input_pin(t.c.u0, 1),
                             nl.output_pin(t.c.pi0),
                             nl.output_pin(t.c.pi1)}));
}

TEST(HeteroGraphTest, ConeSizesSumToTopedges) {
  // Every cone node other than the Topnode is one Topedge, so the index
  // holds exactly sum(n_top) + one Topnode per observation point.
  const testing::SmallDesign d(4);
  std::int64_t topedges = 0;
  for (NodeId n = 0; n < d.graph.num_nodes(); ++n) topedges += d.graph.n_top(n);
  std::int64_t indexed = 0;
  for (std::int32_t obs = 0; obs < d.graph.num_topnodes(); ++obs) {
    const std::span<const NodeId> cone = d.graph.cone(obs);
    EXPECT_TRUE(std::is_sorted(cone.begin(), cone.end()));
    indexed += static_cast<std::int64_t>(cone.size());
  }
  EXPECT_EQ(indexed, topedges + d.graph.num_topnodes());
}

TEST(HeteroGraphTest, NetConesAreTheConesDistinctNets) {
  // Hand-checked on the tiny circuit: po0's cone reaches n6, n4, the flop's
  // Q net and both PI nets, never n5.
  TinyGraph t;
  const auto net_cone = [&](std::int32_t obs) {
    const std::span<const NetId> c = t.graph.net_cone(obs);
    std::vector<NetId> v(c.begin(), c.end());
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto sorted = [](std::vector<NetId> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(net_cone(0), sorted({t.c.n5, t.c.n4, t.c.n_pi0, t.c.n_pi1}));
  EXPECT_EQ(net_cone(1),
            sorted({t.c.n6, t.c.n4, t.c.n_q, t.c.n_pi0, t.c.n_pi1}));

  // On a design with MIV nodes: each net once, exactly the nets of the cone.
  const testing::SmallDesign d(4);
  ASSERT_GT(d.mivs.num_mivs(), 0);
  for (std::int32_t obs = 0; obs < d.graph.num_topnodes(); ++obs) {
    std::vector<NetId> want;
    for (NodeId u : d.graph.cone(obs)) {
      if (d.graph.node_net(u) != kNullNet) want.push_back(d.graph.node_net(u));
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const std::span<const NetId> c = d.graph.net_cone(obs);
    std::vector<NetId> got(c.begin(), c.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "observation point " << obs;
  }
}

TEST(HeteroGraphTest, DegreesMatchAdjacency) {
  testing::SmallDesign d(4);
  const HeteroGraph graph(d.netlist, d.tiers, d.mivs);
  for (NodeId n = 0; n < graph.num_nodes(); n += 31) {
    EXPECT_EQ(graph.fanout_degree(n),
              static_cast<std::int32_t>(graph.successors(n).size()));
    EXPECT_EQ(graph.fanin_degree(n),
              static_cast<std::int32_t>(graph.predecessors(n).size()));
  }
}

TEST(HeteroGraphTest, EdgeCountConsistent) {
  testing::SmallDesign d(4);
  const HeteroGraph graph(d.netlist, d.tiers, d.mivs);
  std::int64_t succ_total = 0;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    succ_total += graph.fanout_degree(n);
  }
  EXPECT_EQ(succ_total, graph.num_edges());
}

}  // namespace
}  // namespace m3dfl
