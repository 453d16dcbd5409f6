#include "graph/hetero_graph.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace m3dfl {

HeteroGraph::HeteroGraph(const Netlist& netlist, const TierAssignment& tiers,
                         const MivMap& mivs) {
  M3DFL_REQUIRE(netlist.finalized(),
                "graph construction requires a finalized netlist");
  num_pins_ = netlist.num_pins();
  num_mivs_ = mivs.num_mivs();
  num_flops_ = static_cast<std::int32_t>(netlist.flops().size());
  max_level_ = std::max<std::int32_t>(1, netlist.max_level());
  build_edges(netlist, mivs);
  build_attributes(netlist, tiers, mivs);
  build_top_level(netlist);
  build_net_cones();
}

void HeteroGraph::build_edges(const Netlist& nl, const MivMap& mivs) {
  // Edge list first; CSR after.
  std::vector<std::pair<NodeId, NodeId>> edges;

  // Input pin -> output pin inside each combinational gate.  Ports and flops
  // contribute no cross-gate traversal (the graph stays combinational).
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (!is_combinational(gate.type)) continue;
    const PinId out = nl.output_pin(g);
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      edges.emplace_back(nl.input_pin(g, static_cast<std::int32_t>(i)), out);
    }
  }

  // Stem -> branch along each net, with the MIV node spliced into the
  // tier-crossing segment.
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    const GateId driver = net.driver;
    if (!has_output(nl.gate(driver).type)) continue;
    const PinId stem = nl.output_pin(driver);
    const MivId miv = mivs.miv_of_net(n);
    if (miv == kNullMiv) {
      for (const PinRef& sink : net.sinks) {
        edges.emplace_back(stem, nl.pin_id(sink));
      }
      continue;
    }
    const NodeId miv_n = miv_node(miv);
    edges.emplace_back(stem, miv_n);
    const Miv& m = mivs.miv(miv);
    // Far-tier sinks hang off the MIV; near-tier sinks connect directly.
    for (const PinRef& sink : net.sinks) {
      const bool far = std::find(m.far_sinks.begin(), m.far_sinks.end(),
                                 sink) != m.far_sinks.end();
      edges.emplace_back(far ? miv_n : stem, nl.pin_id(sink));
    }
  }

  const auto n_nodes = static_cast<std::size_t>(num_nodes());
  std::vector<std::int32_t> out_deg(n_nodes, 0);
  std::vector<std::int32_t> in_deg(n_nodes, 0);
  for (const auto& [u, v] : edges) {
    ++out_deg[static_cast<std::size_t>(u)];
    ++in_deg[static_cast<std::size_t>(v)];
  }
  succ_off_.assign(n_nodes + 1, 0);
  pred_off_.assign(n_nodes + 1, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    succ_off_[i + 1] = succ_off_[i] + out_deg[i];
    pred_off_[i + 1] = pred_off_[i] + in_deg[i];
  }
  succ_.resize(edges.size());
  pred_.resize(edges.size());
  std::vector<std::int32_t> sfill(succ_off_.begin(), succ_off_.end() - 1);
  std::vector<std::int32_t> pfill(pred_off_.begin(), pred_off_.end() - 1);
  for (const auto& [u, v] : edges) {
    succ_[static_cast<std::size_t>(sfill[static_cast<std::size_t>(u)]++)] = v;
    pred_[static_cast<std::size_t>(pfill[static_cast<std::size_t>(v)]++)] = u;
  }
}

void HeteroGraph::build_attributes(const Netlist& nl,
                                   const TierAssignment& tiers,
                                   const MivMap& mivs) {
  const auto n_nodes = static_cast<std::size_t>(num_nodes());
  node_net_.assign(n_nodes, kNullNet);
  loc_.assign(n_nodes, 0.0f);
  level_.assign(n_nodes, 0);
  out_.assign(n_nodes, 0);
  near_miv_.assign(n_nodes, 0);

  for (PinId p = 0; p < num_pins_; ++p) {
    const PinRef ref = nl.pin_ref(p);
    const NetId net = nl.pin_net(p);
    node_net_[static_cast<std::size_t>(p)] = net;
    loc_[static_cast<std::size_t>(p)] =
        static_cast<float>(tiers.tier_of(ref.gate));
    level_[static_cast<std::size_t>(p)] = nl.level(ref.gate);
    out_[static_cast<std::size_t>(p)] = ref.is_output() ? 1 : 0;
    if (net != kNullNet && mivs.miv_of_net(net) != kNullMiv) {
      near_miv_[static_cast<std::size_t>(p)] = 1;
    }
  }
  for (MivId m = 0; m < num_mivs_; ++m) {
    const NodeId node = miv_node(m);
    const Miv& miv = mivs.miv(m);
    node_net_[static_cast<std::size_t>(node)] = miv.net;
    loc_[static_cast<std::size_t>(node)] = 0.5f;  // MIVs belong to no tier
    level_[static_cast<std::size_t>(node)] =
        nl.level(nl.net(miv.net).driver);
    near_miv_[static_cast<std::size_t>(node)] = 1;
  }
}

void HeteroGraph::build_top_level(const Netlist& nl) {
  // Observation anchors: flop D pins (flop-index order), then PO pins.
  topnodes_.clear();
  for (GateId ff : nl.flops()) topnodes_.push_back(nl.input_pin(ff, 0));
  for (GateId po : nl.primary_outputs()) {
    topnodes_.push_back(nl.input_pin(po, 0));
  }

  const auto n_nodes = static_cast<std::size_t>(num_nodes());
  std::vector<std::int64_t> cnt(n_nodes, 0);
  std::vector<double> sum_d(n_nodes, 0.0), sumsq_d(n_nodes, 0.0);
  std::vector<double> sum_m(n_nodes, 0.0), sumsq_m(n_nodes, 0.0);

  // One BFS per Topnode over the predecessor relation.  BFS layers give the
  // shortest Topedge distance; MIV counts follow the discovery path.  The
  // BFS queue is the Topnode's slice of the cone index: once the BFS ends it
  // holds the whole cone, which is then sorted in place.
  std::vector<std::int32_t> dist(n_nodes, -1);
  std::vector<std::int32_t> mivs_on_path(n_nodes, 0);
  cone_off_.assign(1, 0);
  cone_nodes_.clear();
  for (NodeId top : topnodes_) {
    const std::size_t begin = cone_nodes_.size();
    dist[static_cast<std::size_t>(top)] = 0;
    mivs_on_path[static_cast<std::size_t>(top)] = 0;
    cone_nodes_.push_back(top);
    for (std::size_t head = begin; head < cone_nodes_.size(); ++head) {
      const NodeId u = cone_nodes_[head];
      const auto ui = static_cast<std::size_t>(u);
      if (u != top) {
        cnt[ui] += 1;
        const double d = dist[ui];
        const double m = mivs_on_path[ui];
        sum_d[ui] += d;
        sumsq_d[ui] += d * d;
        sum_m[ui] += m;
        sumsq_m[ui] += m * m;
      }
      for (NodeId v : predecessors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (dist[vi] >= 0) continue;
        dist[vi] = dist[ui] + 1;
        mivs_on_path[vi] =
            mivs_on_path[ui] + (is_miv_node(v) ? 1 : 0);
        cone_nodes_.push_back(v);
      }
    }
    const auto cone_begin =
        cone_nodes_.begin() + static_cast<std::ptrdiff_t>(begin);
    for (auto it = cone_begin; it != cone_nodes_.end(); ++it) {
      dist[static_cast<std::size_t>(*it)] = -1;
    }
    std::sort(cone_begin, cone_nodes_.end());
    cone_off_.push_back(cone_nodes_.size());
  }
  cone_nodes_.shrink_to_fit();

  n_top_.assign(n_nodes, 0);
  dist_mean_.assign(n_nodes, 0.0f);
  dist_std_.assign(n_nodes, 0.0f);
  miv_mean_.assign(n_nodes, 0.0f);
  miv_std_.assign(n_nodes, 0.0f);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (cnt[i] == 0) continue;
    const double c = static_cast<double>(cnt[i]);
    n_top_[i] = static_cast<std::int32_t>(cnt[i]);
    const double md = sum_d[i] / c;
    const double mm = sum_m[i] / c;
    dist_mean_[i] = static_cast<float>(md);
    miv_mean_[i] = static_cast<float>(mm);
    dist_std_[i] = static_cast<float>(
        std::sqrt(std::max(0.0, sumsq_d[i] / c - md * md)));
    miv_std_[i] = static_cast<float>(
        std::sqrt(std::max(0.0, sumsq_m[i] / c - mm * mm)));
  }
}

void HeteroGraph::build_net_cones() {
  // A cone is closed under fan-in, so each input pin or MIV node in it
  // comes with the output pin that drives its net: the cone's distinct nets
  // are the nets of its output pins, one net per pin.  Two passes, counting
  // and then filling, allocate the CSR once at its exact size.
  const auto for_each_net = [&](std::int32_t obs, auto&& visit) {
    for (NodeId u : cone(obs)) {
      if (is_output_pin(u)) visit(node_net(u));
    }
  };
  net_cone_off_.assign(topnodes_.size() + 1, 0);
  for (std::int32_t obs = 0; obs < num_topnodes(); ++obs) {
    std::size_t n = 0;
    for_each_net(obs, [&](NetId) { ++n; });
    net_cone_off_[static_cast<std::size_t>(obs) + 1] =
        net_cone_off_[static_cast<std::size_t>(obs)] + n;
  }
  net_cone_nets_.resize(net_cone_off_.back());
  for (std::int32_t obs = 0; obs < num_topnodes(); ++obs) {
    std::size_t at = net_cone_off_[static_cast<std::size_t>(obs)];
    for_each_net(obs, [&](NetId net) { net_cone_nets_[at++] = net; });
  }
}

}  // namespace m3dfl
