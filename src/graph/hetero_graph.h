// Heterogeneous diagnosis graph (paper Sec. III-A).
//
// Circuit level: one node per fault site (every gate pin) plus one node per
// MIV; directed edges follow signal flow — input-pin -> output-pin inside a
// gate, and stem -> branch along each net, with the MIV node spliced into
// the tier-crossing segment (stem -> MIV -> far-tier branches).  Flops and
// ports contribute pins but no traversal edges across them, so the edge
// relation is exactly the combinational structure.
//
// Top level: one Topnode per observation point (each scan-flop D pin and
// each PO pin) with Topedges to every node in its fan-in cone.  One backward
// BFS per Topnode computes, for every cone node, the shortest distance and
// the number of MIV nodes along that path, and these are folded into
// per-node running aggregates (count / mean / std) — the numerical encoding
// of the top level the paper feeds to the GNN (Table II).  The same BFS
// keeps each cone: the Topedges are stored as one CSR of sorted node ids
// per observation point, the cone index every back-trace reads (Fig. 3).
// Its memory cost is the sum of the cone sizes (sum of n_top() plus one per
// Topnode).  Beside it sits each cone's set of distinct nets, the suspect
// space of ATPG diagnosis; a net carries about three pin nodes, so this CSR
// is about a third of the cone index.  Build complexity is
// O(#Topnodes * (V + E)); it runs once per design and is reused for every
// failure log (the amortization argument of Sec. III-A).
#ifndef M3DFL_GRAPH_HETERO_GRAPH_H_
#define M3DFL_GRAPH_HETERO_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/netlist.h"

namespace m3dfl {

// Node id space: [0, num_pins) are pin nodes (ids equal Netlist PinIds);
// [num_pins, num_pins + num_mivs) are MIV nodes.
using NodeId = std::int32_t;

class HeteroGraph {
 public:
  HeteroGraph() = default;
  HeteroGraph(const Netlist& netlist, const TierAssignment& tiers,
              const MivMap& mivs);

  std::int32_t num_pins() const { return num_pins_; }
  std::int32_t num_mivs() const { return num_mivs_; }
  std::int32_t num_nodes() const { return num_pins_ + num_mivs_; }
  std::int32_t num_edges() const {
    return static_cast<std::int32_t>(succ_.size());
  }

  bool is_miv_node(NodeId n) const { return n >= num_pins_; }
  NodeId miv_node(MivId miv) const { return num_pins_ + miv; }
  MivId miv_of_node(NodeId n) const {
    M3DFL_ASSERT(is_miv_node(n));
    return n - num_pins_;
  }

  // Directed adjacency (signal direction).
  std::span<const NodeId> successors(NodeId n) const {
    return {succ_.data() + succ_off_[static_cast<std::size_t>(n)],
            static_cast<std::size_t>(
                succ_off_[static_cast<std::size_t>(n) + 1] -
                succ_off_[static_cast<std::size_t>(n)])};
  }
  std::span<const NodeId> predecessors(NodeId n) const {
    return {pred_.data() + pred_off_[static_cast<std::size_t>(n)],
            static_cast<std::size_t>(
                pred_off_[static_cast<std::size_t>(n) + 1] -
                pred_off_[static_cast<std::size_t>(n)])};
  }

  // ---- Static node attributes ---------------------------------------------

  // Net observed at the node (pin net, or the MIV's net); drives the
  // transition lookups of back-tracing.
  NetId node_net(NodeId n) const {
    return node_net_[static_cast<std::size_t>(n)];
  }
  // Tier location: 0 / 1 for pins; 0.5 for MIV nodes (no tier).
  float loc(NodeId n) const { return loc_[static_cast<std::size_t>(n)]; }
  // Topological level of the owning gate (stem driver for MIV nodes).
  std::int32_t level(NodeId n) const {
    return level_[static_cast<std::size_t>(n)];
  }
  bool is_output_pin(NodeId n) const {
    return out_[static_cast<std::size_t>(n)] != 0;
  }
  // True when the node is an MIV node or shares a net with one.
  bool near_miv(NodeId n) const {
    return near_miv_[static_cast<std::size_t>(n)] != 0;
  }
  std::int32_t fanin_degree(NodeId n) const {
    return pred_off_[static_cast<std::size_t>(n) + 1] -
           pred_off_[static_cast<std::size_t>(n)];
  }
  std::int32_t fanout_degree(NodeId n) const {
    return succ_off_[static_cast<std::size_t>(n) + 1] -
           succ_off_[static_cast<std::size_t>(n)];
  }

  // ---- Top level -----------------------------------------------------------

  std::int32_t num_topnodes() const {
    return static_cast<std::int32_t>(topnodes_.size());
  }
  // Topnode anchors: D pins of all flops (by flop index), then PO pins.
  const std::vector<NodeId>& topnodes() const { return topnodes_; }
  // Fan-in cone of observation point `obs` (its index in topnodes(): flop
  // index, then num_flops() + PO index), the Topnode included; sorted
  // ascending.
  std::span<const NodeId> cone(std::int32_t obs) const {
    const auto i = static_cast<std::size_t>(obs);
    return {cone_nodes_.data() + cone_off_[i],
            cone_off_[i + 1] - cone_off_[i]};
  }

  // Distinct nets of the nodes in cone(obs) (node_net), in the order of
  // their driving output pins there.
  std::span<const NetId> net_cone(std::int32_t obs) const {
    const auto i = static_cast<std::size_t>(obs);
    return {net_cone_nets_.data() + net_cone_off_[i],
            net_cone_off_[i + 1] - net_cone_off_[i]};
  }

  // Per-node Topedge aggregates (over all Topnodes whose cone contains the
  // node): count, mean/std of the shortest distance, mean/std of the MIV
  // count along the path.
  std::int32_t n_top(NodeId n) const {
    return n_top_[static_cast<std::size_t>(n)];
  }
  float dist_mean(NodeId n) const {
    return dist_mean_[static_cast<std::size_t>(n)];
  }
  float dist_std(NodeId n) const {
    return dist_std_[static_cast<std::size_t>(n)];
  }
  float miv_mean(NodeId n) const {
    return miv_mean_[static_cast<std::size_t>(n)];
  }
  float miv_std(NodeId n) const {
    return miv_std_[static_cast<std::size_t>(n)];
  }

  std::int32_t max_level() const { return max_level_; }
  std::int32_t num_flops() const { return num_flops_; }

 private:
  void build_edges(const Netlist& nl, const MivMap& mivs);
  void build_attributes(const Netlist& nl, const TierAssignment& tiers,
                        const MivMap& mivs);
  void build_top_level(const Netlist& nl);
  void build_net_cones();

  std::int32_t num_pins_ = 0;
  std::int32_t num_mivs_ = 0;
  std::int32_t num_flops_ = 0;
  std::int32_t max_level_ = 1;

  std::vector<std::int32_t> succ_off_, pred_off_;
  std::vector<NodeId> succ_, pred_;

  std::vector<NetId> node_net_;
  std::vector<float> loc_;
  std::vector<std::int32_t> level_;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> near_miv_;

  std::vector<NodeId> topnodes_;
  std::vector<std::size_t> cone_off_;
  std::vector<NodeId> cone_nodes_;
  std::vector<std::size_t> net_cone_off_;
  std::vector<NetId> net_cone_nets_;
  std::vector<std::int32_t> n_top_;
  std::vector<float> dist_mean_, dist_std_, miv_mean_, miv_std_;
};

}  // namespace m3dfl

#endif  // M3DFL_GRAPH_HETERO_GRAPH_H_
