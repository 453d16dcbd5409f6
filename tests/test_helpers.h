// Shared fixtures and circuit builders for the m3dfl test suite.
#ifndef M3DFL_TESTS_TEST_HELPERS_H_
#define M3DFL_TESTS_TEST_HELPERS_H_

#include <cstdint>

#include "atpg/tdf_atpg.h"
#include "dft/compactor.h"
#include "dft/scan.h"
#include "diag/datagen.h"
#include "graph/hetero_graph.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/generator.h"
#include "netlist/netlist.h"
#include "sim/simulator.h"

namespace m3dfl::testing {

// A tiny hand-built full-scan circuit used across module tests:
//
//   pi0 ──┐
//         ├─ AND u0 ── n4 ──┬── INV u1 ── n5 ── ff0.D
//   pi1 ──┘                 └── XOR u2 ── n6 ── po0
//   ff0.Q ───────────────────────┘
//
// Gates: pi0, pi1, ff0 (scan flop), u0=AND2, u1=INV, u2=XOR2, po0.
struct TinyCircuit {
  Netlist netlist;
  GateId pi0, pi1, ff0, u0, u1, u2, po0;
  NetId n_pi0, n_pi1, n_q, n4, n5, n6;

  TinyCircuit() {
    pi0 = netlist.add_gate(GateType::kPrimaryInput, "pi0");
    pi1 = netlist.add_gate(GateType::kPrimaryInput, "pi1");
    ff0 = netlist.add_gate(GateType::kScanFlop, "ff0");
    u0 = netlist.add_gate(GateType::kAnd, "u0");
    u1 = netlist.add_gate(GateType::kInv, "u1");
    u2 = netlist.add_gate(GateType::kXor, "u2");
    po0 = netlist.add_gate(GateType::kPrimaryOutput, "po0");

    n_pi0 = netlist.add_net("n_pi0");
    n_pi1 = netlist.add_net("n_pi1");
    n_q = netlist.add_net("n_q");
    n4 = netlist.add_net("n4");
    n5 = netlist.add_net("n5");
    n6 = netlist.add_net("n6");

    netlist.set_output(pi0, n_pi0);
    netlist.set_output(pi1, n_pi1);
    netlist.set_output(ff0, n_q);
    netlist.set_output(u0, n4);
    netlist.set_output(u1, n5);
    netlist.set_output(u2, n6);

    netlist.connect_input(u0, n_pi0);
    netlist.connect_input(u0, n_pi1);
    netlist.connect_input(u1, n4);
    netlist.connect_input(u2, n4);
    netlist.connect_input(u2, n_q);
    netlist.connect_input(ff0, n5);
    netlist.connect_input(po0, n6);

    netlist.finalize();
  }
};

// A small random-but-deterministic scan design for property tests: fast to
// build and simulate, large enough to exercise reconvergence and chains.
inline GeneratorConfig small_config(std::uint64_t seed = 7) {
  GeneratorConfig config;
  config.name = "small";
  config.num_gates = 300;
  config.num_pis = 12;
  config.num_pos = 10;
  config.num_flops = 32;
  config.target_depth = 10;
  config.seed = seed;
  return config;
}

inline Netlist small_netlist(std::uint64_t seed = 7) {
  return generate_netlist(small_config(seed));
}

// A fully prepared small design (tiers, MIVs, scan, compactor, patterns,
// good-machine simulation, diagnosis graph) for diagnosis-layer tests.
struct SmallDesign {
  Netlist netlist;
  TierAssignment tiers;
  MivMap mivs;
  ScanChains scan;
  XorCompactor compactor;
  AtpgResult atpg;
  LocSimulator sim;
  HeteroGraph graph;

  explicit SmallDesign(std::uint64_t seed = 7, std::int32_t num_chains = 8,
                       std::int32_t chains_per_channel = 4)
      : netlist(small_netlist(seed)),
        tiers(partition_tiers(netlist, {})),
        mivs(netlist, tiers),
        scan(netlist, num_chains, seed ^ 0x5CA4),
        compactor(scan, chains_per_channel),
        atpg([&] {
          AtpgOptions opt;
          opt.max_patterns = 96;
          opt.seed = seed ^ 0xA7B6;
          return generate_tdf_patterns(netlist, opt);
        }()),
        sim(netlist),
        graph(netlist, tiers, mivs) {
    sim.run(atpg.patterns);
  }

  DesignContext context() const {
    DesignContext ctx;
    ctx.netlist = &netlist;
    ctx.tiers = &tiers;
    ctx.mivs = &mivs;
    ctx.scan = &scan;
    ctx.compactor = &compactor;
    ctx.patterns = &atpg.patterns;
    ctx.good = &sim;
    ctx.graph = &graph;
    ctx.fail_memory_patterns = 0;
    return ctx;
  }
};

}  // namespace m3dfl::testing

#endif  // M3DFL_TESTS_TEST_HELPERS_H_
