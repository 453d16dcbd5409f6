// Shared configuration and formatting for the benchmark harness.
//
// Every bench regenerates one table/figure of the paper.  Scales are reduced
// (DESIGN.md §2): test sets of ~50 dies instead of 750, and the scaled
// synthetic benchmark profiles.  Shapes — who wins, by roughly what factor,
// where the crossovers fall — are the reproduction target, not absolute
// values.
#ifndef M3DFL_BENCH_BENCH_COMMON_H_
#define M3DFL_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>

#include "atpg/tdf_atpg.h"
#include "core/experiment.h"
#include "diag/datagen.h"
#include "dft/compactor.h"
#include "dft/scan.h"
#include "graph/hetero_graph.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/generator.h"
#include "sim/simulator.h"
#include "util/table.h"

namespace m3dfl::bench {

// A self-contained generated scan design (tiers, MIVs, scan, compactor,
// patterns, good-machine simulation) at a configurable size — the shared
// substrate of the noise-robustness and stream-latency benches.
struct BenchDesign {
  std::string name;
  Netlist netlist;
  TierAssignment tiers;
  MivMap mivs;
  ScanChains scan;
  XorCompactor compactor;
  AtpgResult atpg;
  LocSimulator sim;
  HeteroGraph graph;

  BenchDesign(std::string label, std::int32_t num_gates, std::uint64_t seed)
      : name(std::move(label)),
        netlist([&] {
          GeneratorConfig config;
          config.name = name;
          config.num_gates = num_gates;
          config.num_pis = 12;
          config.num_pos = 10;
          config.num_flops = 32;
          config.target_depth = 10;
          config.seed = seed;
          return generate_netlist(config);
        }()),
        tiers(partition_tiers(netlist, {})),
        mivs(netlist, tiers),
        scan(netlist, 8, seed ^ 0x5CA4),
        compactor(scan, 4),
        atpg([&] {
          AtpgOptions opt;
          opt.max_patterns = 96;
          opt.seed = seed ^ 0xA7B6;
          return generate_tdf_patterns(netlist, opt);
        }()),
        sim(netlist),
        graph([&] {
          sim.run(atpg.patterns);
          return HeteroGraph(netlist, tiers, mivs);
        }()) {}

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

// Standard experiment scale used across the table benches.
inline ExperimentOptions standard_options(bool compacted) {
  ExperimentOptions opt;
  opt.compacted = compacted;
  opt.test_samples = 50;
  return opt;
}

inline std::string fmt1(double v) { return TablePrinter::fmt(v, 1); }
inline std::string fmt2(double v) { return TablePrinter::fmt(v, 2); }
inline std::string pct(double v) { return TablePrinter::pct(v, 1); }

// "mean (std)" cell.
inline std::string mean_std(const Accumulator& acc) {
  return fmt1(acc.mean()) + " (" + fmt1(acc.stddev()) + ")";
}

// Relative improvement of `now` over the ATPG report value `base`,
// rendered like the paper's parenthesized deltas (positive = better).
inline std::string improvement(double base, double now) {
  if (base <= 0.0) return "(n/a)";
  return TablePrinter::delta_pct((base - now) / base, 1);
}

// Accuracy delta versus the ATPG report (negative = loss).
inline std::string accuracy_delta(double base, double now) {
  return TablePrinter::delta_pct(now - base, 1);
}

inline void print_banner(const std::string& what) {
  std::cout << "\n==== " << what << " ====\n"
            << "(scaled reproduction; see DESIGN.md / EXPERIMENTS.md)\n\n";
}

}  // namespace m3dfl::bench

#endif  // M3DFL_BENCH_BENCH_COMMON_H_
