// Microkernels for the performance-critical primitives: bit-parallel
// good-machine simulation, event-driven fault simulation, back-tracing,
// subgraph extraction, GCN inference, ATPG diagnosis (bypass and compacted
// logs), and heterogeneous graph construction.
//
// Hand-rolled timing loop (steady_clock, repeats, best-of like the other
// benches) emitting the machine-readable BENCH_micro_kernels.json trace;
// --smoke shrinks the fixture and iteration counts for CI.
#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atpg/tdf_atpg.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "graph/backtrace.h"
#include "util/bench_json.h"

namespace m3dfl::bench {
namespace {

using BenchClock = std::chrono::steady_clock;

// Shared fixture state, built once.
struct BenchState {
  std::unique_ptr<Design> design;
  LabeledDataset data;
  // The same faults' logs through the XOR compactor.
  std::vector<Sample> compacted;
  std::unique_ptr<DiagnosisFramework> framework;

  explicit BenchState(bool smoke) {
    design = Design::build(Profile::kAes, DesignConfig::kSyn1);
    DataGenOptions gen;
    gen.num_samples = smoke ? 6 : 16;
    gen.seed = 9090;
    data = build_dataset(*design, gen);
    gen.compacted = true;
    compacted = generate_samples(design->context(), gen);
    FrameworkOptions options;
    options.training.epochs = smoke ? 8 : 30;  // weights don't matter here
    framework = std::make_unique<DiagnosisFramework>(options);
    framework->train(data.graphs);
  }
};

struct Kernel {
  std::string name;
  // Work items one iteration covers (0 = unreported); items/sec lands in
  // the JSON so throughput regressions are visible, not just latency.
  std::int64_t items_per_iter = 0;
  std::function<void()> iter;
};

void run(bool smoke) {
  print_banner("Microkernels: per-primitive latency");
  BenchState s(smoke);
  const DesignContext ctx = s.design->context();

  LocSimulator sim(s.design->netlist());
  FaultSimulator fsim(s.design->netlist(), s.design->good_sim(),
                      &s.design->mivs());
  PinId pin = 0;
  std::vector<std::uint64_t> one_word(
      static_cast<std::size_t>(s.design->good_sim().num_words()));
  std::size_t log_i = 0;
  std::size_t compacted_i = 0;
  std::size_t graph_i = 0;
  const auto next_log = [&]() -> const FailureLog& {
    return s.data.samples[log_i++ % s.data.size()].log;
  };
  const auto next_compacted_log = [&]() -> const FailureLog& {
    return s.compacted[compacted_i++ % s.compacted.size()].log;
  };

  const std::vector<Kernel> kernels = {
      {"good_machine_simulation",
       static_cast<std::int64_t>(s.design->patterns().num_patterns) *
           s.design->netlist().num_gates(),
       [&] { sim.run(s.design->patterns()); }},
      {"fault_simulation_per_fault", 1,
       [&] {
         pin = (pin + 37) % s.design->netlist().num_pins();
         fsim.simulate(Fault::slow_to_rise(pin));
       }},
      // The same faults simulated on the lanes of one 64-pattern word only,
      // as ATPG diagnosis scores a candidate on the observed failing
      // patterns.
      {"fault_simulation_observed_lanes", 1,
       [&] {
         pin = (pin + 37) % s.design->netlist().num_pins();
         std::fill(one_word.begin(), one_word.end(), 0);
         one_word[static_cast<std::size_t>(pin) % one_word.size()] = ~0ULL;
         fsim.simulate(Fault::slow_to_rise(pin), one_word);
       }},
      {"backtrace", 1,
       [&] { backtrace_with_support(s.design->graph(), ctx, next_log()); }},
      // The chain prefix's back-trace step: back-trace, subgraph extraction
      // and adjacency.
      {"subgraph_extraction", 1,
       [&] { backtrace_prefix(*s.design, next_log()); }},
      // Adjacency plus the three models' forward passes.
      {"gnn_inference", 1,
       [&] {
         const Subgraph& g = s.data.graphs[graph_i++ % s.data.size()];
         s.framework->predict(g, subgraph_adjacency(g));
       }},
      {"atpg_diagnosis", 1, [&] { diagnose_atpg(ctx, next_log()); }},
      // Every candidate's prediction passes through XOR parity before it is
      // matched against the log.
      {"atpg_diagnosis_compacted", 1,
       [&] { diagnose_atpg(ctx, next_compacted_log()); }},
      {"hetero_graph_construction", 1,
       [&] {
         HeteroGraph graph(s.design->netlist(), s.design->tiers(),
                           s.design->mivs());
       }},
  };

  const int repeats = smoke ? 1 : 3;

  BenchJson json("micro_kernels");
  json.meta("smoke", smoke);
  json.meta("design", s.design->name());
  json.meta("repeats", repeats);

  TablePrinter table({"Kernel", "Iters", "Mean ms", "Items/s"});
  for (const Kernel& kernel : kernels) {
    kernel.iter();  // warm-up: caches, lazy allocations
    double best_mean_ms = -1.0;
    std::int64_t iters_used = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      // Iterate until the sample is long enough to time (smoke: one
      // iteration — CI wants the trace, not statistics).
      const double min_seconds = smoke ? 0.0 : 0.2;
      std::int64_t iters = 0;
      const BenchClock::time_point t0 = BenchClock::now();
      double elapsed_s = 0.0;
      while (iters == 0 || elapsed_s < min_seconds) {
        kernel.iter();
        ++iters;
        elapsed_s =
            std::chrono::duration<double>(BenchClock::now() - t0).count();
      }
      const double mean_ms = elapsed_s * 1e3 / static_cast<double>(iters);
      if (best_mean_ms < 0.0 || mean_ms < best_mean_ms) {
        best_mean_ms = mean_ms;
        iters_used = iters;
      }
    }
    const double items_per_s =
        kernel.items_per_iter > 0 && best_mean_ms > 0.0
            ? static_cast<double>(kernel.items_per_iter) /
                  (best_mean_ms * 1e-3)
            : 0.0;

    JsonObject& row = json.add_row();
    row.set("kernel", kernel.name);
    row.set("iterations", iters_used);
    row.set("mean_ms", best_mean_ms);
    row.set("items_per_second", items_per_s);

    table.add_row({kernel.name, std::to_string(iters_used),
                   fmt2(best_mean_ms),
                   items_per_s > 0.0 ? fmt2(items_per_s) : "-"});
  }
  table.print();
  json.write("BENCH_micro_kernels.json");
  std::cout << "wrote BENCH_micro_kernels.json\n";
}

}  // namespace
}  // namespace m3dfl::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  m3dfl::bench::run(smoke);
  return 0;
}
