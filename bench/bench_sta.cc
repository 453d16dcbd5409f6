// Static timing & testability analysis benchmark (docs/ANALYSIS.md).
//
// Times the new sta/ subsystem on generated designs at two sizes (one in
// --smoke): full analysis construction (arrival + required + suffix DP),
// K-longest-path enumeration, structural TDF collapsing, and the coverage
// grading the collapsing speeds up (measure_coverage simulates one fault per
// class; tests/sta_test.cc proves the count equals a per-fault grading).
// Emits BENCH_sta.json.
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atpg/coverage.h"
#include "bench_common.h"
#include "sta/collapse.h"
#include "sta/sta.h"
#include "util/bench_json.h"

namespace m3dfl::bench {
namespace {

using BenchClock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& work) {
  const BenchClock::time_point t0 = BenchClock::now();
  work();
  return std::chrono::duration<double>(BenchClock::now() - t0).count() * 1e3;
}

void run(bool smoke) {
  print_banner("STA: slack propagation, K-longest paths, fault collapsing");

  std::vector<std::pair<std::string, std::int32_t>> sizes = {
      {"sta-small", 2000}};
  if (!smoke) sizes.push_back({"sta-large", 12000});
  const std::int32_t k_paths = 32;

  BenchJson json("sta");
  json.meta("smoke", smoke);
  json.meta("k_paths", k_paths);

  TablePrinter table({"Design", "Gates", "Build ms", "K-paths ms",
                      "Collapse ms", "Faults", "Classes", "Ratio",
                      "Coverage ms", "Coverage"});

  for (const auto& [label, num_gates] : sizes) {
    const BenchDesign d(label, num_gates, 0xBEEF);

    sta::StaOptions options;
    std::vector<sta::TimingPath> paths;
    sta::CollapsedFaults collapsed;
    double wns = 0.0;

    std::unique_ptr<sta::TimingAnalysis> sta;
    const double build_ms = time_ms([&] {
      sta = std::make_unique<sta::TimingAnalysis>(d.netlist, &d.tiers,
                                                  &d.mivs, options);
      wns = sta->wns_ps();
    });
    const double paths_ms =
        time_ms([&] { paths = sta->k_longest_paths(k_paths); });
    const double collapse_ms =
        time_ms([&] { collapsed = sta::collapse_tdf_faults(d.netlist); });

    CoverageResult cov;
    const double cov_ms =
        time_ms([&] { cov = measure_coverage(d.netlist, d.sim, {}); });

    JsonObject& row = json.add_row();
    row.set("design", label);
    row.set("gates", d.netlist.num_logic_gates());
    row.set("build_ms", build_ms);
    row.set("k_paths_ms", paths_ms);
    row.set("collapse_ms", collapse_ms);
    row.set("wns_ps", wns);
    row.set("critical_delay_ps", sta->critical_delay_ps());
    row.set("num_faults", collapsed.full.size());
    row.set("num_classes", static_cast<std::size_t>(collapsed.num_classes()));
    row.set("collapse_ratio", collapsed.collapse_ratio());
    row.set("coverage_ms", cov_ms);
    row.set("coverage", cov.coverage());

    table.add_row({label, std::to_string(d.netlist.num_logic_gates()),
                   fmt2(build_ms), fmt2(paths_ms), fmt2(collapse_ms),
                   std::to_string(collapsed.full.size()),
                   std::to_string(collapsed.num_classes()),
                   fmt2(collapsed.collapse_ratio()), fmt2(cov_ms),
                   fmt2(cov.coverage())});
  }

  table.print();
  json.write("BENCH_sta.json");
  std::cout << "wrote BENCH_sta.json\n";
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
