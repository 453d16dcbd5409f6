// MIV defect characterization: the paper's second diagnosis target.
//
// Monolithic inter-tier vias are the M3D-specific interconnect (voids from
// inter-layer-dielectric roughness make them delay-fault prone).  This
// example injects MIV delay faults, runs the MIV-pinpointer, and shows how
// the pruning & reordering policy pushes MIV-equivalent candidates to the
// top of the diagnosis report — early feedback for via-process
// characterization.
#include <iostream>

#include "core/experiment.h"
#include "util/table.h"

using namespace m3dfl;

int main() {
  std::cout << "== m3dfl MIV characterization example ==\n\n";

  ExperimentOptions opt;
  opt.train.samples_syn1 = 160;
  opt.train.samples_per_random = 80;
  opt.train.miv_fault_prob = 0.3;  // via-rich training mix
  std::cout << "training on Tate/Syn-1 with a via-rich fault mix...\n";
  const ProfileExperiment experiment(Profile::kTate, opt);
  const Design& design = experiment.syn1();
  const DesignContext ctx = design.context();
  std::cout << "design has " << design.mivs().num_mivs()
            << " MIVs across " << design.netlist().num_logic_gates()
            << " gates\n\n";

  // A wafer of dies failing from MIV voids only.
  DataGenOptions gen;
  gen.num_samples = 40;
  gen.miv_fault_prob = 1.0;
  gen.seed = 31337;
  const LabeledDataset wafer = build_dataset(design, gen);

  std::int32_t pinpointed = 0;
  std::int32_t in_flagged_set = 0;
  Accumulator flagged_count;
  Accumulator fhi_atpg;
  Accumulator fhi_refined;
  for (std::size_t i = 0; i < wafer.size(); ++i) {
    const Sample& die = wafer.samples[i];
    const MivId truth = die.faulty_mivs[0];

    const Subgraph& g = wafer.graphs[i];
    const FrameworkPrediction p =
        experiment.framework().predict(g, subgraph_adjacency(g));
    flagged_count.add(static_cast<double>(p.faulty_mivs.size()));
    bool hit = false;
    for (MivId m : p.faulty_mivs) hit = hit || m == truth;
    if (hit) {
      ++in_flagged_set;
      if (p.faulty_mivs.size() == 1) ++pinpointed;
    }

    DiagnosisReport report = diagnose_atpg(ctx, die.log);
    fhi_atpg.add(evaluate_report(ctx, report, die).fhi);
    experiment.framework().refine_report(ctx, p, report);
    fhi_refined.add(evaluate_report(ctx, report, die).fhi);
  }

  TablePrinter table({"Metric", "Value"});
  table.add_row({"dies analyzed", std::to_string(wafer.size())});
  table.add_row({"defective MIV inside flagged set",
                 TablePrinter::pct(static_cast<double>(in_flagged_set) /
                                   static_cast<double>(wafer.size()))});
  table.add_row({"pinpointed exactly (set of one)",
                 TablePrinter::pct(static_cast<double>(pinpointed) /
                                   static_cast<double>(wafer.size()))});
  table.add_row({"mean MIVs flagged per die",
                 TablePrinter::fmt(flagged_count.mean(), 2)});
  table.add_row({"mean FHI, raw ATPG report",
                 TablePrinter::fmt(fhi_atpg.mean(), 2)});
  table.add_row({"mean FHI after MIV prioritization",
                 TablePrinter::fmt(fhi_refined.mean(), 2)});
  table.print();

  std::cout << "\nMIV-equivalent candidates are moved to the head of each "
               "report (paper Fig. 8), so failure analysis starts at the "
               "via — the component the M3D process team needs "
               "characterized first.\n";
  return 0;
}
