// m3dfl::sta engine tests.
//
// Four layers of coverage:
//  * hand-computed timing on TinyCircuit: arrival/required/slack, WNS/TNS,
//    auto vs explicit clocks, and the exact K-longest-path enumeration
//    (complete universe of five paths, so the ranking is fully checkable);
//  * structural collapsing on a fanout-free chain (16 faults -> 2 classes,
//    inverter direction flip) and dominance on AND inputs;
//  * untestability: scan-blocked cones and the slack-margin criterion;
//  * a differential proof that atpg/coverage's collapsed grading counts
//    what a per-fault grading counts (fault_sim_test checks that every
//    member of a collapse class simulates identically), plus the trainer's
//    sta preflight and the timing lint pass with exact locations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "atpg/coverage.h"
#include "atpg/tdf_atpg.h"
#include "core/checkpoint.h"
#include "core/framework.h"
#include "diag/datagen.h"
#include "lint/checks.h"
#include "sim/fault_sim.h"
#include "sta/collapse.h"
#include "sta/lint_bridge.h"
#include "sta/sta.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace m3dfl {
namespace {

using sta::CollapsedFaults;
using sta::StaOptions;
using sta::TimingAnalysis;
using sta::TimingPath;
using sta::UntestableFault;
using sta::UntestableReason;

// Round-number delay model used for every hand-computed expectation below:
// AND 40, INV 20, XOR 60, flop clock-to-Q 50, net hop 5, no tier derating.
sta::DelayModel test_model() {
  sta::DelayModel m;
  m.gate_delay_ps.fill(0.0);
  m.gate_delay_ps[static_cast<std::size_t>(GateType::kBuf)] = 30.0;
  m.gate_delay_ps[static_cast<std::size_t>(GateType::kInv)] = 20.0;
  m.gate_delay_ps[static_cast<std::size_t>(GateType::kAnd)] = 40.0;
  m.gate_delay_ps[static_cast<std::size_t>(GateType::kXor)] = 60.0;
  m.gate_delay_ps[static_cast<std::size_t>(GateType::kScanFlop)] = 50.0;
  m.tier_factor = {1.0, 1.0};
  m.net_delay_ps = 5.0;
  m.miv_penalty_ps = 10.0;
  return m;
}

StaOptions tiny_options(double clock_ps = 0.0) {
  StaOptions options;
  options.model = test_model();
  options.clock_ps = clock_ps;
  return options;
}

std::vector<double> delays_of(const std::vector<TimingPath>& paths) {
  std::vector<double> d;
  for (const TimingPath& p : paths) d.push_back(p.delay_ps);
  return d;
}

// TinyCircuit arrivals under test_model(): u0.Y = 45, ff0.D = 75,
// u2.Y = 115, po0.A0 = 120 (critical, through ff0.Q at clock-to-Q 50).

TEST(StaTest, ArrivalSlackAndAutoClock) {
  const testing::TinyCircuit c;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, tiny_options());

  EXPECT_DOUBLE_EQ(sta.arrival_ps(c.netlist.output_pin(c.u0)), 45.0);
  EXPECT_DOUBLE_EQ(sta.arrival_ps(c.netlist.input_pin(c.ff0, 0)), 75.0);
  EXPECT_DOUBLE_EQ(sta.arrival_ps(c.netlist.output_pin(c.u2)), 115.0);
  EXPECT_DOUBLE_EQ(sta.arrival_ps(c.netlist.input_pin(c.po0, 0)), 120.0);
  EXPECT_DOUBLE_EQ(sta.critical_delay_ps(), 120.0);

  // Auto clock: 1.10 guard band over the critical path.
  EXPECT_DOUBLE_EQ(sta.clock_ps(), 132.0);
  EXPECT_DOUBLE_EQ(sta.slack_ps(c.netlist.input_pin(c.ff0, 0)), 57.0);
  EXPECT_DOUBLE_EQ(sta.slack_ps(c.netlist.input_pin(c.po0, 0)), 12.0);
  EXPECT_DOUBLE_EQ(sta.wns_ps(), 12.0);
  EXPECT_DOUBLE_EQ(sta.tns_ps(), 0.0);

  ASSERT_EQ(sta.endpoints().size(), 2u);  // ff0.D and po0.A0
  EXPECT_DOUBLE_EQ(sta.net_slack_ps(c.n6), 12.0);
}

TEST(StaTest, ExplicitClockNegativeSlack) {
  const testing::TinyCircuit c;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, tiny_options(100.0));

  EXPECT_DOUBLE_EQ(sta.clock_ps(), 100.0);
  EXPECT_DOUBLE_EQ(sta.slack_ps(c.netlist.input_pin(c.po0, 0)), -20.0);
  EXPECT_DOUBLE_EQ(sta.wns_ps(), -20.0);
  EXPECT_DOUBLE_EQ(sta.tns_ps(), -20.0);
}

TEST(StaTest, KLongestPathsEnumeratesExactly) {
  const testing::TinyCircuit c;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, tiny_options());

  // The complete path universe: ff0.Q->u2->po0 (120), pi{0,1}->u0->u2->po0
  // (115 each), pi{0,1}->u0->u1->ff0.D (75 each).
  const std::vector<TimingPath> all = sta.k_longest_paths(10);
  EXPECT_EQ(delays_of(all),
            (std::vector<double>{120.0, 115.0, 115.0, 75.0, 75.0}));
  for (const TimingPath& p : all) {
    EXPECT_DOUBLE_EQ(p.slack_ps, sta.clock_ps() - p.delay_ps);
  }

  // Truncation keeps the top k.
  EXPECT_EQ(delays_of(sta.k_longest_paths(3)),
            (std::vector<double>{120.0, 115.0, 115.0}));

  const TimingPath critical = sta.critical_path();
  EXPECT_DOUBLE_EQ(critical.delay_ps, 120.0);
  EXPECT_EQ(critical.pins,
            (std::vector<PinId>{c.netlist.output_pin(c.ff0),
                                c.netlist.input_pin(c.u2, 1),
                                c.netlist.output_pin(c.u2),
                                c.netlist.input_pin(c.po0, 0)}));
}

TEST(StaTest, KLongestPathsThroughPin) {
  const testing::TinyCircuit c;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, tiny_options());

  // Through u0.Y: two prefixes (pi0, pi1) x two suffixes (po0 via u2 at
  // 45+70, ff0.D via u1 at 45+30).
  const PinId through = c.netlist.output_pin(c.u0);
  const std::vector<TimingPath> paths =
      sta.k_longest_paths_through_pin(through, 10);
  EXPECT_EQ(delays_of(paths),
            (std::vector<double>{115.0, 115.0, 75.0, 75.0}));
  for (const TimingPath& p : paths) {
    EXPECT_EQ(std::count(p.pins.begin(), p.pins.end(), through), 1);
    // Complete paths: source output pin to capture endpoint.
    EXPECT_TRUE(p.pins.front() == c.netlist.output_pin(c.pi0) ||
                p.pins.front() == c.netlist.output_pin(c.pi1));
    EXPECT_TRUE(p.pins.back() == c.netlist.input_pin(c.po0, 0) ||
                p.pins.back() == c.netlist.input_pin(c.ff0, 0));
    EXPECT_DOUBLE_EQ(p.slack_ps, sta.clock_ps() - p.delay_ps);
  }

  EXPECT_EQ(delays_of(sta.k_longest_paths_through_pin(through, 2)),
            (std::vector<double>{115.0, 115.0}));
}

TEST(StaTest, MivPenaltyAndThroughMiv) {
  const testing::TinyCircuit c;
  // u1 alone on the top tier: n4 (u0->u1 branch) and n5 (u1->ff0) cross.
  TierAssignment tiers(std::vector<std::int8_t>(7, 0));
  tiers.set_tier(c.u1, kTopTier);
  const MivMap mivs(c.netlist, tiers);
  ASSERT_EQ(mivs.num_mivs(), 2);

  const TimingAnalysis sta(c.netlist, &tiers, &mivs, tiny_options());
  // Far branches pay the 10 ps MIV penalty: u1.A0 = 45+5+10, ff0.D =
  // 80+5+10; the same-tier u2 branch of n4 is unchanged.
  EXPECT_DOUBLE_EQ(sta.arrival_ps(c.netlist.input_pin(c.u1, 0)), 60.0);
  EXPECT_DOUBLE_EQ(sta.arrival_ps(c.netlist.input_pin(c.ff0, 0)), 95.0);
  EXPECT_DOUBLE_EQ(sta.arrival_ps(c.netlist.input_pin(c.u2, 0)), 50.0);
  EXPECT_DOUBLE_EQ(sta.critical_delay_ps(), 120.0);

  const MivId miv_n4 = mivs.miv_of_net(c.n4);
  ASSERT_NE(miv_n4, kNullMiv);
  const std::vector<TimingPath> through =
      sta.k_longest_paths_through_miv(miv_n4, 10);
  // Both sources reach ff0.D through the n4 far branch at 45+15+20+15 = 95.
  EXPECT_EQ(delays_of(through), (std::vector<double>{95.0, 95.0}));
  for (const TimingPath& p : through) {
    EXPECT_EQ(p.pins.back(), c.netlist.input_pin(c.ff0, 0));
  }
}

// pi0 -> BUF u0 -> dangling net; pi1 -> po0.  The u0 cone reaches no
// observation point, so its three pins are unobservable in both directions.
struct DeadCone {
  Netlist nl{"deadcone"};
  GateId pi0, pi1, u0, po0;

  DeadCone() {
    pi0 = nl.add_gate(GateType::kPrimaryInput, "pi0");
    pi1 = nl.add_gate(GateType::kPrimaryInput, "pi1");
    u0 = nl.add_gate(GateType::kBuf, "u0");
    po0 = nl.add_gate(GateType::kPrimaryOutput, "po0");
    const NetId n0 = nl.add_net("n0");
    const NetId n1 = nl.add_net("n1");
    const NetId n2 = nl.add_net("n2");
    nl.set_output(pi0, n0);
    nl.set_output(u0, n1);
    nl.set_output(pi1, n2);
    nl.connect_input(u0, n0);
    nl.connect_input(po0, n2);
    nl.finalize();
  }
};

TEST(StaTest, UnobservableConeIsUntestable) {
  const DeadCone c;
  const TimingAnalysis sta(c.nl, nullptr, nullptr, tiny_options());
  const std::vector<UntestableFault> untestable = sta.untestable_faults();

  // pi0.Y, u0.Y, u0.A0 x {STR, STF}.
  ASSERT_EQ(untestable.size(), 6u);
  for (const UntestableFault& u : untestable) {
    EXPECT_EQ(u.reason, UntestableReason::kUnobservable);
    EXPECT_GE(u.slack_ps, sta::kUnconstrainedPs / 2);
    const GateId g = c.nl.pin_gate(u.fault.pin);
    EXPECT_TRUE(g == c.pi0 || g == c.u0);
  }
}

TEST(StaTest, SlackMarginUntestability) {
  const testing::TinyCircuit c;
  StaOptions options = tiny_options(200.0);
  options.max_defect_ps = 100.0;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, options);
  const std::vector<UntestableFault> untestable = sta.untestable_faults();

  // Only the pins exclusive to the short ff0.D path have slack 125 > 100:
  // u1.A0, u1.Y, ff0.A0 (every pin shared with the po0 path caps at 85).
  ASSERT_EQ(untestable.size(), 6u);
  for (const UntestableFault& u : untestable) {
    EXPECT_EQ(u.reason, UntestableReason::kSlackMargin);
    EXPECT_DOUBLE_EQ(u.slack_ps, 125.0);
    const GateId g = c.netlist.pin_gate(u.fault.pin);
    EXPECT_TRUE(g == c.u1 || g == c.ff0) << fault_to_string(c.netlist,
                                                            u.fault);
  }
}

TEST(StaTest, MaxDefectZeroDisablesMargin) {
  const testing::TinyCircuit c;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, tiny_options(200.0));
  EXPECT_TRUE(sta.untestable_faults().empty());
}

// ---- Collapsing -------------------------------------------------------------

// pi -> BUF -> INV -> BUF -> po: one fanout-free chain, 8 pins, 16 faults.
struct Chain {
  Netlist nl{"chain"};
  GateId pi, b0, inv, b1, po;

  Chain() {
    pi = nl.add_gate(GateType::kPrimaryInput, "pi");
    b0 = nl.add_gate(GateType::kBuf, "b0");
    inv = nl.add_gate(GateType::kInv, "inv");
    b1 = nl.add_gate(GateType::kBuf, "b1");
    po = nl.add_gate(GateType::kPrimaryOutput, "po");
    const NetId n0 = nl.add_net();
    const NetId n1 = nl.add_net();
    const NetId n2 = nl.add_net();
    const NetId n3 = nl.add_net();
    nl.set_output(pi, n0);
    nl.set_output(b0, n1);
    nl.set_output(inv, n2);
    nl.set_output(b1, n3);
    nl.connect_input(b0, n0);
    nl.connect_input(inv, n1);
    nl.connect_input(b1, n2);
    nl.connect_input(po, n3);
    nl.finalize();
  }
};

TEST(CollapseTest, FanoutFreeChainCollapsesToTwoClasses) {
  const Chain c;
  const CollapsedFaults collapsed = sta::collapse_tdf_faults(c.nl);

  ASSERT_EQ(collapsed.full.size(), 16u);
  ASSERT_EQ(collapsed.class_of.size(), 16u);
  EXPECT_EQ(collapsed.num_classes(), 2);
  EXPECT_DOUBLE_EQ(collapsed.collapse_ratio(), 8.0);
  // Representatives are the lowest member indices: pi.Y STR and pi.Y STF.
  EXPECT_EQ(collapsed.class_representative,
            (std::vector<std::int32_t>{0, 1}));

  // The inverter flips the direction mid-chain: a slow rise at the chain
  // head is the same defect as a slow *fall* at the tail.
  const std::int32_t tail_stf =
      sta::tdf_fault_index(Fault::slow_to_fall(c.nl.input_pin(c.po, 0)));
  const std::int32_t tail_str =
      sta::tdf_fault_index(Fault::slow_to_rise(c.nl.input_pin(c.po, 0)));
  EXPECT_EQ(collapsed.class_of[static_cast<std::size_t>(tail_stf)],
            collapsed.class_of[0]);
  EXPECT_EQ(collapsed.class_of[static_cast<std::size_t>(tail_str)],
            collapsed.class_of[1]);
  // Every fault is in one of the two classes and each class holds 8.
  const auto in_class0 =
      std::count(collapsed.class_of.begin(), collapsed.class_of.end(), 0);
  EXPECT_EQ(in_class0, 8);
  EXPECT_EQ(collapsed.num_dominated(), 0);
}

TEST(CollapseTest, DominanceReportedOnAndInputs) {
  const testing::TinyCircuit c;
  const CollapsedFaults collapsed = sta::collapse_tdf_faults(c.netlist);

  // AND u0: the output fault dominates each input fault, same direction.
  const PinId out = c.netlist.output_pin(c.u0);
  for (int input = 0; input < 2; ++input) {
    const PinId in = c.netlist.input_pin(c.u0, input);
    EXPECT_EQ(collapsed.dominated_by[static_cast<std::size_t>(
                  sta::tdf_fault_index(Fault::slow_to_rise(in)))],
              sta::tdf_fault_index(Fault::slow_to_rise(out)));
    EXPECT_EQ(collapsed.dominated_by[static_cast<std::size_t>(
                  sta::tdf_fault_index(Fault::slow_to_fall(in)))],
              sta::tdf_fault_index(Fault::slow_to_fall(out)));
  }
  EXPECT_EQ(collapsed.num_dominated(), 4);
  // XOR inputs are never dominated (no controlling value).
  EXPECT_EQ(collapsed.dominated_by[static_cast<std::size_t>(
                sta::tdf_fault_index(
                    Fault::slow_to_rise(c.netlist.input_pin(c.u2, 0))))],
            -1);
}

TEST(CollapseTest, RepresentativesCoverEveryClassOnGeneratedDesign) {
  const Netlist nl = testing::small_netlist(11);
  const CollapsedFaults collapsed = sta::collapse_tdf_faults(nl);
  ASSERT_EQ(collapsed.full.size(),
            2 * static_cast<std::size_t>(nl.num_pins()));
  EXPECT_GT(collapsed.collapse_ratio(), 1.0);
  for (std::int32_t cls = 0; cls < collapsed.num_classes(); ++cls) {
    const std::int32_t rep =
        collapsed.class_representative[static_cast<std::size_t>(cls)];
    ASSERT_GE(rep, 0);
    ASSERT_LT(rep, static_cast<std::int32_t>(collapsed.full.size()));
    EXPECT_EQ(collapsed.class_of[static_cast<std::size_t>(rep)], cls);
    // Representative is the lowest member index.
    for (std::size_t i = 0; i < static_cast<std::size_t>(rep); ++i) {
      EXPECT_NE(collapsed.class_of[i], cls);
    }
  }
}

// ---- Differential proofs ----------------------------------------------------

// What measure_coverage grades, fault by fault: the same universe, the same
// sample, one detects() per fault.
CoverageResult per_fault_coverage(const Netlist& nl, const LocSimulator& sim,
                                  const CoverageOptions& options) {
  std::vector<Fault> faults = enumerate_tdf_faults(nl);
  if (options.sample_faults > 0 &&
      options.sample_faults < static_cast<std::int32_t>(faults.size())) {
    Rng rng(options.seed);
    rng.shuffle(faults);
    faults.resize(static_cast<std::size_t>(options.sample_faults));
  }
  FaultSimulator fsim(nl, sim);
  CoverageResult result;
  result.num_faults = static_cast<std::int32_t>(faults.size());
  for (const Fault& f : faults) result.num_detected += fsim.detects(f) ? 1 : 0;
  return result;
}

TEST(CollapseDifferentialTest, CoverageIsByteIdentical) {
  const testing::SmallDesign d(7);

  CoverageOptions options;
  const CoverageResult a = per_fault_coverage(d.netlist, d.sim, options);
  const CoverageResult b = measure_coverage(d.netlist, d.sim, options);
  EXPECT_EQ(a.num_faults, b.num_faults);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_GT(a.num_detected, 0);
  EXPECT_LT(a.num_detected, a.num_faults);

  // Sampling composes with collapsing: the sampled universe is drawn first,
  // so both gradings see the same fault subset.
  options.sample_faults = 400;
  const CoverageResult sa = per_fault_coverage(d.netlist, d.sim, options);
  const CoverageResult sb = measure_coverage(d.netlist, d.sim, options);
  EXPECT_EQ(sa.num_faults, sb.num_faults);
  EXPECT_EQ(sa.num_detected, sb.num_detected);
}

// ---- Trainer preflight ------------------------------------------------------

TEST(StaPreflightTest, RejectsUntestableLabels) {
  const DeadCone c;
  DesignContext ctx;
  ctx.netlist = &c.nl;

  Sample poisoned;
  poisoned.faults.push_back(
      Fault::slow_to_rise(c.nl.output_pin(c.u0)));
  const std::vector<Sample> samples{poisoned};

  FrameworkOptions fw_options;
  fw_options.model.hidden = 8;
  fw_options.model.num_layers = 2;
  fw_options.training.epochs = 1;
  DiagnosisFramework framework(fw_options);

  TrainerOptions options;
  options.sta_design = &ctx;
  options.sta_samples = samples;
  options.sta_options = tiny_options();
  Trainer trainer(framework, options);

  const std::vector<Subgraph> graphs(1);
  try {
    trainer.train(graphs);
    FAIL() << "expected the sta preflight to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("untestable"), std::string::npos) << what;
    EXPECT_NE(what.find("sample 0"), std::string::npos) << what;
    EXPECT_NE(what.find("STR@u0.Y"), std::string::npos) << what;
    EXPECT_NE(what.find("unobservable"), std::string::npos) << what;
  }
}

// ---- Timing lint pass -------------------------------------------------------

TEST(TimingLintTest, NegativeSlackAndMivMarginCiteExactLocations) {
  const testing::TinyCircuit c;
  TierAssignment tiers(std::vector<std::int8_t>(7, 0));
  tiers.set_tier(c.u1, kTopTier);
  const MivMap mivs(c.netlist, tiers);

  // 100 ps clock: po0 misses by 20; both MIV far branches (u1.A0, ff0.A0)
  // end with slack 5 < the 10 ps via penalty threshold.
  const TimingAnalysis sta(c.netlist, &tiers, &mivs, tiny_options(100.0));
  const lint::TimingFacts facts =
      sta::timing_lint_facts(c.netlist, sta, &mivs, nullptr);

  ASSERT_EQ(facts.negative_slack.size(), 1u);
  EXPECT_EQ(facts.negative_slack[0].location, "po0.A0");
  EXPECT_DOUBLE_EQ(facts.negative_slack[0].slack_ps, -20.0);
  EXPECT_DOUBLE_EQ(facts.miv_margin_threshold_ps, 10.0);
  ASSERT_EQ(facts.tight_mivs.size(), 2u);
  EXPECT_EQ(facts.tight_mivs[0].location, "miv 0 (n4) -> u1.A0");
  EXPECT_EQ(facts.tight_mivs[1].location, "miv 1 (n5) -> ff0.A0");

  lint::Subject subject;
  subject.timing = &facts;
  lint::Report report;
  lint::run_timing_checks(subject, report);

  const lint::Diagnostic* neg = report.find("negative-slack-path");
  ASSERT_NE(neg, nullptr);
  EXPECT_EQ(neg->location, "po0.A0");
  EXPECT_EQ(neg->severity, lint::Severity::kError);
  const lint::Diagnostic* miv = report.find("miv-zero-slack-margin");
  ASSERT_NE(miv, nullptr);
  EXPECT_EQ(miv->location, "miv 0 (n4) -> u1.A0");
  EXPECT_TRUE(report.has_errors());
}

TEST(TimingLintTest, UntestableFaultCitesSite) {
  const DeadCone c;
  const TimingAnalysis sta(c.nl, nullptr, nullptr, tiny_options());
  const lint::TimingFacts facts =
      sta::timing_lint_facts(c.nl, sta, nullptr, nullptr);

  lint::Subject subject;
  subject.timing = &facts;
  lint::Report report;
  lint::run_timing_checks(subject, report);

  const lint::Diagnostic* diag = report.find("untestable-delay-fault");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->location, "STR@pi0.Y");
  EXPECT_NE(diag->message.find("unobservable"), std::string::npos);
  EXPECT_EQ(report.count(lint::Severity::kWarn), 6);
  EXPECT_FALSE(report.has_errors());
}

TEST(TimingLintTest, CorruptedCollapseMappingIsOrphaned) {
  const testing::TinyCircuit c;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, tiny_options());
  CollapsedFaults collapsed = sta::collapse_tdf_faults(c.netlist);
  collapsed.class_of[0] = 999;  // fault 0 now points outside every class

  const lint::TimingFacts facts =
      sta::timing_lint_facts(c.netlist, sta, nullptr, &collapsed);
  ASSERT_FALSE(facts.collapse_orphans.empty());

  lint::Subject subject;
  subject.timing = &facts;
  lint::Report report;
  lint::run_timing_checks(subject, report);

  const lint::Diagnostic* diag = report.find("collapsed-class-orphan");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->location, "fault 0 (STR@pi0.Y)");
  EXPECT_EQ(diag->severity, lint::Severity::kError);
}

TEST(TimingLintTest, CleanDesignProducesNoTimingDiagnostics) {
  const testing::TinyCircuit c;
  const TimingAnalysis sta(c.netlist, nullptr, nullptr, tiny_options());
  const CollapsedFaults collapsed = sta::collapse_tdf_faults(c.netlist);
  const lint::TimingFacts facts =
      sta::timing_lint_facts(c.netlist, sta, nullptr, &collapsed);

  lint::Subject subject;
  subject.timing = &facts;
  lint::Report report;
  lint::run_timing_checks(subject, report);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(StaTest, UntestableFaultsOnGeneratedTieredDesign) {
  const testing::SmallDesign d(7);
  StaOptions options;
  options.model = test_model();
  const TimingAnalysis sta(d.netlist, &d.tiers, &d.mivs, options);

  EXPECT_GT(sta.critical_delay_ps(), 0.0);
  EXPECT_GE(sta.wns_ps(), 0.0);  // auto clock always meets timing
  const std::vector<TimingPath> paths = sta.k_longest_paths(8);
  ASSERT_FALSE(paths.empty());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i].delay_ps, paths[i - 1].delay_ps);
  }
  // Untestable list is ordered by fault site and never cites a testable pin
  // twice.
  const std::vector<UntestableFault> untestable = sta.untestable_faults();
  for (std::size_t i = 1; i < untestable.size(); ++i) {
    EXPECT_LE(untestable[i - 1].fault.pin, untestable[i].fault.pin);
  }
  for (MivId m = 0; m < d.mivs.num_mivs(); ++m) {
    const std::vector<TimingPath> through =
        sta.k_longest_paths_through_miv(m, 2);
    for (const TimingPath& p : through) {
      EXPECT_GT(p.delay_ps, 0.0);
    }
  }
}

}  // namespace
}  // namespace m3dfl
