// m3dfl::lint engine tests.
//
// Three layers of coverage:
//  * the seeded-defect corpus (tests/lint_corpus/*.mnl): every netlist-pass
//    check id fires on its fixture with the right location, and the clean
//    fixture produces zero diagnostics;
//  * in-code fixtures for the deeper passes (M3D, scan/DfT, graph
//    cross-check, features, failure logs, models), built by pairing
//    artifacts from *different* netlists or hand-poisoning data — the
//    defect classes the strict constructors cannot represent;
//  * generator-produced designs lint clean end to end (the property the
//    serve admission gate and train preflight rely on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/framework.h"
#include "lint/checks.h"
#include "lint/lint.h"
#include "lint/netlist_facts.h"

#ifndef M3DFL_LINT_CORPUS_DIR
#error "build must define M3DFL_LINT_CORPUS_DIR"
#endif

namespace m3dfl {
namespace {

using lint::Report;
using lint::Severity;

std::string read_corpus(const std::string& name) {
  const std::string path = std::string(M3DFL_LINT_CORPUS_DIR) + "/" + name;
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "missing corpus fixture " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

Report lint_corpus_file(const std::string& name) {
  return lint::lint_mnl(read_corpus(name), name);
}

// pi0, pi1 -> AND -> SDFF -> INV -> PO; finalized and defect-free.
// Gate ids 0..5, nets 0..4.
Netlist make_clean_netlist() {
  Netlist nl("unit");
  const GateId pi0 = nl.add_gate(GateType::kPrimaryInput, "pi0");
  const GateId pi1 = nl.add_gate(GateType::kPrimaryInput, "pi1");
  const GateId u1 = nl.add_gate(GateType::kAnd, "u1");
  const GateId ff = nl.add_gate(GateType::kScanFlop, "ff0");
  const GateId u2 = nl.add_gate(GateType::kInv, "u2");
  const GateId po = nl.add_gate(GateType::kPrimaryOutput, "po0");
  const NetId n0 = nl.add_net();
  const NetId n1 = nl.add_net();
  const NetId n2 = nl.add_net();
  const NetId n3 = nl.add_net();
  const NetId n4 = nl.add_net();
  nl.set_output(pi0, n0);
  nl.set_output(pi1, n1);
  nl.set_output(u1, n2);
  nl.connect_input(u1, n0);
  nl.connect_input(u1, n1);
  nl.set_output(ff, n3);
  nl.connect_input(ff, n2);
  nl.set_output(u2, n4);
  nl.connect_input(u2, n3);
  nl.connect_input(po, n4);
  nl.finalize();
  return nl;
}

// pi -> {ff0, ff1, ff2}; AND(ff0.Q, ff1.Q) -> PO.  Three flops for the
// scan-architecture fixtures.
Netlist make_three_flop_netlist() {
  Netlist nl("flops");
  const GateId pi = nl.add_gate(GateType::kPrimaryInput, "pi0");
  const NetId n0 = nl.add_net();
  nl.set_output(pi, n0);
  std::vector<NetId> q;
  for (int i = 0; i < 3; ++i) {
    const GateId ff = nl.add_gate(GateType::kScanFlop, "ff" + std::to_string(i));
    const NetId nq = nl.add_net();
    nl.set_output(ff, nq);
    nl.connect_input(ff, n0);
    q.push_back(nq);
  }
  const GateId u = nl.add_gate(GateType::kAnd, "u0");
  const NetId nu = nl.add_net();
  nl.set_output(u, nu);
  nl.connect_input(u, q[0]);
  nl.connect_input(u, q[1]);
  const GateId po = nl.add_gate(GateType::kPrimaryOutput, "po0");
  nl.connect_input(po, nu);
  // q[2] is driven but unread, which is legal (an unobserved flop output).
  nl.finalize();
  return nl;
}

TierAssignment all_bottom(const Netlist& nl) {
  return TierAssignment(
      std::vector<std::int8_t>(static_cast<std::size_t>(nl.num_gates()), 0));
}

// A minimal valid 13-wide subgraph (two nodes, one edge, all-zero features).
Subgraph make_clean_subgraph() {
  Subgraph sg;
  sg.nodes = {0, 1};
  sg.edge_u = {0};
  sg.edge_v = {1};
  sg.features = Matrix(2, kNumNodeFeatures);
  return sg;
}

// ---- catalog ----------------------------------------------------------------

TEST(LintCatalogTest, IdsAreUniqueAndRoundTrip) {
  const auto catalog = lint::check_catalog();
  EXPECT_GE(catalog.size(), 30u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const lint::CheckInfo& info = catalog[i];
    EXPECT_STRNE(info.id, "");
    EXPECT_STRNE(info.summary, "");
    EXPECT_STRNE(info.hint, "");
    for (std::size_t j = i + 1; j < catalog.size(); ++j) {
      EXPECT_STRNE(info.id, catalog[j].id);
    }
    EXPECT_EQ(&lint::check_info(info.id), &info);
  }
  EXPECT_THROW(lint::check_info("no-such-check"), Error);
}

TEST(LintCatalogTest, DiagnosticFormattingCarriesCatalogMetadata) {
  Report report;
  {
    lint::Emitter emit(report);
    EXPECT_TRUE(emit.emit("net-undriven", "net 7", "nobody drives this"));
  }
  ASSERT_EQ(report.size(), 1u);
  const lint::Diagnostic& d = report.diagnostics().front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.artifact, lint::ArtifactKind::kNetlist);
  EXPECT_FALSE(d.hint.empty());
  const std::string line = d.to_string();
  EXPECT_NE(line.find("error[net-undriven]"), std::string::npos);
  EXPECT_NE(line.find("net 7"), std::string::npos);
  EXPECT_EQ(report.summary(), "1 error");
}

TEST(LintCatalogTest, EmitterCapsPerCheckFlood) {
  Report report;
  {
    lint::Emitter emit(report, 3);
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
      if (emit.emit("net-undriven", "net " + std::to_string(i), "x")) {
        ++accepted;
      }
    }
    EXPECT_EQ(accepted, 3);
  }
  // 3 diagnostics plus the suppression note appended at Emitter destruction.
  EXPECT_EQ(report.size(), 4u);
  EXPECT_EQ(report.count(Severity::kNote), 1);
}

// ---- corpus (netlist pass) --------------------------------------------------

TEST(LintCorpusTest, CleanFixtureHasZeroDiagnostics) {
  const Report report = lint_corpus_file("clean.mnl");
  EXPECT_TRUE(report.empty()) << report.to_string();
}

struct CorpusCase {
  const char* file;
  const char* check_id;
  const char* location_substr;  // must appear in the cited location
};

class LintCorpusDefects : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(LintCorpusDefects, FlagsSeededDefectWithIdAndLocation) {
  const CorpusCase& c = GetParam();
  const Report report = lint_corpus_file(c.file);
  const lint::Diagnostic* d = report.find(c.check_id);
  ASSERT_NE(d, nullptr) << c.file << " did not trigger " << c.check_id
                        << "\n" << report.to_string();
  EXPECT_NE(d->location.find(c.location_substr), std::string::npos)
      << "location was '" << d->location << "'";
  EXPECT_EQ(d->severity, lint::check_info(c.check_id).severity);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LintCorpusDefects,
    ::testing::Values(
        CorpusCase{"multi_driver.mnl", "net-multi-driver", "net 3"},
        CorpusCase{"undriven.mnl", "net-undriven", "net 2"},
        CorpusCase{"arity.mnl", "net-arity", "arity.mnl:6"},
        CorpusCase{"comb_loop.mnl", "net-comb-loop", "comb_loop.mnl"},
        CorpusCase{"floating_pin.mnl", "net-floating-pin",
                   "floating_pin.mnl:6"},
        CorpusCase{"unreachable.mnl", "net-unreachable", "unreachable.mnl"},
        CorpusCase{"syntax.mnl", "mnl-syntax", "syntax.mnl:9"},
        CorpusCase{"net_id_bomb.mnl", "mnl-syntax", "net_id_bomb.mnl:3"}));

TEST(LintCorpusTest, MultiDriverCitesEveryDriverLine) {
  const Report report = lint_corpus_file("multi_driver.mnl");
  const lint::Diagnostic* d = report.find("net-multi-driver");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("multi_driver.mnl:8"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("multi_driver.mnl:9"), std::string::npos)
      << d->message;
}

TEST(LintCorpusTest, SyntaxFixtureFlagsBothBadRecords) {
  const Report report = lint_corpus_file("syntax.mnl");
  int syntax = 0;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.check_id == "mnl-syntax") ++syntax;
  }
  EXPECT_EQ(syntax, 2) << report.to_string();  // "wire" record + FROB gate
  // The skipped FROB gate leaves net 1 undriven.
  EXPECT_TRUE(report.contains("net-undriven"));
}

// Lint scans with read_mnl's scanner, so every ParseLimits cap applies (the
// net_id_bomb.mnl corpus case covers the net id cap).
TEST(LintCorpusTest, ScannerLimitsApplyAndTheBadLinesAreSkipped) {
  // An over-long line and token spam each cost one diagnostic at their
  // line; the gates around them still reach the netlist checks.
  std::string spam;
  for (int i = 0; i < 5000; ++i) spam += "t ";
  const std::string text = "mnl 1\ngate 0 PI a out=0 in=-\n# " +
                           std::string(70 * 1024, 'x') + "\n" + spam +
                           "\ngate 1 PO y out=- in=0\nend\n";
  const Report report = lint::lint_mnl(text, "spam.mnl");
  std::vector<std::string> locations;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    EXPECT_EQ(d.check_id, "mnl-syntax") << d.message;
    EXPECT_NE(d.message.find("limit exceeded"), std::string::npos)
        << d.message;
    locations.push_back(d.location);
  }
  EXPECT_EQ(locations,
            (std::vector<std::string>{"spam.mnl:3", "spam.mnl:4"}))
      << report.to_string();
}

TEST(LintCorpusTest, UnreachableIslandIsWarnedAndItsLoopIsAnError) {
  const Report report = lint_corpus_file("unreachable.mnl");
  const lint::Diagnostic* warn = report.find("net-unreachable");
  ASSERT_NE(warn, nullptr);
  EXPECT_EQ(warn->severity, Severity::kWarn);
  EXPECT_TRUE(report.contains("net-comb-loop"));
  EXPECT_EQ(report.worst(), Severity::kError);
}

// ---- M3D pass ---------------------------------------------------------------

TEST(LintM3dTest, WrongSizeTierAssignmentIsUnassigned) {
  const Netlist nl = make_clean_netlist();
  const TierAssignment tiers(std::vector<std::int8_t>(3, 0));  // 6 gates
  lint::Subject subject;
  subject.netlist = &nl;
  subject.tiers = &tiers;
  Report report;
  lint::run_m3d_checks(subject, report);
  ASSERT_TRUE(report.contains("tier-unassigned")) << report.to_string();
  EXPECT_EQ(report.size(), 1u);  // pass stops: tier_of would assert
}

TEST(LintM3dTest, IllegalTierValueIsInvalid) {
  const Netlist nl = make_clean_netlist();
  std::vector<std::int8_t> values(static_cast<std::size_t>(nl.num_gates()), 0);
  values[2] = 3;
  const TierAssignment tiers(std::move(values));
  lint::Subject subject;
  subject.netlist = &nl;
  subject.tiers = &tiers;
  Report report;
  lint::run_m3d_checks(subject, report);
  const lint::Diagnostic* d = report.find("tier-invalid");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_NE(d->location.find("gate 2"), std::string::npos) << d->location;
  EXPECT_NE(d->message.find("3"), std::string::npos);
}

// MIV map built against one partition, linted against another: the count no
// longer matches the cut, one MIV's recorded driver tier is stale
// (miv-orphan), and another MIV's far sink now sits on the driver's own
// tier (miv-same-tier).
TEST(LintM3dTest, StaleMivMapTriggersCountOrphanAndSameTier) {
  const Netlist nl = make_clean_netlist();
  TierAssignment built = all_bottom(nl);
  built.set_tier(4, kTopTier);  // u2 on top: nets 3 and 4 cross tiers
  const MivMap mivs(nl, built);
  ASSERT_EQ(mivs.num_mivs(), 2);

  const TierAssignment linted = all_bottom(nl);
  lint::Subject subject;
  subject.netlist = &nl;
  subject.tiers = &linted;
  subject.mivs = &mivs;
  Report report;
  lint::run_m3d_checks(subject, report);
  EXPECT_TRUE(report.contains("miv-count-mismatch")) << report.to_string();
  EXPECT_TRUE(report.contains("miv-same-tier")) << report.to_string();
  EXPECT_TRUE(report.contains("miv-orphan")) << report.to_string();
}

TEST(LintM3dTest, MivCitingMissingNetIsOrphan) {
  const Netlist big = make_three_flop_netlist();
  TierAssignment big_tiers = all_bottom(big);
  big_tiers.set_tier(4, kTopTier);  // u0 (AND) on top
  const MivMap mivs(big, big_tiers);
  ASSERT_GT(mivs.num_mivs(), 0);

  // Lint the same MIV map against a smaller netlist: the cited nets and
  // gates do not exist there.
  const Netlist small = make_clean_netlist();
  const TierAssignment small_tiers = all_bottom(small);
  lint::Subject subject;
  subject.netlist = &small;
  subject.tiers = &small_tiers;
  subject.mivs = &mivs;
  Report report;
  lint::run_m3d_checks(subject, report);
  EXPECT_TRUE(report.contains("miv-orphan")) << report.to_string();
}

// ---- scan/DfT pass ----------------------------------------------------------

TEST(LintScanTest, GeneratedStitchingIsClean) {
  const Netlist nl = make_three_flop_netlist();
  const ScanChains scan(nl, 2, 7);
  const XorCompactor compactor(scan, 1);
  lint::Subject subject;
  subject.netlist = &nl;
  subject.scan = &scan;
  subject.compactor = &compactor;
  Report report;
  lint::run_scan_checks(subject, report);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(LintScanTest, ImportedOrderWithUnknownAndMissingFlops) {
  const Netlist nl = make_three_flop_netlist();
  // Flop 5 does not exist; flop 2 is never stitched.
  const ScanChains scan({{0, 1}, {5}}, 3);
  lint::Subject subject;
  subject.netlist = &nl;
  subject.scan = &scan;
  Report report;
  lint::run_scan_checks(subject, report);
  bool cites_unknown = false, cites_missing = false;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.check_id != "scan-off-chain") continue;
    if (d.location == "chain 1[0]") cites_unknown = true;
    if (d.location == "flop 2") cites_missing = true;
  }
  EXPECT_TRUE(cites_unknown) << report.to_string();
  EXPECT_TRUE(cites_missing) << report.to_string();
}

TEST(LintScanTest, RepeatedFlopIsDuplicateCell) {
  const Netlist nl = make_three_flop_netlist();
  const ScanChains scan({{0, 1}, {1, 2}}, 3);
  lint::Subject subject;
  subject.netlist = &nl;
  subject.scan = &scan;
  Report report;
  lint::run_scan_checks(subject, report);
  const lint::Diagnostic* d = report.find("scan-duplicate-cell");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->location, "chain 1[0]");
}

TEST(LintScanTest, CompactorFromDifferentStitchingBreaksFanin) {
  const Netlist nl = make_three_flop_netlist();
  const ScanChains scan(nl, 3, 7);       // 3 chains
  const ScanChains narrow(nl, 2, 7);     // 2 chains
  const XorCompactor compactor(narrow, 1);  // covers chains 0..1 only
  lint::Subject subject;
  subject.netlist = &nl;
  subject.scan = &scan;
  subject.compactor = &compactor;
  Report report;
  lint::run_scan_checks(subject, report);
  const lint::Diagnostic* d = report.find("dft-compactor-fanin");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->location, "chain 2");
  EXPECT_NE(d->message.find("no output channel"), std::string::npos);
}

TEST(LintScanTest, GraphFromOtherDesignHasUnmappedObservationPoints) {
  const Netlist nl = make_three_flop_netlist();  // 3 flops + 1 PO
  const Netlist other = make_clean_netlist();    // 1 flop + 1 PO
  const TierAssignment tiers = all_bottom(other);
  const MivMap mivs(other, tiers);
  const HeteroGraph graph(other, tiers, mivs);
  lint::Subject subject;
  subject.netlist = &nl;
  subject.graph = &graph;
  Report report;
  lint::run_scan_checks(subject, report);
  const lint::Diagnostic* d = report.find("dft-obs-unmapped");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_NE(d->message.find("design has 4"), std::string::npos) << d->message;
}

// ---- graph pass -------------------------------------------------------------

TEST(LintGraphTest, FreshGraphIsClean) {
  const Netlist nl = make_clean_netlist();
  const TierAssignment tiers = all_bottom(nl);
  const MivMap mivs(nl, tiers);
  const HeteroGraph graph(nl, tiers, mivs);
  lint::Subject subject;
  subject.netlist = &nl;
  subject.tiers = &tiers;
  subject.mivs = &mivs;
  subject.graph = &graph;
  Report report;
  lint::run_graph_checks(subject, report);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(LintGraphTest, GraphOfOtherNetlistFailsNodeCount) {
  const Netlist nl = make_three_flop_netlist();
  const TierAssignment tiers = all_bottom(nl);
  const MivMap mivs(nl, tiers);
  const Netlist other = make_clean_netlist();
  const TierAssignment other_tiers = all_bottom(other);
  const MivMap other_mivs(other, other_tiers);
  const HeteroGraph graph(other, other_tiers, other_mivs);
  lint::Subject subject;
  subject.netlist = &nl;
  subject.tiers = &tiers;
  subject.mivs = &mivs;
  subject.graph = &graph;
  Report report;
  lint::run_graph_checks(subject, report);
  EXPECT_TRUE(report.contains("graph-node-count")) << report.to_string();
}

// Rewire the netlist after building the graph: same pin count, different
// adjacency and different Topedge BFS distances.  The stale graph must fail
// both the edge diff and the aggregate recomputation.
TEST(LintGraphTest, RewiredNetlistMakesGraphStale) {
  Netlist nl("rewire");
  const GateId pi0 = nl.add_gate(GateType::kPrimaryInput, "pi0");
  const GateId pi1 = nl.add_gate(GateType::kPrimaryInput, "pi1");
  const GateId b0 = nl.add_gate(GateType::kBuf, "b0");
  const GateId b1 = nl.add_gate(GateType::kBuf, "b1");
  const GateId a = nl.add_gate(GateType::kAnd, "a0");
  const GateId po = nl.add_gate(GateType::kPrimaryOutput, "po0");
  const NetId n0 = nl.add_net();
  const NetId n1 = nl.add_net();
  const NetId n2 = nl.add_net();
  const NetId n3 = nl.add_net();
  const NetId n4 = nl.add_net();
  nl.set_output(pi0, n0);
  nl.set_output(pi1, n1);
  nl.set_output(b0, n2);
  nl.connect_input(b0, n0);
  nl.set_output(b1, n3);
  nl.connect_input(b1, n2);
  nl.set_output(a, n4);
  nl.connect_input(a, n3);
  nl.connect_input(a, n1);
  nl.connect_input(po, n4);
  nl.finalize();

  const TierAssignment tiers = all_bottom(nl);
  const MivMap mivs(nl, tiers);
  const HeteroGraph stale(nl, tiers, mivs);

  // Shorten the path: the AND now reads b0's output, b1 drops out of the
  // observation cone.  Pin counts are unchanged, so only the deep diffs see
  // the difference.
  nl.definalize();
  nl.reconnect_input(a, 0, n2);
  nl.finalize();
  const MivMap fresh_mivs(nl, tiers);

  lint::Subject subject;
  subject.netlist = &nl;
  subject.tiers = &tiers;
  subject.mivs = &fresh_mivs;
  subject.graph = &stale;
  Report report;
  lint::run_graph_checks(subject, report);
  EXPECT_TRUE(report.contains("graph-edge-mismatch")) << report.to_string();
  EXPECT_TRUE(report.contains("graph-top-stale")) << report.to_string();
}

// ---- feature pass -----------------------------------------------------------

TEST(LintFeatureTest, CleanSubgraphPasses) {
  const Subgraph sg = make_clean_subgraph();
  EXPECT_TRUE(lint::lint_subgraph(sg).empty());
}

TEST(LintFeatureTest, WrongWidthShortCircuits) {
  Subgraph sg = make_clean_subgraph();
  sg.features = Matrix(2, 7);
  const Report report = lint::lint_subgraph(sg);
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.diagnostics().front().check_id, "feat-width");
}

TEST(LintFeatureTest, PoisonedCellsAreCitedByNodeAndFeature) {
  Subgraph sg = make_clean_subgraph();
  sg.features.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  sg.features.at(0, 2) = 1.5f;    // out of [0, 1]
  sg.features.at(1, 3) = 0.3f;    // not a tier code
  sg.features.at(1, 5) = 0.4f;    // not a 0/1 flag
  const Report report = lint::lint_subgraph(sg, "sample 7, ");
  const lint::Diagnostic* nonfinite = report.find("feat-nonfinite");
  ASSERT_NE(nonfinite, nullptr) << report.to_string();
  EXPECT_NE(nonfinite->location.find("sample 7, node 0, feature 0"),
            std::string::npos)
      << nonfinite->location;
  EXPECT_TRUE(report.contains("feat-range"));
  const lint::Diagnostic* onehot = report.find("feat-onehot");
  ASSERT_NE(onehot, nullptr);
  EXPECT_NE(onehot->location.find("node 1, feature 3"), std::string::npos);
  EXPECT_EQ(report.count(Severity::kError), 4);
}

TEST(LintFeatureTest, TrainingSetCitesThePoisonedSample) {
  std::vector<Subgraph> graphs(3, make_clean_subgraph());
  graphs[1].features.at(1, 1) = std::numeric_limits<float>::infinity();
  const Report report = lint::lint_training_set(graphs);
  const lint::Diagnostic* d = report.find("feat-nonfinite");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_NE(d->location.find("sample 1, "), std::string::npos) << d->location;
}

// ---- failure-log pass -------------------------------------------------------

class LintLogTest : public ::testing::Test {
 protected:
  LintLogTest()
      : nl_(make_three_flop_netlist()),
        scan_(nl_, 2, 7),
        compactor_(scan_, 1) {}

  Report run(const FailureLog& log, std::int32_t num_patterns = 4) const {
    lint::Subject subject;
    subject.netlist = &nl_;
    subject.scan = &scan_;
    subject.compactor = &compactor_;
    subject.log = &log;
    subject.num_patterns = num_patterns;
    Report report;
    lint::run_failure_log_checks(subject, report);
    return report;
  }

  Netlist nl_;
  ScanChains scan_;
  XorCompactor compactor_;
};

TEST_F(LintLogTest, ValidBypassLogIsClean) {
  FailureLog log;
  log.scan_fails = {{0, false, 0}, {1, false, 2}};
  log.po_fails = {{0, true, 0}};
  EXPECT_TRUE(run(log).empty()) << run(log).to_string();
}

TEST_F(LintLogTest, EmptyLogIsFlaggedAndNothingElse) {
  const Report report = run(FailureLog{});
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics().front().check_id, "log-empty");
}

TEST_F(LintLogTest, NegativePatternLimit) {
  FailureLog log;
  log.scan_fails = {{0, false, 0}};
  log.pattern_limit = -2;
  EXPECT_TRUE(run(log).contains("log-limit"));
}

TEST_F(LintLogTest, ModeMismatchBothDirections) {
  FailureLog compacted;
  compacted.compacted = true;
  compacted.scan_fails = {{0, false, 0}};
  EXPECT_TRUE(run(compacted).contains("log-mode-mismatch"));

  FailureLog bypass;
  bypass.compacted = false;
  bypass.channel_fails = {{0, 0, 0}};
  EXPECT_TRUE(run(bypass).contains("log-mode-mismatch"));
}

TEST_F(LintLogTest, RangeViolationsKeepHistoricalPhrasing) {
  FailureLog log;
  log.scan_fails = {{7, false, 0}, {0, false, 99}};
  log.po_fails = {{0, true, 5}};
  const Report report = run(log);
  int ranges = 0;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.check_id != "log-range") continue;
    ++ranges;
    EXPECT_NE(d.message.find("out of range"), std::string::npos) << d.message;
  }
  EXPECT_EQ(ranges, 3) << report.to_string();
}

// The gap the issue names: a compacted (channel, position) bit inside the
// global position range but beyond the end of every chain in its channel.
TEST_F(LintLogTest, InRangePositionAliasingNoCellIsObsMissing) {
  // 3 flops in 2 chains -> lengths 2 and 1; ratio 1 -> channel == chain.
  std::int32_t channel = -1, position = -1;
  for (std::int32_t ch = 0; ch < compactor_.num_channels() && channel < 0;
       ++ch) {
    for (std::int32_t pos = 0; pos < scan_.max_chain_length(); ++pos) {
      if (compactor_.cells_at(scan_, ch, pos).empty()) {
        channel = ch;
        position = pos;
        break;
      }
    }
  }
  ASSERT_GE(channel, 0) << "stitching produced equal-length chains";

  FailureLog log;
  log.compacted = true;
  log.channel_fails = {{0, channel, position}};
  const Report report = run(log);
  const lint::Diagnostic* d = report.find("log-obs-missing");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_NE(d->message.find("aliases no scan cell"), std::string::npos);
  EXPECT_FALSE(report.contains("log-range"));  // it *is* in range
}

TEST_F(LintLogTest, DuplicateBitsAreWarned) {
  FailureLog log;
  log.scan_fails = {{0, false, 1}, {0, false, 1}};
  const Report report = run(log);
  const lint::Diagnostic* d = report.find("log-duplicate");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->severity, Severity::kWarn);
  EXPECT_FALSE(report.has_errors());
}

TEST_F(LintLogTest, StoreTruncationSignatureIsWarned) {
  // Every failing pattern clipped at exactly 4 bits (3 flops + 1 PO): the
  // tester fail-store signature diag/noise.h's kTruncateStore produces.
  FailureLog log;
  for (std::int32_t p = 0; p < 4; ++p) {
    for (std::int32_t f = 0; f < 3; ++f) log.scan_fails.push_back({p, false, f});
    log.po_fails.push_back({p, true, 0});
  }
  const Report report = run(log);
  const lint::Diagnostic* d = report.find("log-store-truncated");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->severity, Severity::kWarn);
  EXPECT_NE(d->message.find("fail-store depth of 4"), std::string::npos)
      << d->message;
  EXPECT_FALSE(report.has_errors());
}

TEST_F(LintLogTest, OrganicBitCountsDoNotTripStoreTruncation) {
  // The cap of 4 is reached by a single pattern: ordinary fan-out variance,
  // not a store limit.
  FailureLog log;
  for (std::int32_t f = 0; f < 3; ++f) log.scan_fails.push_back({0, false, f});
  log.po_fails.push_back({0, true, 0});
  log.scan_fails.push_back({1, false, 0});
  log.scan_fails.push_back({1, false, 1});
  log.scan_fails.push_back({2, false, 2});
  EXPECT_TRUE(run(log).empty()) << run(log).to_string();

  // A uniform bit count below the minimum store depth never fires either:
  // small designs legitimately fail every observable bit.
  FailureLog small;
  for (std::int32_t p = 0; p < 4; ++p) {
    for (std::int32_t f = 0; f < 3; ++f) {
      small.scan_fails.push_back({p, false, f});
    }
  }
  EXPECT_TRUE(run(small).empty()) << run(small).to_string();
}

TEST_F(LintLogTest, PatternRegressionIsWarnedPerKind) {
  // Testers emit failing patterns monotonically; a regression within a
  // record kind means the log was reordered or stitched.
  FailureLog log;
  log.scan_fails = {{2, false, 0}, {0, false, 1}, {3, false, 2}};
  log.po_fails = {{1, true, 0}};
  const Report report = run(log);
  const lint::Diagnostic* d = report.find("log-out-of-order");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->severity, Severity::kWarn);
  EXPECT_NE(d->message.find("pattern 0 after pattern 2"), std::string::npos)
      << d->message;
  EXPECT_NE(d->location.find("scan record 1"), std::string::npos)
      << d->location;
  EXPECT_FALSE(report.has_errors());
}

TEST_F(LintLogTest, RegressionsAreJudgedAgainstTheWatermark) {
  // The watermark holds at the max pattern seen, so every record sitting
  // below the peak is cited (each is one a live session would have
  // rejected), while a fresh max is never a finding.
  FailureLog log;
  log.scan_fails = {{3, false, 0}, {0, false, 1}, {1, false, 2}, {2, false, 0}};
  const Report report = run(log);
  std::int32_t out_of_order = 0;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.check_id == "log-out-of-order") ++out_of_order;
  }
  EXPECT_EQ(out_of_order, 3) << report.to_string();
  // A fresh max after the dip is fine: monotone logs stay clean.
  FailureLog clean;
  clean.scan_fails = {{0, false, 0}, {0, false, 1}, {2, false, 2}};
  clean.po_fails = {{1, true, 0}};  // kinds are checked independently
  EXPECT_FALSE(run(clean).contains("log-out-of-order"))
      << run(clean).to_string();
}

// ---- model pass -------------------------------------------------------------

// Tiny synthetic training set: enough labeled samples for all three phases
// to run a couple of epochs.  `width` poisons the feature dimension on
// purpose (the preflight is disabled for those runs).
std::vector<Subgraph> make_training_graphs(std::int32_t width) {
  std::vector<Subgraph> graphs;
  for (int i = 0; i < 6; ++i) {
    Subgraph sg;
    sg.nodes = {0, 1, 2};
    sg.edge_u = {0, 1};
    sg.edge_v = {1, 2};
    sg.features = Matrix(3, width);
    for (std::int32_t r = 0; r < 3; ++r) {
      for (std::int32_t c = 0; c < width; ++c) {
        sg.features.at(r, c) = ((i + r + c) % 2) ? 1.0f : 0.0f;
      }
    }
    sg.tier_label = i % 2;
    sg.miv_local = {1};
    sg.miv_ids = {0};
    sg.miv_label = {static_cast<std::int8_t>(i % 2)};
    graphs.push_back(std::move(sg));
  }
  return graphs;
}

DiagnosisFramework train_tiny(const FrameworkOptions& options,
                              std::int32_t width) {
  DiagnosisFramework fw(options);
  TrainerOptions topt;
  topt.preflight = (width == kNumNodeFeatures);
  Trainer trainer(fw, topt);
  const std::vector<Subgraph> graphs = make_training_graphs(width);
  trainer.train(graphs);
  return fw;
}

FrameworkOptions tiny_options() {
  FrameworkOptions options;
  options.model.hidden = 4;
  options.model.num_layers = 2;
  options.training.epochs = 2;
  return options;
}

TEST(LintModelTest, UntrainedFrameworkShortCircuits) {
  const DiagnosisFramework fw;
  const Report report = lint::lint_model(fw);
  ASSERT_EQ(report.size(), 1u) << report.to_string();
  EXPECT_EQ(report.diagnostics().front().check_id, "model-untrained");
}

TEST(LintModelTest, HealthyTinyModelPasses) {
  const DiagnosisFramework fw = train_tiny(tiny_options(), kNumNodeFeatures);
  EXPECT_TRUE(lint::lint_model(fw).empty())
      << lint::lint_model(fw).to_string();
}

TEST(LintModelTest, WrongInputWidthFailsFeatureContract) {
  FrameworkOptions options = tiny_options();
  options.model.in_dim = 7;
  const DiagnosisFramework fw = train_tiny(options, 7);
  const Report report = lint::lint_model(fw);
  const lint::Diagnostic* d = report.find("model-feat-width");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_NE(d->message.find("7"), std::string::npos);
}

TEST(LintModelTest, ThreeClassHeadFailsLayerDims) {
  FrameworkOptions options = tiny_options();
  options.model.classes = 3;
  const DiagnosisFramework fw = train_tiny(options, kNumNodeFeatures);
  const Report report = lint::lint_model(fw);
  EXPECT_TRUE(report.contains("model-layer-dims")) << report.to_string();
}

TEST(LintModelTest, DesignWithoutMivsWarnsAboutIdleHead) {
  const DiagnosisFramework fw = train_tiny(tiny_options(), kNumNodeFeatures);
  const MivMap no_mivs;
  lint::Subject subject;
  subject.model = &fw;
  subject.mivs = &no_mivs;
  Report report;
  lint::run_model_checks(subject, report);
  const lint::Diagnostic* d = report.find("model-miv-head");
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->severity, Severity::kWarn);
}

// ---- preflight + end-to-end -------------------------------------------------

TEST(LintPreflightTest, TrainerRejectsPoisonedDatasetBeforeEpochs) {
  DiagnosisFramework fw(tiny_options());
  std::vector<Subgraph> graphs = make_training_graphs(kNumNodeFeatures);
  graphs[2].features.at(0, 4) = std::numeric_limits<float>::quiet_NaN();
  Trainer trainer(fw);
  try {
    trainer.train(graphs);
    FAIL() << "preflight did not reject the poisoned dataset";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("preflight"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("sample 2"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fw.trained());
}

TEST(LintPreflightTest, PreflightCanBeDisabled) {
  // Same trainer path with preflight off: no lint pass runs and training
  // completes normally on a clean dataset.
  DiagnosisFramework fw(tiny_options());
  std::vector<Subgraph> graphs = make_training_graphs(kNumNodeFeatures);
  TrainerOptions topt;
  topt.preflight = false;
  Trainer trainer(fw, topt);
  trainer.train(graphs);
  EXPECT_TRUE(fw.trained());
}

// The property the serve admission gate and train preflight rely on: every
// artifact of a generator-produced design lints clean, across configs.
TEST(LintEndToEndTest, GeneratedDesignsLintClean) {
  for (const DesignConfig config : {DesignConfig::kSyn1, DesignConfig::kTpi}) {
    const std::unique_ptr<Design> design =
        Design::build(Profile::kAes, config);
    const Report report = lint::lint_design(*design);
    EXPECT_TRUE(report.empty())
        << config_name(config) << ":\n" << report.to_string();
  }
}

TEST(LintEndToEndTest, DesignPlusGeneratedLogLintsClean) {
  const std::unique_ptr<Design> design =
      Design::build(Profile::kAes, DesignConfig::kSyn1);
  DataGenOptions gen;
  gen.num_samples = 2;
  gen.seed = 0xBEEF;
  const std::vector<Sample> samples =
      generate_samples(design->context(), gen);
  ASSERT_FALSE(samples.empty());
  const Report report = lint::lint_failure_log(*design, samples.front().log);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(LintEndToEndTest, LintMnlRoundTripOfCleanCorpus) {
  // clean.mnl through the full design-free entry point, JSON included.
  const Report report = lint_corpus_file("clean.mnl");
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(report.to_json(), "[\n]\n");
  EXPECT_EQ(report.summary(), "clean");
}

// ---- session-journal checks -------------------------------------------------

TEST(LintJournalTest, SessionJournalStaleIsInTheCatalog) {
  const lint::CheckInfo& info = lint::check_info("session-journal-stale");
  EXPECT_EQ(info.severity, Severity::kWarn);
  EXPECT_EQ(info.artifact, lint::ArtifactKind::kJournal);
  EXPECT_STRNE(info.summary, "");
  EXPECT_STRNE(info.hint, "");
}

TEST(LintJournalTest, StaleSegmentWarnsWithSegmentPathAndOffset) {
  lint::JournalFacts facts;
  facts.session_lifetime_ms = 500.0;
  facts.now_wall_ms = 10000;
  lint::JournalSegmentFacts seg;
  seg.path = "/journal/seg-000001.m3dflj";
  seg.records = 3;
  seg.newest_wall_ms = 1500;  // 8500 ms old against a 500 ms lifetime
  seg.newest_offset = 57;
  facts.segments.push_back(seg);
  lint::Subject subject;
  subject.journal = &facts;
  const Report report = lint::run_checks(subject);
  ASSERT_EQ(report.size(), 1u);
  const lint::Diagnostic& d = report.diagnostics().front();
  EXPECT_EQ(d.check_id, "session-journal-stale");
  EXPECT_EQ(d.severity, Severity::kWarn);
  EXPECT_NE(d.location.find("seg-000001.m3dflj"), std::string::npos);
  EXPECT_NE(d.location.find("offset 57"), std::string::npos) << d.location;
  EXPECT_NE(d.message.find("8500 ms old"), std::string::npos) << d.message;

  // Within the lifetime, or with no lifetime deadline: quiet.  Empty
  // segments never fire (no newest record to age).
  facts.now_wall_ms = 1600;
  EXPECT_TRUE(lint::run_checks(subject).empty());
  facts.now_wall_ms = 10000;
  facts.session_lifetime_ms = 0.0;
  EXPECT_TRUE(lint::run_checks(subject).empty());
  facts.session_lifetime_ms = 500.0;
  facts.segments[0].records = 0;
  facts.segments[0].newest_wall_ms = -1;
  EXPECT_TRUE(lint::run_checks(subject).empty());
}

// ---- Severity parsing -------------------------------------------------------

TEST(SeverityTest, ParseIsCaseInsensitive) {
  EXPECT_EQ(lint::parse_severity("note"), Severity::kNote);
  EXPECT_EQ(lint::parse_severity("WARN"), Severity::kWarn);
  EXPECT_EQ(lint::parse_severity("Warning"), Severity::kWarn);
  EXPECT_EQ(lint::parse_severity("Error"), Severity::kError);
  EXPECT_EQ(lint::parse_severity("eRrOr"), Severity::kError);
}

TEST(SeverityTest, ParseRejectsUnknownNameCitingIt) {
  try {
    lint::parse_severity("fatal");
    FAIL() << "expected parse_severity to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'fatal'"), std::string::npos) << what;
  }
}

// ---- Catalog <-> docs/LINT.md drift -----------------------------------------

#ifndef M3DFL_LINT_DOC_PATH
#error "build must define M3DFL_LINT_DOC_PATH"
#endif

// Ids documented in the LINT.md catalog table (rows of the form
// "| `check-id` | ...").
std::vector<std::string> documented_check_ids() {
  std::ifstream is(M3DFL_LINT_DOC_PATH);
  EXPECT_TRUE(is.good()) << "missing " << M3DFL_LINT_DOC_PATH;
  std::vector<std::string> ids;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    if (end == std::string::npos) continue;
    ids.push_back(line.substr(3, end - 3));
  }
  return ids;
}

// The check catalog is the single source of truth rendered into docs/LINT.md;
// this test fails when either side drifts (a check added without a doc row,
// or a doc row whose check no longer exists).
TEST(CatalogDocTest, EveryCatalogCheckIsDocumentedAndViceVersa) {
  const std::vector<std::string> documented = documented_check_ids();
  ASSERT_FALSE(documented.empty());

  std::vector<std::string> registered;
  for (const lint::CheckInfo& info : lint::check_catalog()) {
    registered.push_back(info.id);
  }
  for (const std::string& id : registered) {
    EXPECT_NE(std::find(documented.begin(), documented.end(), id),
              documented.end())
        << "check '" << id << "' is registered but has no docs/LINT.md row";
  }
  for (const std::string& id : documented) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), id),
              registered.end())
        << "docs/LINT.md documents '" << id
        << "' but no such check is registered";
  }
  EXPECT_EQ(documented.size(), registered.size());
}

}  // namespace
}  // namespace m3dfl
