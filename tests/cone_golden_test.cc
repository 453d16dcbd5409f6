// Golden byte-identity corpus for every consumer of the fan-in cones.
//
// Back-trace (graph/backtrace.h), ATPG diagnosis (diag/atpg_diagnosis.h)
// and the streaming back-trace (diag/stream_backtrace.h) all derive their
// per-response suspect sets from the fan-in cones of the failing
// observation points.  This corpus pins what each of them emits over a
// fixed set of generated failure logs, so any rework of how the cones are
// found must reproduce the old results bit for bit.
//
// tests/golden/cone_paths.golden holds one line per log:
//
//   <design> <bypass|compacted> <kind> <i> <backtrace> <atpg> <stream>
//
// where the last three fields are FNV-1a-64 digests of the rendered
// BacktraceResult, the rendered diagnose_atpg report and the rendered
// sequence of streaming snapshots (one per accepted record).  Floating-point
// values are rendered as hexfloats, so a digest only matches when every bit
// does.  A mismatching or missing line is reported as "got: <line>"; running
// the test against an empty golden file prints the full corpus.
//
// The cone oracle at the end of the file checks the cone index itself
// against the graph walks it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "diag/atpg_diagnosis.h"
#include "diag/log_io.h"
#include "diag/noise.h"
#include "diag/stream_backtrace.h"
#include "graph/backtrace.h"
#include "graph/hetero_graph.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

// One prepared design per (profile, config), shared by every test here.
const Design& shared_design(Profile profile, DesignConfig config) {
  static std::map<std::pair<Profile, DesignConfig>, std::unique_ptr<Design>>
      cache;
  std::unique_ptr<Design>& slot = cache[{profile, config}];
  if (!slot) slot = Design::build(profile, config);
  return *slot;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

std::string render(const BacktraceResult& r) {
  std::ostringstream os;
  os << "n " << r.num_responses << " relaxed " << r.relaxed << "\n";
  for (std::size_t i = 0; i < r.candidates.size(); ++i) {
    os << r.candidates[i] << ' ' << hex(r.support[i]) << "\n";
  }
  for (const QuarantinedResponse& q : r.quarantined) {
    os << "q " << q.response_index << ' ' << q.pattern << ' '
       << hex(q.overlap) << "\n";
  }
  return os.str();
}

std::string render(const DiagnosisReport& report) {
  std::ostringstream os;
  for (const Candidate& c : report.candidates) {
    os << static_cast<int>(c.fault.type) << ' ' << c.fault.pin << ' '
       << c.fault.miv << ' ' << hex(c.score) << ' ' << c.tfsf << ' ' << c.tfsp
       << ' ' << c.tpsf << ' ' << c.bit_tfsp << "\n";
  }
  return os.str();
}

// The log as the record sequence a tester feed carries, in canonical order.
std::vector<StreamRecord> to_records(const FailureLog& log) {
  std::vector<StreamRecord> recs;
  StreamRecord mode;
  mode.kind = StreamRecord::Kind::kMode;
  mode.compacted = log.compacted;
  recs.push_back(mode);
  for (const Observation& o : log.scan_fails) {
    StreamRecord r;
    r.kind = StreamRecord::Kind::kScan;
    r.observation = o;
    recs.push_back(r);
  }
  for (const ChannelFail& c : log.channel_fails) {
    StreamRecord r;
    r.kind = StreamRecord::Kind::kChan;
    r.channel = c;
    recs.push_back(r);
  }
  for (const Observation& o : log.po_fails) {
    StreamRecord r;
    r.kind = StreamRecord::Kind::kPo;
    r.observation = o;
    recs.push_back(r);
  }
  return recs;
}

std::string render_stream(const HeteroGraph& graph, const DesignContext& ctx,
                          const FailureLog& log) {
  StreamingBacktrace stream(graph, ctx);
  std::ostringstream os;
  for (const StreamRecord& record : to_records(log)) {
    if (stream.add(record) != StreamAccept::kAccepted) continue;
    const StreamSnapshot& s = stream.snapshot();
    for (NodeId n : s.backtrace.candidates) os << n << ' ';
    os << "| " << s.backtrace.quarantined.size() << ' ' << s.stable << ' '
       << s.early_exit_at << ' ' << s.condemnations << ' '
       << s.rehabilitations << "\n";
  }
  return os.str();
}

// One corpus family: how its logs are generated and diagnosed.
struct Family {
  const char* name;
  DataGenOptions gen;
  NoiseKind noise = NoiseKind::kNone;
  double noise_rate = 0.0;
  bool stuck_at = false;
};

Family single_tdf() { return {"tdf", {}}; }
Family miv_fault() {
  Family f{"miv", {}};
  f.gen.miv_fault_prob = 1.0;
  return f;
}
Family spurious() {
  return {"spurious", {}, NoiseKind::kSpuriousResponse, 0.15};
}
Family drop() { return {"drop", {}, NoiseKind::kDropResponse, 0.3}; }
// Full fail logging: long logs, so response thinning runs.
Family unlimited() {
  Family f{"unlimited", {}};
  f.gen.max_failing_patterns = 0;
  return f;
}
// 2-5 same-tier TDFs: the ATPG engine falls back to iterative covering.
Family multi_fault() {
  Family f{"multi", {}};
  f.gen.min_faults = 2;
  f.gen.max_faults = 5;
  return f;
}
// Stuck-at defects diagnosed with the static candidates enabled.
Family stuck_at() {
  Family f{"stuck", {}};
  f.gen.stuck_at_prob = 1.0;
  f.stuck_at = true;
  return f;
}

// Coverage of the corpus: the code paths its lines exercise.
struct Coverage {
  std::int32_t logs = 0;
  std::int32_t thinned = 0;      // more responses than max_traced_responses
  std::int32_t quarantined = 0;  // back-trace quarantined a response
  std::int32_t relaxed = 0;      // back-trace relaxed the intersection
};

// Appends one golden line per generated log of `family` on one design.
void append_family(const std::string& design_name, const HeteroGraph& graph,
                   const DesignContext& ctx, const Family& family,
                   std::int32_t num_logs, std::uint64_t seed,
                   std::vector<std::string>& lines, Coverage& coverage) {
  const BacktraceOptions bt_options;
  for (const bool compacted : {false, true}) {
    DataGenOptions gen = family.gen;
    gen.num_samples = num_logs;
    gen.compacted = compacted;
    gen.seed = seed + (compacted ? 1 : 0);
    const std::vector<Sample> samples = generate_samples(ctx, gen);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      NoiseOptions noise;
      noise.kind = family.noise;
      noise.rate = family.noise_rate;
      noise.seed = gen.seed * 31 + i;
      const FailureLog log = perturb_failure_log(samples[i].log, ctx, noise);

      const BacktraceResult bt = backtrace_with_support(graph, ctx, log);
      DiagnosisOptions diag;
      diag.include_stuck_at_candidates = family.stuck_at;
      const DiagnosisReport report = diagnose_atpg(ctx, log, diag);

      ++coverage.logs;
      if (log.num_failing_bits() > bt_options.max_traced_responses) {
        ++coverage.thinned;
      }
      if (!bt.quarantined.empty()) ++coverage.quarantined;
      if (bt.relaxed) ++coverage.relaxed;

      std::ostringstream line;
      line << design_name << ' ' << (compacted ? "compacted" : "bypass")
           << ' ' << family.name << ' ' << i << ' ' << std::hex
           << fnv1a64(render(bt)) << ' ' << fnv1a64(render(report)) << ' '
           << fnv1a64(render_stream(graph, ctx, log));
      lines.push_back(line.str());
    }
  }
}

std::vector<std::string> corpus_lines(Coverage& coverage) {
  std::vector<std::string> lines;
  std::uint64_t seed = 1000;
  const auto run = [&](const std::string& name, const HeteroGraph& graph,
                       const DesignContext& ctx,
                       std::initializer_list<Family> families,
                       std::int32_t logs_per_mode) {
    for (const Family& family : families) {
      append_family(name, graph, ctx, family, logs_per_mode, seed += 2,
                    lines, coverage);
    }
  };
  const auto run_design = [&](Profile profile, DesignConfig config,
                              std::initializer_list<Family> families,
                              std::int32_t logs_per_mode) {
    const Design& design = shared_design(profile, config);
    run(design.name(), design.graph(), design.context(), families,
        logs_per_mode);
  };
  const std::initializer_list<Family> all = {single_tdf(), miv_fault(),
                                             spurious(), drop(), unlimited()};
  run_design(Profile::kAes, DesignConfig::kSyn1, all, 4);
  run_design(Profile::kAes, DesignConfig::kSyn2, all, 4);
  run_design(Profile::kTate, DesignConfig::kSyn1, all, 3);
  // Netcard and Leon3mp keep three failing patterns per die, so their logs
  // are short and leave wide suspect sets: few logs keep the ATPG cost down.
  run_design(Profile::kNetcard, DesignConfig::kSyn1,
             {single_tdf(), spurious(), unlimited()}, 1);
  run_design(Profile::kLeon3mp, DesignConfig::kSyn1,
             {single_tdf(), spurious(), unlimited()}, 1);
  // Multi-fault and stuck-at diagnosis simulate far more candidates per
  // log, so they run mostly on the small fixture design.
  run_design(Profile::kAes, DesignConfig::kSyn1, {multi_fault()}, 1);
  const testing::SmallDesign small(5);
  // Built from the fixture's parts rather than taken from it, so the corpus
  // also compiles against library versions whose fixture has no graph.
  const HeteroGraph small_graph(small.netlist, small.tiers, small.mivs);
  run("small", small_graph, small.context(), all, 6);
  run("small", small_graph, small.context(), {multi_fault()}, 6);
  run("small", small_graph, small.context(), {stuck_at()}, 4);
  return lines;
}

TEST(ConeGolden, BacktraceAtpgAndStreamMatchCorpus) {
  std::ifstream in(M3DFL_CONE_GOLDEN_PATH);
  ASSERT_TRUE(in.good()) << "cannot open " << M3DFL_CONE_GOLDEN_PATH;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }

  Coverage coverage;
  const std::vector<std::string> lines = corpus_lines(coverage);
  std::int32_t mismatches = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i < golden.size() && golden[i] == lines[i]) continue;
    ++mismatches;
    ADD_FAILURE() << "got: " << lines[i];
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(golden.size(), lines.size());

  // The corpus must keep exercising every path it pins.
  EXPECT_GE(coverage.logs, 200);
  EXPECT_GT(coverage.thinned, 0);
  EXPECT_GT(coverage.quarantined, 0);
  EXPECT_GT(coverage.relaxed, 0);
}

}  // namespace
}  // namespace m3dfl

// ---- Cone oracle ------------------------------------------------------------
//
// The walkers the cone index replaced, kept as references: the node DFS of
// the back-trace's `suspect_set` over the graph's predecessor edges from a
// Topnode, and the net DFS of the ATPG engine's `count_suspects` through
// combinational drivers from an observation point's anchor net.  For every
// observation point the indexed cone must equal the node walk, and its nets
// the net walk.

namespace m3dfl {
namespace {

std::vector<NodeId> reference_node_cone(const HeteroGraph& graph,
                                        NodeId topnode) {
  std::vector<char> seen(static_cast<std::size_t>(graph.num_nodes()), 0);
  std::vector<NodeId> stack = {topnode};
  std::vector<NodeId> cone;
  seen[static_cast<std::size_t>(topnode)] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    cone.push_back(u);
    for (NodeId v : graph.predecessors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
      }
    }
  }
  std::sort(cone.begin(), cone.end());
  return cone;
}

std::vector<NetId> reference_net_cone(const Netlist& nl, NetId anchor) {
  std::vector<char> seen(static_cast<std::size_t>(nl.num_nets()), 0);
  std::vector<NetId> stack = {anchor};
  std::vector<NetId> nets;
  seen[static_cast<std::size_t>(anchor)] = 1;
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    nets.push_back(n);
    const Gate& driver = nl.gate(nl.net(n).driver);
    if (!is_combinational(driver.type)) continue;
    for (NetId in : driver.fanin) {
      if (!seen[static_cast<std::size_t>(in)]) {
        seen[static_cast<std::size_t>(in)] = 1;
        stack.push_back(in);
      }
    }
  }
  std::sort(nets.begin(), nets.end());
  return nets;
}

void expect_cones_match_walkers(const std::string& name, const Netlist& nl,
                                const HeteroGraph& graph) {
  const auto num_flops = static_cast<std::int32_t>(nl.flops().size());
  ASSERT_EQ(graph.num_topnodes(),
            num_flops + static_cast<std::int32_t>(nl.primary_outputs().size()));
  for (std::int32_t obs = 0; obs < graph.num_topnodes(); ++obs) {
    const GateId observer =
        obs < num_flops
            ? nl.flops()[static_cast<std::size_t>(obs)]
            : nl.primary_outputs()[static_cast<std::size_t>(obs - num_flops)];
    const std::span<const NodeId> cone = graph.cone(obs);
    ASSERT_EQ(std::vector<NodeId>(cone.begin(), cone.end()),
              reference_node_cone(graph, graph.topnodes()[obs]))
        << name << " observation point " << obs;
    std::vector<NetId> nets;
    for (NodeId u : cone) nets.push_back(graph.node_net(u));
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    ASSERT_EQ(nets, reference_net_cone(nl, nl.gate(observer).fanin[0]))
        << name << " observation point " << obs;
  }
}

TEST(ConeOracle, IndexMatchesReferenceWalkersOnEveryProfile) {
  for (const Profile profile : all_profiles()) {
    for (const DesignConfig config :
         {DesignConfig::kSyn1, DesignConfig::kSyn2}) {
      const Design& design = shared_design(profile, config);
      expect_cones_match_walkers(design.name(), design.netlist(),
                                 design.graph());
    }
  }
}

TEST(ConeOracle, IndexMatchesReferenceWalkersOnSmallDesign) {
  const testing::SmallDesign d;
  expect_cones_match_walkers("small", d.netlist, d.graph);
}

}  // namespace
}  // namespace m3dfl
