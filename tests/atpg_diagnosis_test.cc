#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "baseline_fault_sim.h"
#include "core/pipeline.h"
#include "diag/atpg_diagnosis.h"
#include "diag/metrics.h"
#include "reference_failure_log.h"
#include "sim/fault_sim.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

using testing::SmallDesign;

std::vector<Sample> make_samples(const SmallDesign& d, std::int32_t n,
                                 bool compacted, double miv_prob = 0.0,
                                 std::int32_t fail_memory = 0) {
  DataGenOptions opt;
  opt.num_samples = n;
  opt.compacted = compacted;
  opt.miv_fault_prob = miv_prob;
  opt.max_failing_patterns = fail_memory;
  opt.seed = 99;
  return generate_samples(d.context(), opt);
}

class DiagnosisModes : public ::testing::TestWithParam<bool> {};

TEST_P(DiagnosisModes, GroundTruthAlwaysReported) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 20, GetParam());
  for (const Sample& s : samples) {
    const DiagnosisReport report = diagnose_atpg(d.context(), s.log);
    ASSERT_FALSE(report.candidates.empty());
    bool found = false;
    for (const Candidate& c : report.candidates) {
      if (candidate_matches_fault(d.context(), c, s.faults[0])) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << fault_to_string(d.netlist, s.faults[0]);
  }
}

TEST_P(DiagnosisModes, GroundTruthIsAPerfectCandidate) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 12, GetParam());
  for (const Sample& s : samples) {
    const DiagnosisReport report = diagnose_atpg(d.context(), s.log);
    for (const Candidate& c : report.candidates) {
      if (c.fault == s.faults[0]) {
        EXPECT_TRUE(c.perfect());
        EXPECT_EQ(c.tfsp, 0);
        EXPECT_EQ(c.bit_tfsp, 0);
      }
    }
  }
}

TEST_P(DiagnosisModes, ReportSortedByScore) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 10, GetParam());
  for (const Sample& s : samples) {
    const DiagnosisReport report = diagnose_atpg(d.context(), s.log);
    for (std::size_t i = 1; i < report.candidates.size(); ++i) {
      EXPECT_GE(report.candidates[i - 1].score, report.candidates[i].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BypassAndCompacted, DiagnosisModes,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "compacted" : "bypass";
                         });

TEST(DiagnosisTest, EmptyLogYieldsEmptyReport) {
  SmallDesign d(5);
  const DiagnosisReport report = diagnose_atpg(d.context(), FailureLog{});
  EXPECT_TRUE(report.candidates.empty());
}

TEST(DiagnosisTest, RequiresTheDesignGraph) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 1, false);
  DesignContext ctx = d.context();
  ctx.graph = nullptr;
  try {
    diagnose_atpg(ctx, samples[0].log);
    FAIL() << "expected m3dfl::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Design::context()"),
              std::string::npos)
        << e.what();
  }
}

TEST(DiagnosisTest, RespectsMaxCandidates) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 10, false, 0.0, 3);
  DiagnosisOptions opt;
  opt.max_candidates = 5;
  for (const Sample& s : samples) {
    const DiagnosisReport report = diagnose_atpg(d.context(), s.log, opt);
    EXPECT_LE(report.resolution(), 5);
  }
}

TEST(DiagnosisTest, TruncatedLogsInflateResolution) {
  SmallDesign d(5);
  const auto full = make_samples(d, 20, false, 0.0, 0);
  const auto cut = make_samples(d, 20, false, 0.0, 2);
  double res_full = 0;
  double res_cut = 0;
  for (const Sample& s : full) {
    res_full += diagnose_atpg(d.context(), s.log).resolution();
  }
  for (const Sample& s : cut) {
    res_cut += diagnose_atpg(d.context(), s.log).resolution();
  }
  // Less tester evidence -> coarser diagnosis.
  EXPECT_GT(res_cut, res_full);
}

TEST(DiagnosisTest, MivFaultDiagnosedToItsNet) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 30, false, 1.0);
  for (const Sample& s : samples) {
    ASSERT_TRUE(s.faults[0].is_miv());
    const DiagnosisReport report = diagnose_atpg(d.context(), s.log);
    bool found = false;
    for (const Candidate& c : report.candidates) {
      if (candidate_matches_fault(d.context(), c, s.faults[0])) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(DiagnosisTest, CandidateHelpers) {
  SmallDesign d(5);
  const DesignContext ctx = d.context();
  ASSERT_GT(d.mivs.num_mivs(), 0);
  const Miv& miv = d.mivs.miv(0);
  Candidate miv_cand;
  miv_cand.fault = Fault::miv_delay(0);
  EXPECT_EQ(candidate_tier(ctx, miv_cand), kMivTier);
  EXPECT_TRUE(candidate_on_miv(ctx, miv_cand));

  // A pin on the MIV's net is "on" the MIV and matches an MIV ground truth.
  const PinId stem = d.netlist.output_pin(d.netlist.net(miv.net).driver);
  Candidate pin_cand;
  pin_cand.fault = Fault::slow_to_rise(stem);
  EXPECT_TRUE(candidate_on_miv(ctx, pin_cand));
  EXPECT_TRUE(candidate_matches_fault(ctx, pin_cand, Fault::miv_delay(0)));
  EXPECT_TRUE(candidate_matches_fault(ctx, miv_cand, Fault::slow_to_fall(stem)));
  // Same pin, either direction, matches.
  EXPECT_TRUE(candidate_matches_fault(ctx, pin_cand, Fault::slow_to_fall(stem)));
  EXPECT_FALSE(
      candidate_matches_fault(ctx, pin_cand, Fault::slow_to_rise(stem + 1)));
}

TEST(DiagnosisTest, Deterministic) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 5, false);
  for (const Sample& s : samples) {
    const DiagnosisReport a = diagnose_atpg(d.context(), s.log);
    const DiagnosisReport b = diagnose_atpg(d.context(), s.log);
    ASSERT_EQ(a.resolution(), b.resolution());
    for (std::int32_t i = 0; i < a.resolution(); ++i) {
      EXPECT_EQ(a.candidates[static_cast<std::size_t>(i)].fault,
                b.candidates[static_cast<std::size_t>(i)].fault);
    }
  }
}

// ---- Report-level oracle ------------------------------------------------------
//
// The engine scores candidates on the pattern lanes the score reads and
// fills tpsf only for the reported ones.  Every reported number must equal
// what the full observation list of the cone-scheduled oracle gives through
// the map-and-set tester model (reference_failure_log.h), independently of
// the library's TesterLogWalker.

using BitKey = std::tuple<int, std::int32_t, std::int32_t, std::int32_t>;

std::set<std::int32_t> failing_patterns(const FailureLog& log) {
  std::set<std::int32_t> out;
  for (const Observation& o : log.scan_fails) out.insert(o.pattern);
  for (const ChannelFail& c : log.channel_fails) out.insert(c.pattern);
  for (const Observation& o : log.po_fails) out.insert(o.pattern);
  return out;
}

std::set<BitKey> failing_bits(const FailureLog& log) {
  std::set<BitKey> out;
  for (const Observation& o : log.scan_fails) {
    out.insert({0, o.pattern, o.index, 0});
  }
  for (const ChannelFail& c : log.channel_fails) {
    out.insert({1, c.pattern, c.channel, c.position});
  }
  for (const Observation& o : log.po_fails) out.insert({2, o.pattern, o.index, 0});
  return out;
}

template <typename T>
std::int32_t overlap(const std::set<T>& a, const std::set<T>& b) {
  std::int32_t n = 0;
  for (const T& x : a) n += b.count(x) > 0 ? 1 : 0;
  return n;
}

struct OracleTally {
  std::int32_t candidates = 0;
  std::int32_t with_tpsf = 0;
  // Candidates predicting a fail at a tester-pass pattern before the last
  // observed failing one (under fail-memory truncation, such a fail moves
  // the candidate's truncation cutoff).
  std::int32_t truncation_corners = 0;
};

void expect_report_matches_oracle(const DesignContext& ctx,
                                  const std::vector<Sample>& samples,
                                  const DiagnosisOptions& options,
                                  OracleTally& tally) {
  testing::BaselineFaultSim oracle(*ctx.netlist, *ctx.good, ctx.mivs);
  for (const Sample& s : samples) {
    const std::set<std::int32_t> observed = failing_patterns(s.log);
    const std::set<BitKey> observed_bits = failing_bits(s.log);
    const DiagnosisReport report = diagnose_atpg(ctx, s.log, options);
    for (const Candidate& c : report.candidates) {
      const std::vector<Observation> raw = oracle.simulate(c.fault);
      const FailureLog full = testing::reference_make_failure_log(
          raw, *ctx.scan, s.log.compacted ? ctx.compactor : nullptr);
      const FailureLog predicted =
          testing::reference_truncate_failure_log(full, s.log.pattern_limit);
      const std::set<std::int32_t> patterns = failing_patterns(predicted);
      const std::int32_t tfsf = overlap(observed, patterns);
      const std::int32_t tfsp = static_cast<std::int32_t>(observed.size()) -
                                tfsf;
      const std::int32_t tpsf = static_cast<std::int32_t>(patterns.size()) -
                                tfsf;
      const std::int32_t bit_tfsp =
          static_cast<std::int32_t>(observed_bits.size()) -
          overlap(observed_bits, failing_bits(predicted));
      const double score = static_cast<double>(tfsf) - options.w_tfsp * tfsp -
                           options.w_tpsf * tpsf -
                           options.w_bit_tfsp * bit_tfsp;
      const std::string what = fault_to_string(*ctx.netlist, c.fault);
      EXPECT_EQ(c.tfsf, tfsf) << what;
      EXPECT_EQ(c.tfsp, tfsp) << what;
      EXPECT_EQ(c.tpsf, tpsf) << what;
      EXPECT_EQ(c.bit_tfsp, bit_tfsp) << what;
      EXPECT_EQ(c.score, score) << what;

      ++tally.candidates;
      tally.with_tpsf += tpsf > 0 ? 1 : 0;
      for (std::int32_t p : failing_patterns(full)) {
        if (p >= *observed.rbegin()) break;
        if (observed.count(p) == 0) {
          ++tally.truncation_corners;
          break;
        }
      }
    }
  }
}

std::vector<Sample> profile_samples(const Design& design, bool compacted,
                                    std::int32_t n) {
  DataGenOptions opt;
  opt.num_samples = n;
  opt.compacted = compacted;
  opt.miv_fault_prob = 0.2;
  opt.seed = compacted ? 31 : 17;
  return generate_samples(design.context(), opt);
}

TEST(DiagnosisOracleTest, AesReportsMatchTheFullSimulation) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  OracleTally tally;
  for (const bool compacted : {false, true}) {
    expect_report_matches_oracle(design->context(),
                                 profile_samples(*design, compacted, 16), {},
                                 tally);
  }
  EXPECT_GT(tally.candidates, 0);
  EXPECT_GT(tally.with_tpsf, 0);
}

TEST(DiagnosisOracleTest, NetcardTruncatedReportsMatchTheFullSimulation) {
  const auto design = Design::build(Profile::kNetcard, DesignConfig::kSyn1);
  ASSERT_EQ(design->context().fail_memory_patterns, 3);
  // Reporting every positive-score candidate puts the weak ones in the
  // report too, among them the truncation corners, which never come near
  // the best score.
  DiagnosisOptions keep_all;
  keep_all.keep_ratio = 0.0;
  keep_all.max_candidates = 1 << 20;
  OracleTally tally;
  OracleTally tally_all;
  for (const bool compacted : {false, true}) {
    const std::vector<Sample> samples = profile_samples(*design, compacted, 8);
    for (const Sample& s : samples) ASSERT_EQ(s.log.pattern_limit, 3);
    expect_report_matches_oracle(design->context(), samples, {}, tally);
    expect_report_matches_oracle(design->context(), samples, keep_all,
                                 tally_all);
  }
  EXPECT_GT(tally.candidates, 0);
  EXPECT_GT(tally_all.candidates, tally.candidates);
  EXPECT_GT(tally_all.with_tpsf, 0);
  EXPECT_GT(tally_all.truncation_corners, 0);
}

TEST(DiagnosisOracleTest, TpsfWeightScoresOnAllLanes) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  DiagnosisOptions options;
  options.w_tpsf = 0.1;
  OracleTally tally;
  expect_report_matches_oracle(design->context(),
                               profile_samples(*design, false, 12), options,
                               tally);
  EXPECT_GT(tally.candidates, 0);
}

// Compacted and fail-memory truncated, scored on every lane: XOR parity and
// the fail-memory cut together, with tpsf in the score.  Every
// positive-score candidate is reported, so mispredicting ones are checked
// too.
TEST(DiagnosisOracleTest, NetcardCompactedTruncatedTpsfWeight) {
  const auto design = Design::build(Profile::kNetcard, DesignConfig::kSyn1);
  DiagnosisOptions options;
  options.w_tpsf = 0.1;
  options.keep_ratio = 0.0;
  options.max_candidates = 1 << 20;
  const std::vector<Sample> samples = profile_samples(*design, true, 8);
  for (const Sample& s : samples) {
    ASSERT_TRUE(s.log.compacted);
    ASSERT_EQ(s.log.pattern_limit, 3);
  }
  OracleTally tally;
  expect_report_matches_oracle(design->context(), samples, options, tally);
  EXPECT_GT(tally.candidates, 0);
  EXPECT_GT(tally.with_tpsf, 0);
}

TEST(DiagnosisTest, RejectsPatternsTheDesignDoesNotHave) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 1, false);
  FailureLog log = samples[0].log;
  ASSERT_FALSE(log.scan_fails.empty());
  // In the last pattern word but past the last pattern.
  log.scan_fails.back().pattern = d.atpg.patterns.num_patterns;
  ASSERT_NE(d.atpg.patterns.num_patterns % kWordBits, 0);
  EXPECT_THROW(diagnose_atpg(d.context(), log), Error);
}

TEST(DiagnosisOracleTest, RejectsNegativeWeights) {
  SmallDesign d(5);
  const auto samples = make_samples(d, 1, false);
  DiagnosisOptions options;
  options.w_bit_tfsp = -0.5;
  EXPECT_THROW(diagnose_atpg(d.context(), samples[0].log, options), Error);
}

}  // namespace
}  // namespace m3dfl
