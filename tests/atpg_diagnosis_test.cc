#include <gtest/gtest.h>

#include <string>

#include "diag/atpg_diagnosis.h"
#include "diag/metrics.h"
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

}  // namespace
}  // namespace m3dfl
