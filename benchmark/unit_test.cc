#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.h"
#include "diag/log_io.h"
#include "inputs.h"
#include "loadgen.h"
#include "stats.h"
#include "trace.h"

namespace m3dfl::benchmark {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(percentile(v, 5), 15);
  EXPECT_EQ(percentile(v, 30), 20);  // rank ceil(1.5) = 2
  EXPECT_EQ(percentile(v, 40), 20);  // rank 2 exactly
  EXPECT_EQ(percentile(v, 50), 35);
  EXPECT_EQ(percentile(v, 100), 50);
  EXPECT_EQ(percentile({3, 1, 2}, 50), 2);  // unsorted input
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, P99NeedsAHundredSamplesToLeaveTheMax) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 99), 99);
  v.resize(50);
  EXPECT_EQ(percentile(v, 99), 50);  // with < 100 samples p99 is the max
}

TEST(Mean, Basic) {
  EXPECT_EQ(mean({}), 0);
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3);
}

TEST(PartRates, EqualPartsOfAboutTheGivenLength) {
  PhaseResult p;
  p.wall_s = 2.4;  // two parts of 1.2 s
  for (const double t : {0.1, 0.5, 1.1, 1.3, 2.4}) {
    Completion c;
    c.done_s = t;
    p.completions.push_back(c);
  }
  const std::vector<double> rates = part_rates(p, 1.0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_NEAR(rates[0], 3 / 1.2, 1e-9);
  EXPECT_NEAR(rates[1], 2 / 1.2, 1e-9);  // the window's end counts as in
  p.wall_s = 0.5;  // shorter than a part: one part
  p.completions.resize(2);
  EXPECT_EQ(part_rates(p, 1.0), (std::vector<double>{4}));
  EXPECT_TRUE(part_rates(PhaseResult{}, 1.0).empty());
}

TEST(QuietRequests, PoolsTheQuietestParts) {
  const auto phase = [](std::vector<double> latencies) {
    PhaseResult p;
    for (const double l : latencies) {
      Completion c;
      c.latency_s = l;
      p.completions.push_back(c);
    }
    return p;
  };
  const auto latencies = [](const std::vector<Completion>& pool) {
    std::vector<double> out;
    for (const Completion& c : pool) out.push_back(c.latency_s);
    return out;
  };
  // Parts of two: {1, 1} {9, 9} in one phase, {2, 2} {5} in the next.
  const std::vector<PhaseResult> open = {phase({1, 1, 9, 9}),
                                         phase({2, 2, 5})};
  // A quarter of the 7 requests is 1, so the quietest part suffices...
  EXPECT_EQ(latencies(quiet_requests(open, 2, 1)),
            (std::vector<double>{1, 1}));
  // ...unless more requests are asked for; parts are never split.
  EXPECT_EQ(latencies(quiet_requests(open, 2, 3)),
            (std::vector<double>{1, 1, 2, 2}));
  EXPECT_EQ(latencies(quiet_requests(open, 2, 100)),
            (std::vector<double>{1, 1, 2, 2, 5, 9, 9}));
  // With many requests the quarter rules: 8 parts of one, quietest 2.
  EXPECT_EQ(latencies(quiet_requests({phase({8, 7, 6, 5, 4, 3, 2, 1})}, 1, 1)),
            (std::vector<double>{1, 2}));
}

Span span(std::int32_t id, std::int32_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, NestedChildren) {
  // root [0,100) > a [10,40) > c [20,30); root > b [50,70).
  const std::vector<Span> spans = {span(0, -1, 0, 100), span(1, 0, 10, 40),
                                   span(2, 1, 20, 30), span(3, 0, 50, 70)};
  EXPECT_EQ(self_times_ns(spans), (std::vector<std::int64_t>{50, 20, 10, 20}));
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10,40) and [30,60) overlap on [30,40); [55,65) joins the run.
  const std::vector<Span> spans = {span(0, -1, 0, 100), span(1, 0, 10, 40),
                                   span(2, 0, 30, 60), span(3, 0, 55, 65)};
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 55);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {span(0, -1, 10, 20), span(1, 0, 0, 15),
                                   span(2, 0, 18, 40)};
  EXPECT_EQ(self_times_ns(spans)[0], 10 - 5 - 2);
}

TEST(Tracer, NestsAndWritesJson) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "request", 7);
    ScopedSpan inner(&tracer, "predict", 7);
  }
  ScopedSpan untraced(nullptr, "ignored", 0);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
  std::ostringstream os;
  write_trace_json(tracer.spans(), os);
  EXPECT_NE(os.str().find("\"name\": \"predict\", \"log\": 7"),
            std::string::npos);
}

TEST(DrawLogs, DistinctAndSeeded) {
  const std::unique_ptr<Design> design =
      Design::build(Profile::kAes, DesignConfig::kSyn1);
  DataGenOptions gen;
  gen.miv_fault_prob = 0.2;
  const auto text = [](const std::vector<Sample>& samples) {
    std::vector<std::string> logs;
    for (const Sample& s : samples) {
      logs.push_back(failure_log_to_string(s.log));
    }
    return logs;
  };
  const auto draw = [&](std::uint64_t seed) {
    return text(draw_logs(design->context(), gen, 60, seed));
  };
  const std::vector<std::string> a = draw(1);
  EXPECT_EQ(a.size(), 60u);
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), a.size());
  EXPECT_EQ(draw(1), a);
  EXPECT_NE(draw(2), a);

  // Seeds 1 and 2 alone share a log (equivalent faults yield the same log);
  // a draw that excludes another shares none with it.
  std::set<std::string> both(a.begin(), a.end());
  std::size_t shared = 0;
  for (const std::string& log : draw(2)) shared += both.count(log);
  EXPECT_GT(shared, 0u);
  const std::vector<Sample> first = draw_logs(design->context(), gen, 60, 1);
  for (const std::string& log :
       text(draw_logs(design->context(), gen, 60, 2, first))) {
    EXPECT_TRUE(both.insert(log).second);
  }
  EXPECT_EQ(both.size(), 120u);
}

}  // namespace
}  // namespace m3dfl::benchmark
