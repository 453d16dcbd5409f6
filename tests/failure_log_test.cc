#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "diag/failure_log.h"
#include "reference_failure_log.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace m3dfl {
namespace {

ScanChains make_chains(const Netlist& nl, std::int32_t n) {
  return ScanChains(nl, n, 1);
}

TEST(FailureLogTest, BypassKeepsEveryObservation) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const std::vector<Observation> raw = {
      {0, false, 3}, {0, true, 1}, {2, false, 7}};
  const FailureLog log = make_failure_log(raw, chains, nullptr);
  EXPECT_FALSE(log.compacted);
  EXPECT_EQ(log.scan_fails.size(), 2u);
  EXPECT_EQ(log.po_fails.size(), 1u);
  EXPECT_TRUE(log.channel_fails.empty());
  EXPECT_EQ(log.num_failing_patterns(), 2);
  EXPECT_EQ(log.num_failing_bits(), 3);
}

TEST(FailureLogTest, XorCompactionParity) {
  const Netlist nl = testing::small_netlist(2);  // 32 flops
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 4);  // one channel

  // Two failing cells in the SAME channel at the same position cancel.
  const std::int32_t f0 = chains.flop_at(0, 2);
  const std::int32_t f1 = chains.flop_at(1, 2);
  const std::int32_t f2 = chains.flop_at(2, 5);
  ASSERT_GE(f0, 0);
  ASSERT_GE(f1, 0);
  ASSERT_GE(f2, 0);
  std::vector<Observation> raw = {
      {0, false, f0}, {0, false, f1}, {0, false, f2}};
  std::sort(raw.begin(), raw.end());
  const FailureLog log = make_failure_log(raw, chains, &compactor);
  EXPECT_TRUE(log.compacted);
  // f0^f1 cancel at position 2; f2 survives at position 5.
  ASSERT_EQ(log.channel_fails.size(), 1u);
  EXPECT_EQ(log.channel_fails[0].pattern, 0);
  EXPECT_EQ(log.channel_fails[0].channel, 0);
  EXPECT_EQ(log.channel_fails[0].position, 5);
}

TEST(FailureLogTest, OddParitySurvives) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 4);
  const std::int32_t f0 = chains.flop_at(0, 1);
  const std::int32_t f1 = chains.flop_at(1, 1);
  const std::int32_t f2 = chains.flop_at(2, 1);
  std::vector<Observation> raw = {
      {3, false, f0}, {3, false, f1}, {3, false, f2}};
  std::sort(raw.begin(), raw.end());
  const FailureLog log = make_failure_log(raw, chains, &compactor);
  ASSERT_EQ(log.channel_fails.size(), 1u);
  EXPECT_EQ(log.channel_fails[0].position, 1);
}

TEST(FailureLogTest, PoFailsBypassCompaction) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 2);
  const std::vector<Observation> raw = {{1, true, 0}, {1, true, 3}};
  const FailureLog log = make_failure_log(raw, chains, &compactor);
  EXPECT_EQ(log.po_fails.size(), 2u);
  EXPECT_TRUE(log.channel_fails.empty());
}

TEST(FailureLogTest, TruncationKeepsFirstPatterns) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const std::vector<Observation> raw = {
      {0, false, 1}, {2, false, 1}, {2, true, 0},
      {5, false, 2}, {9, false, 3}, {9, true, 1}};
  const FailureLog cut = make_failure_log(raw, chains, nullptr, 2);
  EXPECT_EQ(cut.pattern_limit, 2);
  // First two failing patterns are 0 and 2.
  ASSERT_EQ(cut.scan_fails.size(), 2u);
  EXPECT_EQ(cut.scan_fails[0].pattern, 0);
  EXPECT_EQ(cut.scan_fails[1].pattern, 2);
  ASSERT_EQ(cut.po_fails.size(), 1u);
  EXPECT_EQ(cut.po_fails[0].pattern, 2);
  EXPECT_EQ(cut.num_failing_patterns(), 2);
}

TEST(FailureLogTest, TruncationNoOpWhenWithinBudget) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const std::vector<Observation> raw = {{0, false, 1}, {4, false, 2}};
  const FailureLog cut = make_failure_log(raw, chains, nullptr, 10);
  EXPECT_EQ(cut.scan_fails.size(), 2u);
  EXPECT_EQ(cut.pattern_limit, 10);
  const FailureLog uncut = make_failure_log(raw, chains, nullptr, 0);
  EXPECT_EQ(uncut.pattern_limit, 0);
  EXPECT_EQ(uncut.scan_fails.size(), 2u);
}

TEST(FailureLogTest, TruncationCountsChannelPatterns) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 2);  // chains {0,1} and {2,3}
  const std::vector<Observation> raw = {{1, false, chains.flop_at(0, 0)},
                                        {3, false, chains.flop_at(2, 2)},
                                        {8, false, chains.flop_at(1, 1)}};
  const FailureLog cut = make_failure_log(raw, chains, &compactor, 2);
  ASSERT_EQ(cut.channel_fails.size(), 2u);
  EXPECT_EQ(cut.channel_fails[0], (ChannelFail{1, 0, 0}));
  EXPECT_EQ(cut.channel_fails[1], (ChannelFail{3, 1, 2}));
  EXPECT_TRUE(cut.compacted);
  EXPECT_EQ(cut.pattern_limit, 2);
}

// A pattern whose channel bits all cancel is not a failing pattern: it is
// not logged and uses no fail memory, before or after the cut.  A PO fail
// keeps its pattern failing.
TEST(FailureLogTest, CancelledPatternUsesNoFailMemory) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 4);  // one channel
  const auto cell = [&](std::int32_t p, std::int32_t chain,
                        std::int32_t position) {
    return Observation{p, false, chains.flop_at(chain, position)};
  };
  std::vector<Observation> raw = {
      cell(0, 0, 2),                            // logged
      cell(1, 0, 3), cell(1, 1, 3),             // cancels
      cell(2, 2, 5),                            // logged
      cell(3, 0, 1), cell(3, 1, 1), {3, true, 0},  // cancels; PO fails
      cell(4, 2, 1), cell(4, 3, 1),             // cancels, after the cut
      cell(5, 0, 4)};                           // logged
  std::sort(raw.begin(), raw.end());

  const FailureLog full = make_failure_log(raw, chains, &compactor);
  EXPECT_EQ(full.failing_patterns(), (std::vector<std::int32_t>{0, 2, 3, 5}));
  ASSERT_EQ(full.channel_fails.size(), 3u);
  ASSERT_EQ(full.po_fails.size(), 1u);

  const FailureLog two = make_failure_log(raw, chains, &compactor, 2);
  EXPECT_EQ(two.failing_patterns(), (std::vector<std::int32_t>{0, 2}));
  EXPECT_TRUE(two.po_fails.empty());
  const FailureLog three = make_failure_log(raw, chains, &compactor, 3);
  EXPECT_EQ(three.failing_patterns(), (std::vector<std::int32_t>{0, 2, 3}));
  ASSERT_EQ(three.channel_fails.size(), 2u);
  EXPECT_EQ(three.po_fails.size(), 1u);
  const FailureLog four = make_failure_log(raw, chains, &compactor, 4);
  EXPECT_EQ(four.failing_patterns(), full.failing_patterns());

  for (std::int32_t limit : {0, 1, 2, 3, 4, 5}) {
    const FailureLog expected = testing::reference_truncate_failure_log(
        testing::reference_make_failure_log(raw, chains, &compactor), limit);
    const FailureLog got = make_failure_log(raw, chains, &compactor, limit);
    EXPECT_EQ(got.channel_fails, expected.channel_fails) << limit;
    EXPECT_EQ(got.po_fails, expected.po_fails) << limit;
    EXPECT_EQ(got.pattern_limit, expected.pattern_limit) << limit;
  }
}

TEST(FailureLogTest, EmptyLog) {
  FailureLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.num_failing_patterns(), 0);
  EXPECT_EQ(log.num_failing_bits(), 0);
}

// ---- Against the map-and-set reference ---------------------------------------

bool same_log(const FailureLog& a, const FailureLog& b) {
  return a.compacted == b.compacted && a.pattern_limit == b.pattern_limit &&
         a.scan_fails == b.scan_fails && a.channel_fails == b.channel_fails &&
         a.po_fails == b.po_fails;
}

struct ReferenceTally {
  std::int32_t cut = 0;        // logs the fail memory shortened
  std::int32_t cancelled = 0;  // compacted logs that lost a whole pattern
};

// make_failure_log must equal the reference's make-then-truncate, bypass
// and compacted, at every fail-memory depth the tests care about.
void expect_matches_reference(const Design& design,
                              const std::vector<Observation>& raw,
                              const std::string& what, ReferenceTally& tally) {
  std::vector<std::int32_t> raw_patterns;
  for (const Observation& o : raw) raw_patterns.push_back(o.pattern);
  raw_patterns.erase(std::unique(raw_patterns.begin(), raw_patterns.end()),
                     raw_patterns.end());
  const XorCompactor* const modes[] = {nullptr, &design.compactor()};
  for (const XorCompactor* compactor : modes) {
    const FailureLog full =
        testing::reference_make_failure_log(raw, design.scan(), compactor);
    for (const std::int32_t limit : {0, 1, 3, 1 << 20}) {
      const FailureLog expected =
          testing::reference_truncate_failure_log(full, limit);
      EXPECT_TRUE(same_log(
          make_failure_log(raw, design.scan(), compactor, limit), expected))
          << what << (compactor != nullptr ? " compacted" : " bypass")
          << " limit " << limit;
      tally.cut += expected.num_failing_patterns() < full.num_failing_patterns()
                       ? 1
                       : 0;
    }
    const auto raw_count = static_cast<std::int32_t>(raw_patterns.size());
    tally.cancelled += full.num_failing_patterns() < raw_count ? 1 : 0;
  }
}

TEST(FailureLogReferenceTest, SimulatedLogsMatchTheReference) {
  const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
  const Netlist& nl = design->netlist();
  FaultSimulator fsim(nl, design->good_sim(), &design->mivs());
  ReferenceTally single;
  for (PinId pin = 0; pin < nl.num_pins(); pin += 7) {
    for (const Fault& f : {Fault::slow_to_rise(pin), Fault::slow_to_fall(pin)}) {
      expect_matches_reference(*design, fsim.simulate(f),
                               fault_to_string(nl, f), single);
    }
  }
  EXPECT_GT(single.cut, 0);
  EXPECT_GT(single.cancelled, 0);

  ReferenceTally sets;
  Rng rng(20);
  for (int set = 0; set < 200; ++set) {
    std::vector<Fault> faults;
    const auto n = rng.next_int(2, 5);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto pin = static_cast<PinId>(
          rng.next_below(static_cast<std::uint64_t>(nl.num_pins())));
      faults.push_back(rng.next_bool() ? Fault::slow_to_rise(pin)
                                       : Fault::slow_to_fall(pin));
    }
    expect_matches_reference(*design, fsim.simulate(faults),
                             "fault set " + std::to_string(set), sets);
  }
  EXPECT_GT(sets.cut, 0);
  EXPECT_GT(sets.cancelled, 0);
}

}  // namespace
}  // namespace m3dfl
