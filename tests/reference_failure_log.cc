#include "reference_failure_log.h"

#include <algorithm>
#include <map>
#include <set>

namespace m3dfl::testing {

FailureLog reference_make_failure_log(const std::vector<Observation>& raw,
                                      const ScanChains& chains,
                                      const XorCompactor* compactor) {
  FailureLog log;
  log.compacted = compactor != nullptr;
  if (!log.compacted) {
    for (const Observation& o : raw) {
      (o.at_po ? log.po_fails : log.scan_fails).push_back(o);
    }
    return log;
  }

  // XOR compaction: a channel bit fails iff an odd number of the aliased
  // scan cells differ from the good response.
  std::map<ChannelFail, std::int32_t> parity;
  for (const Observation& o : raw) {
    if (o.at_po) {
      log.po_fails.push_back(o);
      continue;
    }
    const std::int32_t chain = chains.chain_of_flop(o.index);
    const std::int32_t position = chains.position_of_flop(o.index);
    const std::int32_t channel = compactor->channel_of_chain(chain);
    ++parity[ChannelFail{o.pattern, channel, position}];
  }
  for (const auto& [key, count] : parity) {
    if (count % 2 == 1) log.channel_fails.push_back(key);
  }
  std::sort(log.channel_fails.begin(), log.channel_fails.end());
  return log;
}

FailureLog reference_truncate_failure_log(const FailureLog& log,
                                          std::int32_t max_failing_patterns) {
  if (max_failing_patterns <= 0) return log;
  // Distinct failing patterns in test order; keep the first N.
  std::set<std::int32_t> patterns;
  for (const Observation& o : log.scan_fails) patterns.insert(o.pattern);
  for (const ChannelFail& c : log.channel_fails) patterns.insert(c.pattern);
  for (const Observation& o : log.po_fails) patterns.insert(o.pattern);
  if (static_cast<std::int32_t>(patterns.size()) <= max_failing_patterns) {
    FailureLog out = log;
    out.pattern_limit = max_failing_patterns;
    return out;
  }
  std::int32_t cutoff = 0;
  std::int32_t kept = 0;
  for (std::int32_t p : patterns) {
    cutoff = p;
    if (++kept == max_failing_patterns) break;
  }
  FailureLog out;
  out.compacted = log.compacted;
  out.pattern_limit = max_failing_patterns;
  for (const Observation& o : log.scan_fails) {
    if (o.pattern <= cutoff) out.scan_fails.push_back(o);
  }
  for (const ChannelFail& c : log.channel_fails) {
    if (c.pattern <= cutoff) out.channel_fails.push_back(c);
  }
  for (const Observation& o : log.po_fails) {
    if (o.pattern <= cutoff) out.po_fails.push_back(o);
  }
  return out;
}

}  // namespace m3dfl::testing
