#include "diag/failure_log.h"

#include <algorithm>

namespace m3dfl {

std::vector<std::int32_t> FailureLog::failing_patterns() const {
  std::vector<std::int32_t> patterns;
  patterns.reserve(static_cast<std::size_t>(num_failing_bits()));
  for (const Observation& o : scan_fails) patterns.push_back(o.pattern);
  for (const ChannelFail& c : channel_fails) patterns.push_back(c.pattern);
  for (const Observation& o : po_fails) patterns.push_back(o.pattern);
  std::sort(patterns.begin(), patterns.end());
  patterns.erase(std::unique(patterns.begin(), patterns.end()),
                 patterns.end());
  return patterns;
}

std::int32_t FailureLog::num_failing_patterns() const {
  return static_cast<std::int32_t>(failing_patterns().size());
}

std::int32_t FailureLog::num_failing_bits() const {
  return static_cast<std::int32_t>(scan_fails.size() + channel_fails.size() +
                                   po_fails.size());
}

void TesterLogWalker::collect(std::span<const Observation> pattern) {
  bits_.clear();
  std::size_t k = 0;
  for (; k < pattern.size() && !pattern[k].at_po; ++k) {
    const Observation& o = pattern[k];
    if (compactor_ == nullptr) {
      bits_.push_back({o.pattern, TesterBit::kScanCell, o.index, 0});
      continue;
    }
    const std::int32_t chain = chains_->chain_of_flop(o.index);
    bits_.push_back({o.pattern, TesterBit::kChannel,
                     compactor_->channel_of_chain(chain),
                     chains_->position_of_flop(o.index)});
  }
  if (compactor_ != nullptr) {
    // XOR compaction: a channel bit fails iff an odd number of the aliased
    // scan cells differ from the good response, so equal bits cancel in
    // pairs.
    std::sort(bits_.begin(), bits_.end());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < bits_.size();) {
      std::size_t run = i + 1;
      while (run < bits_.size() && bits_[run] == bits_[i]) ++run;
      if ((run - i) % 2 == 1) bits_[kept++] = bits_[i];
      i = run;
    }
    bits_.resize(kept);
  }
  for (; k < pattern.size(); ++k) {
    bits_.push_back({pattern[k].pattern, TesterBit::kPo, pattern[k].index, 0});
  }
}

FailureLog make_failure_log(std::span<const Observation> raw,
                            const ScanChains& chains,
                            const XorCompactor* compactor,
                            std::int32_t pattern_limit) {
  FailureLog log;
  log.compacted = compactor != nullptr;
  log.pattern_limit = std::max(pattern_limit, 0);
  TesterLogWalker(chains, compactor, pattern_limit)
      .walk(raw, [&](std::int32_t, std::span<const TesterBit> bits) {
        for (const TesterBit& b : bits) {
          switch (b.kind) {
            case TesterBit::kScanCell:
              log.scan_fails.push_back({b.pattern, false, b.index});
              break;
            case TesterBit::kChannel:
              log.channel_fails.push_back({b.pattern, b.index, b.position});
              break;
            case TesterBit::kPo:
              log.po_fails.push_back({b.pattern, true, b.index});
              break;
          }
        }
      });
  return log;
}

}  // namespace m3dfl
