// Tester failure logs.
//
// A failure log is what the tester reports for one failing die: the set of
// test patterns that failed and, per failing pattern, the observation points
// where the response mismatched.  Two acquisition modes exist, mirroring the
// paper's with/without response compaction studies:
//  * bypass     — raw scan-out: every failing *scan cell* is identified;
//  * compacted  — XOR space compaction: a failing bit only identifies a
//    (pattern, channel, shift-position) triple, i.e. the parity of the
//    aliased cells, losing which chain actually failed.
// Primary outputs are observed directly in both modes.
//
// The tester model lives here once.  TesterLogWalker turns a fault
// simulation's observations into the bits a tester would log, pattern by
// pattern: XOR parity in compacted mode, then the fail-memory cut.  Data
// generation builds logs through it (make_failure_log), and ATPG diagnosis
// matches every candidate's prediction against a log through it.
#ifndef M3DFL_DIAG_FAILURE_LOG_H_
#define M3DFL_DIAG_FAILURE_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dft/compactor.h"
#include "dft/scan.h"
#include "sim/fault_sim.h"
#include "util/error.h"

namespace m3dfl {

// One failing compacted scan bit.
struct ChannelFail {
  std::int32_t pattern = 0;
  std::int32_t channel = 0;
  std::int32_t position = 0;
  friend bool operator==(const ChannelFail&, const ChannelFail&) = default;
  friend auto operator<=>(const ChannelFail&, const ChannelFail&) = default;
};

struct FailureLog {
  bool compacted = false;
  // Bypass mode: failing scan cells (Observation::at_po == false).
  std::vector<Observation> scan_fails;
  // Compacted mode: failing channel bits.
  std::vector<ChannelFail> channel_fails;
  // Failing primary outputs (both modes).
  std::vector<Observation> po_fails;
  // Tester fail-memory depth: when positive, the log only covers the first
  // `pattern_limit` failing patterns (the tester stopped logging after
  // that).  Diagnosis must cut candidate predictions the same way.
  std::int32_t pattern_limit = 0;

  bool empty() const {
    return scan_fails.empty() && channel_fails.empty() && po_fails.empty();
  }
  // Distinct failing patterns, sorted.
  std::vector<std::int32_t> failing_patterns() const;
  // Number of distinct failing patterns.
  std::int32_t num_failing_patterns() const;
  // Total failing tester bits.
  std::int32_t num_failing_bits() const;
};

// One failing tester bit, in the order a log lists them: by pattern, then
// scan cells or channel bits before primary outputs.
struct TesterBit {
  enum Kind : std::int8_t { kScanCell, kChannel, kPo };
  std::int32_t pattern = 0;
  Kind kind = kScanCell;
  std::int32_t index = 0;     // flop index, channel or PO index
  std::int32_t position = 0;  // shift position of a channel bit, else 0
  friend bool operator==(const TesterBit&, const TesterBit&) = default;
  friend auto operator<=>(const TesterBit&, const TesterBit&) = default;
};

// The tester's view of a fault simulation.  walk() visits the failing
// patterns a log would hold, in pattern order, each with its failing bits
// sorted: the failing scan cells in bypass mode, or in compacted mode the
// channel bits an odd number of aliased cells fail (the others cancel);
// then the failing POs.  A pattern whose channel bits all cancel and that
// fails no PO is not a failing pattern and uses no fail memory.  When
// `pattern_limit` is positive the walk stops after that many failing
// patterns, as the tester's fail memory does.
//
// The walker reuses one buffer for a pattern's bits across walks, so a
// matcher keeps one walker for all of a log's candidates.
class TesterLogWalker {
 public:
  // `compactor` is null for bypass mode.
  TesterLogWalker(const ScanChains& chains, const XorCompactor* compactor,
                  std::int32_t pattern_limit)
      : chains_(&chains),
        compactor_(compactor),
        pattern_limit_(pattern_limit) {}

  // Calls on_pattern(pattern, bits) per failing pattern.  `raw` must be
  // sorted and distinct, as FaultSimulator::simulate returns it.
  template <typename OnPattern>
  void walk(std::span<const Observation> raw, OnPattern&& on_pattern) {
    std::int32_t patterns = 0;
    for (std::size_t k = 0; k < raw.size();) {
      if (pattern_limit_ > 0 && patterns == pattern_limit_) return;
      std::size_t end = k + 1;
      while (end < raw.size() && raw[end].pattern == raw[k].pattern) ++end;
      M3DFL_ASSERT(end == raw.size() || raw[end].pattern > raw[k].pattern);
      collect(raw.subspan(k, end - k));
      k = end;
      if (bits_.empty()) continue;
      ++patterns;
      on_pattern(bits_.front().pattern, std::span<const TesterBit>(bits_));
    }
  }

 private:
  // Replaces bits_ with the failing bits of one pattern's observations.
  void collect(std::span<const Observation> pattern);

  const ScanChains* chains_;
  const XorCompactor* compactor_;
  std::int32_t pattern_limit_;
  std::vector<TesterBit> bits_;
};

// Builds the failure log the tester records for raw fault-simulation
// observations (sorted and distinct, as FaultSimulator::simulate returns
// them).  When `compactor` is non-null the scan part is passed through XOR
// compaction; otherwise bypass mode.  A positive `pattern_limit` models the
// tester's fail memory (stop-on-Nth-failing-pattern): only the first
// `pattern_limit` failing patterns are logged, and the log records the
// limit.  Real ATE always cuts failure logs this way, and diagnosing from
// cut logs is the root of much of the resolution loss commercial tools
// exhibit — especially with large pattern sets (netcard) and response
// compaction, where each surviving bit carries less information.
FailureLog make_failure_log(std::span<const Observation> raw,
                            const ScanChains& chains,
                            const XorCompactor* compactor,
                            std::int32_t pattern_limit = 0);

}  // namespace m3dfl

#endif  // M3DFL_DIAG_FAILURE_LOG_H_
