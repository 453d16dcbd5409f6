#include "diag/atpg_diagnosis.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "graph/backtrace.h"
#include "graph/hetero_graph.h"
#include "sim/fault_sim.h"
#include "util/thinning.h"

namespace m3dfl {
namespace {

// |a ∩ b| for sorted vectors.
template <typename T>
std::int32_t sorted_overlap(const std::vector<T>& a, const std::vector<T>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::int32_t overlap = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

// Advances `i` over the sorted `v` to `x`; true (and past it) if present.
template <typename T>
bool skip_to(const std::vector<T>& v, std::size_t& i, const T& x) {
  while (i < v.size() && v[i] < x) ++i;
  if (i == v.size() || v[i] != x) return false;
  ++i;
  return true;
}

// Compares candidates' predictions with one tester log.  A prediction is a
// candidate's raw simulation observations, seen as the tester would have
// logged them: compacted like the log, and cut at the log's fail memory
// (TesterLogWalker), so the comparison stays apples-to-apples.  The log's
// failing patterns and bits are sorted once; each prediction is then one
// merge walk against them, in both modes.  The walker's scratch makes the
// matcher one per diagnose_atpg call.
class LogMatcher {
 public:
  struct Match {
    std::int32_t patterns = 0;  // distinct predicted failing patterns
    std::int32_t tfsf = 0;      // of them, failing on the tester
    std::int32_t bits = 0;      // the log's failing bits predicted
  };

  LogMatcher(const DesignContext& design, const FailureLog& log)
      : walker_(*design.scan, log.compacted ? design.compactor : nullptr,
                log.pattern_limit),
        observed_(log.failing_patterns()),
        num_bits_(log.num_failing_bits()) {
    observed_bits_.reserve(static_cast<std::size_t>(num_bits_));
    for (const Observation& o : log.scan_fails) {
      observed_bits_.push_back({o.pattern, TesterBit::kScanCell, o.index, 0});
    }
    for (const ChannelFail& c : log.channel_fails) {
      observed_bits_.push_back(
          {c.pattern, TesterBit::kChannel, c.channel, c.position});
    }
    for (const Observation& o : log.po_fails) {
      observed_bits_.push_back({o.pattern, TesterBit::kPo, o.index, 0});
    }
    std::sort(observed_bits_.begin(), observed_bits_.end());
  }

  // The log's distinct failing patterns, sorted, and its failing bits.
  const std::vector<std::int32_t>& observed() const { return observed_; }
  std::int32_t num_bits() const { return num_bits_; }

  Match match(std::span<const Observation> raw) {
    Match m;
    std::size_t i = 0;
    std::size_t j = 0;
    walker_.walk(raw, [&](std::int32_t p, std::span<const TesterBit> bits) {
      ++m.patterns;
      m.tfsf += skip_to(observed_, i, p) ? 1 : 0;
      for (const TesterBit& b : bits) {
        m.bits += skip_to(observed_bits_, j, b) ? 1 : 0;
      }
    });
    return m;
  }

  // The prediction's distinct failing patterns, sorted.
  std::vector<std::int32_t> predicted_patterns(
      std::span<const Observation> raw) {
    std::vector<std::int32_t> patterns;
    walker_.walk(raw, [&](std::int32_t p, std::span<const TesterBit>) {
      patterns.push_back(p);
    });
    return patterns;
  }

 private:
  TesterLogWalker walker_;
  std::vector<std::int32_t> observed_;
  std::int32_t num_bits_;
  std::vector<TesterBit> observed_bits_;
};

// The report order: score descending; within a tie the candidates are
// behaviour-equivalent as far as the tester evidence goes, so the order
// falls back to a structural enumeration (MIVs, then pins in order, then
// fault type).
bool ranks_before(const Candidate& a, const Candidate& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.fault.is_miv() != b.fault.is_miv()) return a.fault.is_miv();
  if (a.fault.pin != b.fault.pin) return a.fault.pin < b.fault.pin;
  return a.fault.type < b.fault.type;
}

// Suspect-net extraction.  For each response, the suspect set is the set of
// nets in its observation points' cones (the graph's net cones; the union
// over the aliased cells of a compacted response) that transition under
// the failing pattern.  Returns, per net, in how many
// responses it was suspect.  Static (stuck-at) defects are activated by a
// wrong *level* rather than a missed transition, so when the flow also hunts
// static candidates the transition requirement is dropped.
std::vector<std::int32_t> suspect_net_counts(
    const DesignContext& design, std::span<const FailingResponse> traced,
    bool require_transition) {
  const HeteroGraph& graph = *design.graph;
  const LocSimulator& good = *design.good;
  const auto num_nets = static_cast<std::size_t>(design.netlist->num_nets());
  std::vector<std::int32_t> count(num_nets, 0);
  std::vector<std::uint32_t> seen(num_nets, 0);
  std::uint32_t stamp = 0;
  for (const FailingResponse& r : traced) {
    const std::int32_t w = r.pattern / kWordBits;
    const std::int32_t b = r.pattern % kWordBits;
    const auto add = [&](NetId n) {
      const std::uint64_t t =
          require_transition ? good.transition(n, w) >> b : 1;
      count[static_cast<std::size_t>(n)] += static_cast<std::int32_t>(t & 1);
    };
    // A net cone lists each net once; only a union of cones needs the
    // stamps.
    if (r.observation_points.size() == 1) {
      for (const NetId n : graph.net_cone(r.observation_points[0])) add(n);
      continue;
    }
    ++stamp;
    for (std::int32_t obs : r.observation_points) {
      for (const NetId n : graph.net_cone(obs)) {
        if (seen[static_cast<std::size_t>(n)] == stamp) continue;
        seen[static_cast<std::size_t>(n)] = stamp;
        add(n);
      }
    }
  }
  return count;
}

// Candidate faults on a suspect net (stem + branch pins, both directions,
// optional static candidates, plus the MIV if the net crosses tiers).
std::vector<Fault> enumerate_candidates(const DesignContext& design,
                                        const std::vector<NetId>& suspects,
                                        const DiagnosisOptions& options) {
  const Netlist& nl = *design.netlist;
  std::vector<Fault> candidates;
  for (NetId n : suspects) {
    const Net& net = nl.net(n);
    const PinId stem = nl.output_pin(net.driver);
    const auto add_pin = [&](PinId pin) {
      candidates.push_back(Fault::slow_to_rise(pin));
      candidates.push_back(Fault::slow_to_fall(pin));
      if (options.include_stuck_at_candidates) {
        candidates.push_back(Fault::stuck_at(pin, false));
        candidates.push_back(Fault::stuck_at(pin, true));
      }
    };
    add_pin(stem);
    for (const PinRef& sink : net.sinks) add_pin(nl.pin_id(sink));
    const MivId miv = design.mivs->miv_of_net(n);
    if (miv != kNullMiv) candidates.push_back(Fault::miv_delay(miv));
  }
  return candidates;
}

// Iterative-cover ("multiplet") diagnosis for multi-fault dies.  Each round
// anchors on the earliest still-unexplained failing pattern: the responsible
// fault must transition there and reach that pattern's failing observation
// points, so the strict per-anchor suspect intersection contains its site.
// The anchor-consistent candidates are ranked by how many of the remaining
// failing patterns they explain (no penalty for leaving patterns to the
// other faults), the best explanation's patterns are subtracted, and the
// loop continues until every response is accounted for.
DiagnosisReport diagnose_cover(const DesignContext& design,
                               LogMatcher& matcher,
                               const DiagnosisOptions& options,
                               const std::vector<FailingResponse>& responses,
                               FaultSimulator& fsim) {
  const Netlist& nl = *design.netlist;

  DiagnosisReport report;
  std::vector<FailingResponse> remaining = responses;
  for (int round = 0; round < 24 && !remaining.empty(); ++round) {
    // Anchor on ONE response (earliest pattern): whatever else is failing,
    // the culprit of this response transitions at its pattern and lies in
    // its cone, so the single-response suspect set must contain its site.
    // (Anchoring on whole patterns breaks when two faults fail the same
    // pattern at different observation points: the cone intersection then
    // contains neither site.)
    std::size_t anchor_idx = 0;
    for (std::size_t i = 1; i < remaining.size(); ++i) {
      if (remaining[i].pattern < remaining[anchor_idx].pattern) {
        anchor_idx = i;
      }
    }
    const std::int32_t anchor = remaining[anchor_idx].pattern;

    const std::vector<std::int32_t> count = suspect_net_counts(
        design, {&remaining[anchor_idx], 1},
        !options.include_stuck_at_candidates);
    std::vector<NetId> suspects;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (count[static_cast<std::size_t>(n)] > 0) suspects.push_back(n);
    }

    std::vector<std::int32_t> observed;
    for (const FailingResponse& r : remaining) {
      observed.push_back(r.pattern);
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()),
                   observed.end());

    // Score the anchor-consistent candidates by how many remaining failing
    // patterns they explain.
    struct Scored {
      Candidate candidate;
      std::vector<std::int32_t> predicted;
    };
    std::vector<Scored> scored;
    for (const Fault& f : enumerate_candidates(design, suspects, options)) {
      const std::vector<Observation> raw = fsim.simulate(f);
      if (raw.empty()) continue;
      std::vector<std::int32_t> predicted = matcher.predicted_patterns(raw);
      Candidate c;
      c.fault = f;
      c.tfsf = sorted_overlap(observed, predicted);
      c.tfsp = static_cast<std::int32_t>(observed.size()) - c.tfsf;
      c.tpsf = static_cast<std::int32_t>(predicted.size()) - c.tfsf;
      // Fault interaction can mask a culprit's solo behaviour at the anchor
      // itself, so anchor-explanation is a bonus rather than a filter.
      c.score = c.tfsf +
                (std::binary_search(predicted.begin(), predicted.end(),
                                    anchor)
                     ? 2.0
                     : 0.0);
      if (c.tfsf > 0) scored.push_back(Scored{c, std::move(predicted)});
    }

    if (!scored.empty()) {
      std::sort(scored.begin(), scored.end(),
                [](const Scored& a, const Scored& b) {
                  return ranks_before(a.candidate, b.candidate);
                });
      // Keep the cluster's plausible explanations: all anchor-consistent
      // candidates within a generous score band (the true fault explains
      // only its own share of a multi-fault log).
      const double floor_score =
          scored.front().candidate.score * 0.5 * options.keep_ratio;
      std::int32_t kept = 0;
      for (const Scored& sc : scored) {
        if (sc.candidate.score < floor_score || kept >= 6) break;
        const bool duplicate = std::any_of(
            report.candidates.begin(), report.candidates.end(),
            [&](const Candidate& c) {
              return c.fault == sc.candidate.fault;
            });
        if (!duplicate) {
          report.candidates.push_back(sc.candidate);
          ++kept;
        }
        if (report.resolution() >= options.max_candidates) return report;
      }
    }

    // Subtract the anchored response (guaranteed progress) plus every
    // response whose pattern the round's best explanation covers.
    std::vector<std::int32_t> explained;
    if (!scored.empty()) explained = scored.front().predicted;
    std::vector<FailingResponse> next;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (i == anchor_idx) continue;
      if (!std::binary_search(explained.begin(), explained.end(),
                              remaining[i].pattern)) {
        next.push_back(std::move(remaining[i]));
      }
    }
    remaining = std::move(next);
  }
  return report;
}

}  // namespace

DiagnosisReport diagnose_atpg(const DesignContext& design,
                              const FailureLog& log,
                              const DiagnosisOptions& options) {
  M3DFL_REQUIRE(design.netlist != nullptr && design.good != nullptr &&
                    design.mivs != nullptr && design.scan != nullptr,
                "incomplete design context");
  M3DFL_REQUIRE(design.graph != nullptr,
                "design context has no graph: build it with Design::context()");
  M3DFL_REQUIRE(!log.compacted || design.compactor != nullptr,
                "compacted log requires a compactor in the context");
  DiagnosisReport report;
  if (log.empty()) return report;
  M3DFL_REQUIRE(options.w_tfsp >= 0.0 && options.w_tpsf >= 0.0 &&
                    options.w_bit_tfsp >= 0.0,
                "diagnosis mismatch weights must be non-negative");
  const Netlist& nl = *design.netlist;
  LogMatcher matcher(design, log);
  FaultSimulator fsim(nl, *design.good, design.mivs);

  // ---- Effect-cause: suspect nets -----------------------------------------
  std::vector<FailingResponse> responses =
      collect_failing_responses(design, log);
  thin_uniform_stride(responses, options.max_traced_responses);
  const auto n_traced = static_cast<std::int32_t>(responses.size());
  const std::vector<std::int32_t> count = suspect_net_counts(
      design, responses, !options.include_stuck_at_candidates);

  std::vector<NetId> suspects;
  const auto near_threshold = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(
             std::ceil(options.near_fraction * n_traced)));
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (count[static_cast<std::size_t>(n)] >= near_threshold) {
      suspects.push_back(n);
    }
  }
  if (suspects.empty()) {
    // Multi-fault dies rarely share a common cone across all responses; the
    // standard remedy is iterative covering: diagnose the strongest
    // remaining fault, subtract the responses it explains, repeat.
    return diagnose_cover(design, matcher, options, responses, fsim);
  }

  // ---- Cause-effect: candidate enumeration and simulation -----------------
  const std::vector<Fault> candidates =
      enumerate_candidates(design, suspects, options);

  const std::vector<std::int32_t>& observed = matcher.observed();

  // The pattern lanes the score reads.  With w_tpsf == 0 the score uses
  // only tfsf, tfsp and bit_tfsp, which depend on the candidate's behaviour
  // at the observed failing patterns alone.  Under fail-memory truncation,
  // predicted fails before the last observed failing pattern also move the
  // candidate's truncation cutoff, so every earlier pattern is read too.
  // Predictions outside these lanes can only raise tpsf, which is filled in
  // below for the reported candidates.
  M3DFL_REQUIRE(observed.front() >= 0 &&
                    observed.back() < design.good->num_patterns(),
                "failure log names a pattern the design does not have");
  const bool all_lanes = options.w_tpsf != 0.0;
  std::vector<std::uint64_t> lanes(
      static_cast<std::size_t>(design.good->num_words()),
      all_lanes ? ~0ULL : 0);
  const auto read_lane = [&](std::int32_t p) {
    lanes[static_cast<std::size_t>(p / kWordBits)] |= 1ULL << (p % kWordBits);
  };
  if (!all_lanes && log.pattern_limit > 0) {
    for (std::int32_t p = 0; p <= observed.back(); ++p) read_lane(p);
  } else if (!all_lanes) {
    for (std::int32_t p : observed) read_lane(p);
  }

  std::vector<Candidate> scored;
  for (const Fault& f : candidates) {
    // A candidate silent in the scored lanes explains nothing: with
    // non-negative weights its score is <= 0 and it would be dropped below.
    const std::vector<Observation> raw = fsim.simulate(f, lanes);
    if (raw.empty()) continue;
    const LogMatcher::Match m = matcher.match(raw);

    Candidate c;
    c.fault = f;
    c.tfsf = m.tfsf;
    c.tfsp = static_cast<std::int32_t>(observed.size()) - c.tfsf;
    c.tpsf = m.patterns - c.tfsf;
    c.bit_tfsp = matcher.num_bits() - m.bits;
    c.score = static_cast<double>(c.tfsf) - options.w_tfsp * c.tfsp -
              options.w_tpsf * c.tpsf - options.w_bit_tfsp * c.bit_tfsp;
    if (c.score <= 0.0) continue;
    scored.push_back(c);
  }
  // No credible explanation from the one-shot intersection: static faults
  // corrupt the launch state, so some responses arise outside their
  // capture-cycle back-cones and poison the intersection.  The iterative
  // cover handles those response-by-response.
  bool have_perfect = false;
  for (const Candidate& c : scored) have_perfect |= c.perfect();
  if (scored.empty() ||
      (options.include_stuck_at_candidates && !have_perfect)) {
    return diagnose_cover(design, matcher, options, responses, fsim);
  }

  // Rank by pattern-level score (ranks_before).  Ties fall back to the
  // structural order, so the ground truth lands somewhere inside its
  // equivalence class, which is what gives diagnosis reports a non-trivial
  // first-hit index.
  std::vector<std::size_t> order(scored.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return ranks_before(scored[x], scored[y]);
  });
  std::vector<Candidate> ranked;
  ranked.reserve(scored.size());
  for (std::size_t i : order) ranked.push_back(scored[i]);
  scored = std::move(ranked);

  const double floor_score = scored.front().score * options.keep_ratio;
  for (const Candidate& c : scored) {
    if (c.score < floor_score) break;
    report.candidates.push_back(c);
    if (report.resolution() >= options.max_candidates) break;
  }
  // tpsf counts predicted fails at tester-pass patterns, most of which lie
  // outside the scored lanes: simulate the reported candidates in full.
  if (!all_lanes) {
    for (Candidate& c : report.candidates) {
      c.tpsf = matcher.match(fsim.simulate(c.fault)).patterns - c.tfsf;
    }
  }
  return report;
}

bool candidate_matches_fault(const DesignContext& design,
                             const Candidate& candidate, const Fault& truth) {
  if (truth.type == FaultType::kMivDelay) {
    if (candidate.fault.is_miv()) return candidate.fault.miv == truth.miv;
    const Miv& miv = design.mivs->miv(truth.miv);
    return design.netlist->pin_net(candidate.fault.pin) == miv.net;
  }
  if (candidate.fault.is_miv()) {
    const Miv& miv = design.mivs->miv(candidate.fault.miv);
    return design.netlist->pin_net(truth.pin) == miv.net;
  }
  return candidate.fault.pin == truth.pin;
}

int candidate_tier(const DesignContext& design, const Candidate& candidate) {
  if (candidate.fault.is_miv()) return kMivTier;
  return pin_tier(design, candidate.fault.pin);
}

bool candidate_on_miv(const DesignContext& design, const Candidate& candidate) {
  if (candidate.fault.is_miv()) return true;
  const NetId net = design.netlist->pin_net(candidate.fault.pin);
  return design.mivs->miv_of_net(net) != kNullMiv;
}

}  // namespace m3dfl
