// ATPG-style logic diagnosis engine.
//
// The stand-in for the commercial fault-diagnosis tool the paper
// post-processes (DESIGN.md §2): a classic effect-cause + cause-effect flow.
//
//  1. Effect-cause: for every erroneous tester response, take the nets of
//     the failing observation points' fan-in cones — read from the design
//     graph's net cones (HeteroGraph::net_cone, via DesignContext::graph),
//     the distinct nets of the same cones the back-trace walks, with the
//     same response collector — keeping nets that transition under the
//     failing pattern; intersect the per-response suspect sets.  When the
//     intersection dies (multi-fault dies), the engine switches to
//     iterative covering: diagnose the strongest remaining fault, subtract
//     the responses it explains, repeat.
//  2. Cause-effect: enumerate candidate TDFs (stem + branch pins, both
//     transition directions) and MIV delay faults on the suspect nets,
//     fault-simulate each candidate, and score it by how well its predicted
//     failure log matches the observed one (TFSF/TFSP/TPSF counts).  The
//     predicted log is the candidate's sorted observation list seen through
//     the tester model (TesterLogWalker, diag/failure_log.h): XOR parity per
//     pattern for a compacted log, then the log's fail-memory cut.  One
//     merge walk of it against the log's fails (sorted once per log) yields
//     every count, in both modes; no FailureLog is built per candidate.
//     Each candidate is simulated only on the pattern lanes the score reads
//     (FaultSimulator::simulate with lane masks): the observed failing
//     patterns, or every pattern up to the last of them when the log is
//     fail-memory truncated (predicted fails there move the truncation
//     cutoff), or every pattern when w_tpsf != 0.  This is exact because
//     lanes are independent patterns and the weights are non-negative: a
//     candidate silent in the scored lanes scores <= 0 either way.
//  3. Report: rank by score and keep the near-best candidates.  Only then
//     is tpsf (read by no score when w_tpsf == 0) filled in, by one
//     all-pattern simulation per reported candidate and the same match.
//     The iterative cover reads each candidate's predicted failing patterns
//     through the same match.
//
// Resolution/accuracy/first-hit-index of these reports define the "ATPG
// diagnosis report" columns of paper Tables V and VII.
#ifndef M3DFL_DIAG_ATPG_DIAGNOSIS_H_
#define M3DFL_DIAG_ATPG_DIAGNOSIS_H_

#include <cstdint>
#include <vector>

#include "diag/datagen.h"
#include "diag/failure_log.h"
#include "sim/fault.h"

namespace m3dfl {

// One ranked diagnosis candidate.  Match counts are *pattern-granular*, the
// resolution at which delay-fault diagnosis actually compares behaviours: a
// candidate explains a failing pattern when it predicts any failure there.
// (Bit-exact matching over-trusts the gross-delay model — on silicon, which
// cells capture a marginal transition varies with timing — so tools rank at
// pattern granularity, and so do we.)  perfect() means every observed
// failing pattern is explained; tpsf is recorded but untrusted (see
// DiagnosisOptions::w_tpsf).
struct Candidate {
  Fault fault;
  double score = 0.0;
  std::int32_t tfsf = 0;  // tester-fail, simulation-fail (explained patterns)
  std::int32_t tfsp = 0;  // tester-fail, simulation-pass (unexplained)
  std::int32_t tpsf = 0;  // tester-pass, simulation-fail (mispredicted)
  // Observed failing *bits* the candidate does not predict.  A failing bit
  // is hard tester evidence, so unlike tpsf this secondary count is
  // trustworthy; it separates sibling-branch and upstream candidates from
  // true equivalents (e.g. faults along one fan-out-free chain, which match
  // bit-for-bit and remain indistinguishable).
  std::int32_t bit_tfsp = 0;
  bool perfect() const { return tfsp == 0 && bit_tfsp == 0; }
};

struct DiagnosisReport {
  std::vector<Candidate> candidates;  // best first
  std::int32_t resolution() const {
    return static_cast<std::int32_t>(candidates.size());
  }
};

struct DiagnosisOptions {
  // Candidates scoring below keep_ratio * best_score are dropped.
  double keep_ratio = 0.60;
  std::int32_t max_candidates = 64;
  // Mismatch weights in the score: tfsf - w_tfsp*tfsp - w_tpsf*tpsf.  All
  // weights must be non-negative (lane-restricted scoring relies on it).
  // Unexplained tester failures (tfsp) strongly discredit a candidate; a
  // candidate predicting failures the tester did not see (tpsf) is barely
  // penalized, because for *delay* faults gross-delay simulation
  // over-predicts — whether a marginal transition actually misses the
  // capture edge depends on path slack the tool cannot see.  This is what
  // makes behaviourally indistinguishable candidate classes large on
  // high-fan-out designs.
  double w_tfsp = 1.0;
  double w_tpsf = 0.0;
  // Weight of unexplained failing bits (see Candidate::bit_tfsp).
  double w_bit_tfsp = 0.5;
  // Suspect nets must appear in at least this fraction of the traced
  // responses.  1.0 would be the strict intersection of the effect-cause
  // pass; commercial tools keep near-consistent suspects too (noise,
  // timing marginality), which is what inflates their reports.
  double near_fraction = 0.85;
  // At most this many failing responses drive suspect extraction (the
  // intersection converges after a handful; a cap bounds runtime).
  std::int32_t max_traced_responses = 60;
  // Also enumerate static stuck-at candidates on the suspect nets (the
  // static-diagnosis extension; off for the paper's TDF-only flow).
  bool include_stuck_at_candidates = false;
};

// Runs the full diagnosis flow on one failure log.  `design.graph` must be
// set (Design::context() sets it).
DiagnosisReport diagnose_atpg(const DesignContext& design,
                              const FailureLog& log,
                              const DiagnosisOptions& options = {});

// True if the candidate names the same defect location as the injected
// fault: same pin for TDFs (either transition direction); for MIV defects,
// the MIV itself or any pin on the MIV's net.
bool candidate_matches_fault(const DesignContext& design,
                             const Candidate& candidate, const Fault& truth);

// Tier of a candidate's location; kMivTier for MIV candidates.
int candidate_tier(const DesignContext& design, const Candidate& candidate);

// True if the candidate's location is electrically tied to an MIV (it is an
// MIV fault or sits on a tier-crossing net).
bool candidate_on_miv(const DesignContext& design, const Candidate& candidate);

}  // namespace m3dfl

#endif  // M3DFL_DIAG_ATPG_DIAGNOSIS_H_
