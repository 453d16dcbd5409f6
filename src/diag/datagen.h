// Diagnosis dataset generation.
//
// Reproduces the paper's data-generation flow (Fig. 4): faults are injected
// one sample at a time — a single TDF, a set of 2-5 same-tier TDFs (the
// systematic-defect study of Sec. VII-A), or an MIV delay fault — the TDF
// pattern set is fault-simulated, and the erroneous responses are collected
// into a failure log.  Undetected injections are resampled so every sample
// carries a non-empty log, as on a real tester.
#ifndef M3DFL_DIAG_DATAGEN_H_
#define M3DFL_DIAG_DATAGEN_H_

#include <cstdint>
#include <vector>

#include "diag/failure_log.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "sim/fault.h"
#include "sim/fault_sim.h"
#include "sim/logic.h"
#include "sim/simulator.h"

namespace m3dfl {

class HeteroGraph;

// Non-owning view over one fully prepared design (netlist + M3D structure +
// DfT + patterns + good-machine results).  Owned by core::Design; every
// diagnosis-layer function operates through this view.
struct DesignContext {
  const Netlist* netlist = nullptr;
  const TierAssignment* tiers = nullptr;
  const MivMap* mivs = nullptr;
  const ScanChains* scan = nullptr;
  const XorCompactor* compactor = nullptr;  // used only in compacted mode
  const PatternSet* patterns = nullptr;
  const LocSimulator* good = nullptr;       // run over *patterns
  // Diagnosis graph of the netlist; its cone index drives every back-trace.
  const HeteroGraph* graph = nullptr;
  // Tester fail-memory depth for this design's test program (failing
  // patterns per die; 0 = unlimited).
  std::int32_t fail_memory_patterns = 0;
};

// Tier label for samples whose defect is an MIV (MIVs belong to no tier).
inline constexpr int kMivTier = -1;

// One labeled diagnosis sample: the tester view plus the ground truth.
struct Sample {
  FailureLog log;
  std::vector<Fault> faults;        // injected fault(s)
  int fault_tier = 0;               // common tier of the TDFs, or kMivTier
  std::vector<MivId> faulty_mivs;   // non-empty for MIV-fault samples
};

struct DataGenOptions {
  std::int32_t num_samples = 100;
  std::uint64_t seed = 1;
  // TDFs injected per sample (uniform in [min,max]); multi-fault samples
  // place all faults in one tier (systematic-defect model).
  std::int32_t min_faults = 1;
  std::int32_t max_faults = 1;
  // Probability that a sample is an MIV delay fault instead of gate TDFs.
  double miv_fault_prob = 0.0;
  // Probability that an injected pin fault is a static stuck-at instead of a
  // TDF (the library's static-diagnosis extension; 0 reproduces the paper).
  double stuck_at_prob = 0.0;
  // Compact the scan responses (uses the context's compactor).
  bool compacted = false;
  // Tester fail-memory depth in failing patterns; 0 = unlimited, -1 = use
  // the design context's configured depth.  See make_failure_log().
  std::int32_t max_failing_patterns = -1;
  // Resampling budget per sample before giving up (undetectable faults).
  std::int32_t max_attempts = 64;
};

// Generates labeled samples by fault injection.
std::vector<Sample> generate_samples(const DesignContext& design,
                                     const DataGenOptions& options);

// Tier of the gate owning `pin`.
int pin_tier(const DesignContext& design, PinId pin);

}  // namespace m3dfl

#endif  // M3DFL_DIAG_DATAGEN_H_
