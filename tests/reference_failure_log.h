// Map-and-set tester model: the test oracle for diag/failure_log.
//
// The tester model as it was first written: XOR parity counted per
// (pattern, channel, position) in a std::map over the whole observation
// list, then the fail-memory cut applied to the finished log through a
// std::set of its failing patterns.  The library's TesterLogWalker does
// both per pattern in one pass; the tests check it against this copy.
#ifndef M3DFL_TESTS_REFERENCE_FAILURE_LOG_H_
#define M3DFL_TESTS_REFERENCE_FAILURE_LOG_H_

#include <cstdint>
#include <vector>

#include "dft/compactor.h"
#include "dft/scan.h"
#include "diag/failure_log.h"
#include "sim/fault_sim.h"

namespace m3dfl::testing {

// Builds a failure log from raw fault-simulation observations (any order).
// When `compactor` is non-null the scan part is passed through XOR
// compaction (odd parity over the aliased cells fails); otherwise bypass
// mode.
FailureLog reference_make_failure_log(const std::vector<Observation>& raw,
                                      const ScanChains& chains,
                                      const XorCompactor* compactor);

// Keeps only the entries of the first `max_failing_patterns` distinct
// failing patterns (stop-on-Nth-fail) and records the limit.  No-op when
// max_failing_patterns <= 0.
FailureLog reference_truncate_failure_log(const FailureLog& log,
                                          std::int32_t max_failing_patterns);

}  // namespace m3dfl::testing

#endif  // M3DFL_TESTS_REFERENCE_FAILURE_LOG_H_
