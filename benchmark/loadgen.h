// Load generation against a DiagnosisService from one caller thread.
//
// Closed loop: a fixed number of requests stay in flight; a finished one is
// replaced at once, so a slower service receives less load (callers that
// wait for their reports).  Open loop: one request every 1/rate seconds
// regardless of completions (dies arriving from the tester floor); each
// request is timed from its due time, so a stall also charges the requests
// queued behind it, and the generator's own lateness is recorded.
#ifndef M3DFL_BENCHMARK_LOADGEN_H_
#define M3DFL_BENCHMARK_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "serve/service.h"

namespace m3dfl::benchmark {

// One kOk request completed inside a phase's measurement window.
struct Completion {
  double latency_s = 0.0;    // from due time (open) or submission (closed)
  double queue_s = 0.0;      // DiagnosisResult::queue_seconds
  double busy_s = 0.0;       // worker time: total_seconds - queue_seconds
  double admission_s = 0.0;  // submit() on the caller thread
  double lag_s = 0.0;        // generator lateness (see LoadGenerator)
  double done_s = 0.0;       // closed loop: seen done, s into the phase
  bool cache_hit = false;
};

struct PhaseResult {
  double wall_s = 0.0;  // measurement window
  std::vector<Completion> completions;
  // Service micro-batching over the phase.
  std::int64_t batches = 0;
  std::int64_t batched_requests = 0;
};

// Completions per second in each part of a closed-loop phase cut into equal
// parts of about `part_s` seconds (at least one part; none for an empty
// window).
std::vector<double> part_rates(const PhaseResult& closed, double part_s);

// The requests of the quietest parts of open-loop phases: each phase is cut
// into parts of `per_part` consecutive requests (a phase's last part may be
// shorter), the parts are ranked by median latency, and the quietest are
// pooled until they hold a quarter of all requests and at least
// `min_requests`, or all of them.
std::vector<Completion> quiet_requests(const std::vector<PhaseResult>& open,
                                       std::size_t per_part,
                                       std::size_t min_requests);

class LoadGenerator {
 public:
  using Clock = std::chrono::steady_clock;
  // Next input index to submit, or -1 when the inputs are exhausted.
  using NextFn = std::function<std::int32_t()>;
  // Receives every result, in or out of the window, on the caller thread.
  using ResultFn =
      std::function<void(std::int32_t input, serve::DiagnosisResult&&)>;

  // `design_of[i]` and `logs[i]` describe input i; both must outlive the
  // generator.
  LoadGenerator(serve::DiagnosisService& service,
                const std::vector<std::int32_t>& design_of,
                const std::vector<const FailureLog*>& logs,
                ResultFn on_result);

  // Keeps `depth` requests in flight until `until`, or until the inputs run
  // out; requests still in flight then are collected but not measured.  The
  // window ends at `until` or at the last completion, whichever is first.
  // Lag is the time from a request's completion to the refill's submission.
  PhaseResult closed_loop(const NextFn& next, std::int32_t depth,
                          Clock::time_point until);

  // Submits one request every 1/rate seconds for `seconds`, then waits for
  // all of them.  Lag is the time from a request's due time to its
  // submission.
  PhaseResult open_loop(const NextFn& next, double rate, double seconds);

 private:
  std::future<serve::DiagnosisResult> submit(std::int32_t input,
                                             double& admission_s);
  void count_batches(PhaseResult& phase, std::int64_t batches0,
                     std::int64_t batched0) const;

  serve::DiagnosisService& service_;
  const std::vector<std::int32_t>& design_of_;
  const std::vector<const FailureLog*>& logs_;
  ResultFn on_result_;
};

}  // namespace m3dfl::benchmark

#endif  // M3DFL_BENCHMARK_LOADGEN_H_
