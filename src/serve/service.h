// Concurrent diagnosis serving runtime (paper Sec. V-G / Fig. 9).
//
// The pretrained DiagnosisFramework is the reusable asset of the paper's
// deployment story: diagnosing a new failing die costs only back-trace +
// inference, never retraining.  DiagnosisService turns that observation into
// a long-lived engine: it loads a serialized framework once, registers any
// number of prepared designs, and answers diagnose(failure_log) requests
// end-to-end —
//
//   submit -> admission control (validation, breaker, load shedding)
//          -> bounded MPMC queue -> micro-batcher -> worker pool
//          -> [LRU cache: back-trace -> subgraph -> features -> normalized
//              adjacency -> ATPG base report]
//          -> three-model GNN inference -> pruning & reordering -> result
//
// Concurrency model: the framework and the registered designs are shared
// read-only; every request uses only per-request scratch state, so
// concurrent results are bitwise identical to the single-threaded path
// (tests/serve_test.cc asserts this).  The cache memoizes the deterministic
// per-log prefix, so repeated failure signatures (retests, systematic
// defects) cost only inference.  Concurrent requests for the same signature
// are coalesced (single-flight): one worker computes, the rest wait on its
// result, so a retest storm never multiplies back-trace/ATPG work across
// the pool.
//
// Fault tolerance: worker exceptions never cross the service boundary.
// Every request resolves to a DiagnosisResult carrying a serve::StatusCode
// (see serve/status.h).  Per-request deadlines are checked cooperatively at
// stage boundaries; kTransient failures retry with decorrelated-jitter
// exponential backoff (deterministic per request: the jitter stream is
// seeded from retry_seed ^ sequence); a per-design circuit breaker fails
// submissions fast while a design keeps failing; and when the GNN model is
// unavailable — corrupt stream at load, or a predict-time failure — the
// service can fall back to unpruned ATPG-only ranking, marking the result
// degraded instead of failing it.  serve/fault_injector.h threads
// deterministic chaos through every one of these seams under test.
#ifndef M3DFL_SERVE_SERVICE_H_
#define M3DFL_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/framework.h"
#include "serve/breaker.h"
#include "serve/cache.h"
#include "serve/fault_injector.h"
#include "serve/metrics.h"
#include "serve/request_queue.h"
#include "serve/status.h"
#include "serve/thread_pool.h"

namespace m3dfl::serve {

struct ServiceOptions {
  std::int32_t num_threads = 4;
  std::size_t queue_capacity = 256;
  // Micro-batch bound: a worker drains up to this many queued same-design
  // requests at once (design lookup and cache locality amortize).
  std::size_t max_batch = 8;
  // LRU entries across all designs; 0 disables caching.
  std::size_t cache_capacity = 128;
  // Options for the ATPG base diagnosis the GNN verdict refines.
  DiagnosisOptions diagnosis;

  // ---- fault-tolerance knobs ----
  // Default per-request deadline in milliseconds; 0 = no deadline.  A
  // request whose deadline passes fails with kDeadlineExceeded at the next
  // stage boundary instead of occupying a worker to completion.
  double default_deadline_ms = 0.0;
  // Retry budget for kTransient failures (0 = fail on first attempt).
  std::int32_t max_retries = 2;
  // Decorrelated-jitter exponential backoff between retries:
  //   sleep_{i+1} = min(cap, uniform(base, 3 * sleep_i)).
  double backoff_base_ms = 1.0;
  double backoff_cap_ms = 100.0;
  // Seed for the per-request jitter streams (stream i = seed ^ sequence),
  // so retry timing is reproducible under test.
  std::uint64_t retry_seed = 0x5EEDu;
  // Admission control: when > 0, submit() sheds load with kOverloaded once
  // the queue holds >= shed_watermark requests (or is full), instead of
  // blocking the caller.  0 keeps the legacy blocking backpressure.
  std::size_t shed_watermark = 0;
  // Per-design circuit breaker (see serve/breaker.h); threshold 0 disables.
  BreakerOptions breaker;
  // When true: a framework stream that is missing/corrupt at construction,
  // or a model failure at predict time, degrades the affected requests to
  // unpruned ATPG-only candidate ranking (result.degraded = true) instead
  // of failing them.
  bool degraded_fallback = false;
  // When true, register_design() runs the m3dfl::lint design passes and
  // submit() rejects every request against a design that failed them with
  // kLintRejected (the design can never produce a correct diagnosis).
  // Lint runs once per registration, never per request.
  bool lint_admission = true;
  // When true, workers idle until resume(); lets tests stage a queue
  // deterministically (admission control, abort-shutdown).
  bool start_paused = false;
  // Model generation this service instance serves, stamped into every
  // result's `model_generation`.  The fleet layer (serve/fleet.h) builds one
  // service per registry generation, so a result's tag proves which artifact
  // produced it — the reload-under-fire chaos test keys on this.
  std::uint64_t model_generation = 0;
  // When non-null, the service records into this externally owned Metrics
  // instead of its own.  The fleet layer points every hot-reload epoch of a
  // tenant's shard at one per-tenant instance, so counters and latency
  // histograms accumulate across reloads.  Must outlive the service.
  Metrics* external_metrics = nullptr;
  // Deterministic chaos for tests; null (production) costs one pointer
  // check per seam.
  std::shared_ptr<FaultInjector> fault_injector;
};

// Per-submit overrides.
struct SubmitOptions {
  // Milliseconds from submission; 0 = use ServiceOptions::default_deadline_ms.
  double deadline_ms = 0.0;
  // Streaming finalize (serve/session.h): the session already maintained
  // this back-trace incrementally, byte-identical to what
  // backtrace_with_support would compute over the submitted log — the
  // worker reuses it instead of recomputing, and the cache entry it fills
  // is exactly what a batch request for the same log would produce.
  std::shared_ptr<const BacktraceResult> precomputed_backtrace;
};

// Everything the service produces for one failure log.
struct DiagnosisResult {
  std::uint64_t sequence = 0;        // submission order, from 0
  std::string design;                // registered design name
  // ServiceOptions::model_generation of the service that produced this
  // result (0 outside fleet serving).
  std::uint64_t model_generation = 0;
  StatusCode status = StatusCode::kOk;
  std::string status_message;        // empty on kOk
  bool degraded = false;             // ATPG-only fallback (status == kOk)
  std::int32_t attempts = 1;         // attempts consumed (retries + 1)
  // Calibrated end-to-end confidence (diag/report.h): back-trace support ×
  // GNN softmax margin, with the noisy_log / low_confidence flags callers
  // use to distinguish clean localization from best-effort-under-suspect-
  // data.  Default-initialized for failed or service-wide-degraded requests
  // (no back-trace ran there).
  DiagnosisConfidence confidence;
  FrameworkPrediction prediction;
  DiagnosisReport report;            // refined (pruned/reordered) report
  std::vector<Candidate> pruned;     // for the backup dictionary
  bool cache_hit = false;
  bool ok() const { return status == StatusCode::kOk; }
  // Per-request stage timings (seconds); informational, not deterministic.
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
};

// Next decorrelated-jitter backoff: min(cap, uniform(base, 3 * prev)), all
// in milliseconds.  Exposed for tests; deterministic per Rng stream.
double next_backoff_ms(Rng& rng, double base_ms, double cap_ms,
                       double prev_ms);

enum class ShutdownMode {
  kDrain,  // finish everything already submitted, then stop
  kAbort,  // fail queued (unstarted) requests with kShuttingDown, then stop
};

class SessionManager;  // serve/session.h: streaming session mode

class DiagnosisService {
 public:
  using Clock = std::chrono::steady_clock;
  // Takes ownership of an already trained framework.
  explicit DiagnosisService(DiagnosisFramework framework,
                            const ServiceOptions& options = {});
  // Shares an already trained framework (fleet serving: many shard services
  // over registry-resident models; the registry entry must stay alive via
  // this shared_ptr, which the service holds until destruction).
  explicit DiagnosisService(std::shared_ptr<const DiagnosisFramework> framework,
                            const ServiceOptions& options = {});
  // Loads the framework from a serialized model stream (the asset written
  // by DiagnosisFramework::save / `m3dfl_tool train`).  Throws m3dfl::Error
  // on a malformed stream — unless options.degraded_fallback is set, in
  // which case the service starts in degraded ATPG-only mode instead.
  explicit DiagnosisService(std::istream& model_stream,
                            const ServiceOptions& options = {});
  ~DiagnosisService();

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  // Registers a design for serving; returns its design id.  The service
  // shares ownership, so the caller may drop its reference.  With
  // options.lint_admission the design is statically analysed here (once);
  // a design with lint errors stays registered but every submit() against
  // it fails fast with kLintRejected.
  std::int32_t register_design(std::shared_ptr<const Design> design);
  // Lint-admission verdict for a registered design: empty when the design
  // passed (or lint_admission is off), else the stored rejection message.
  std::string design_lint_error(std::int32_t design_id) const;
  std::int32_t num_designs() const;
  const Design& design(std::int32_t design_id) const;

  // Enqueues one failure log; the future resolves when a worker finishes
  // (or immediately, for requests rejected at admission: invalid input,
  // open breaker, shed load).  The future never carries an exception — all
  // failures surface as DiagnosisResult::status.  Throws m3dfl::Error only
  // for an unknown design id or submission after shutdown().
  std::future<DiagnosisResult> submit(std::int32_t design_id, FailureLog log,
                                      const SubmitOptions& submit_options = {});

  // Convenience: submit + wait.
  DiagnosisResult diagnose(std::int32_t design_id, FailureLog log,
                           const SubmitOptions& submit_options = {});

  // Releases workers started with options.start_paused; idempotent.
  void resume();

  // Blocks until every submitted request has completed or failed.
  void drain();
  // Requests submitted but not yet resolved (the fleet quota gate and epoch
  // reaper poll this; non-blocking).
  std::uint64_t pending() const;
  // kDrain: drains, closes the queue, joins the workers.  kAbort: fails
  // every queued-but-unstarted request with kShuttingDown deterministically,
  // then closes and joins.  Idempotent; further submit() calls throw.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  // True when the service runs without a usable GNN model (construction
  // fell back under degraded_fallback); every result is ATPG-only.
  bool degraded() const { return degraded_; }

  const Metrics& metrics() const { return *metrics_; }
  const DiagnosisCache& cache() const { return cache_; }
  const DiagnosisFramework& framework() const { return *framework_; }
  const ServiceOptions& options() const { return options_; }
  // Breaker state for a registered design (for tests/introspection).
  CircuitBreaker::State breaker_state(std::int32_t design_id) const;

 private:
  // The streaming session layer records its metrics next to the request
  // counters and reuses the admission helpers.
  friend class SessionManager;

  struct Request {
    std::uint64_t sequence = 0;
    std::int32_t design_id = 0;
    FailureLog log;
    Clock::time_point enqueued;
    Clock::time_point deadline = Clock::time_point::max();
    // This request is the circuit breaker's half-open probe: its terminal
    // status must always resolve the probe (success/failure/abandon).
    bool probe = false;
    // See SubmitOptions::precomputed_backtrace.
    std::shared_ptr<const BacktraceResult> precomputed_backtrace;
    std::promise<DiagnosisResult> promise;
  };

  struct LoadedFramework {
    std::shared_ptr<const DiagnosisFramework> framework;
    bool degraded = false;
    std::string why;  // what went wrong when degraded
  };

  DiagnosisService(LoadedFramework loaded, const ServiceOptions& options);
  // Loads from a stream, degrading instead of throwing when
  // options.degraded_fallback is set.
  static LoadedFramework load_framework(std::istream& is,
                                        const ServiceOptions& options);

  void start_workers();
  void worker_loop();
  void process(Request& request);
  // One diagnosis attempt; classifies every failure into a StatusCode.
  // Sets `breaker_exempt` when a failure says nothing about this design's
  // health (a coalesced leader's failure, already counted — or retried —
  // by the leader's own request) and must not feed the circuit breaker.
  StatusCode attempt_once(Request& request, const Design& design,
                          const DesignContext& ctx, DiagnosisResult& result,
                          std::string& message, bool& breaker_exempt);
  // Fulfills the promise with a terminal status and records metrics.  Does
  // NOT touch drain accounting — the caller owns that.
  void complete(Request& request, DiagnosisResult&& result, StatusCode status,
                std::string message);
  // Admission-path rejection: completes the request immediately and counts
  // it as finished for drain().
  std::future<DiagnosisResult> reject(Request&& request,
                                      std::future<DiagnosisResult> future,
                                      const Design& design, StatusCode status,
                                      std::string message);
  std::shared_ptr<const Design> design_ref(std::int32_t design_id) const;
  CircuitBreaker* breaker_for(std::int32_t design_id) const;

  const ServiceOptions options_;
  std::shared_ptr<const DiagnosisFramework> framework_;
  bool degraded_ = false;
  Metrics own_metrics_;
  Metrics* metrics_;  // &own_metrics_ or options.external_metrics
  DiagnosisCache cache_;
  RequestQueue<Request> queue_;
  WorkerPool pool_;

  mutable std::mutex designs_mu_;
  std::vector<std::shared_ptr<const Design>> designs_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  // Per design: empty = admitted; else the lint rejection message submit()
  // fails with (computed once at register_design).
  std::vector<std::string> lint_errors_;

  // Single-flight: keys a worker is currently computing.  A concurrent miss
  // on the same key waits on the leader's future instead of recomputing.
  std::mutex inflight_mu_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const DiagnosisPrefix>>>
      inflight_;

  // start_paused gate.
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool paused_ = false;

  // Abort-shutdown flag: workers fail (rather than process) queued requests.
  std::atomic<bool> abort_{false};

  // drain() bookkeeping: submitted vs finished (completed or failed).
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::uint64_t submitted_ = 0;
  std::uint64_t finished_ = 0;
  bool shut_down_ = false;
};

// Boundary validation: runs the m3dfl::lint failure-log pass over `log`
// against the design's pattern count, scan architecture, compactor, and
// primary outputs — including the observation-point existence check
// (log-obs-missing) that the pre-lint validator missed.  Returns an empty
// string when no error-severity diagnostic fires, else the first error's
// message (the service maps it to kInvalidInput).
std::string validate_failure_log(const Design& design, const FailureLog& log);

// The verdict lines that result_to_string and `m3dfl_tool diagnose` print:
// GNN verdict and calibrated confidence (a null `prediction`: the degraded
// marker), then a noisy-log line when responses were quarantined.
void write_verdict(std::ostream& os, const FrameworkPrediction* prediction,
                   const DiagnosisConfidence& confidence);

// Renders a result the way `m3dfl_tool diagnose` prints one: the verdict
// lines (write_verdict) plus the refined candidate report; failed requests
// render their status instead, degraded requests an ATPG-only marker.
// Deterministic (timings and cache state are excluded), so byte-comparing
// rendered results is how the tests pin concurrent == serial behaviour.
std::string result_to_string(const Netlist& netlist,
                             const DiagnosisResult& result);

}  // namespace m3dfl::serve

#endif  // M3DFL_SERVE_SERVICE_H_
