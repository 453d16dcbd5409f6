#include "serve/service.h"

#include <algorithm>
#include <istream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/pipeline.h"
#include "diag/report.h"
#include "graph/backtrace.h"
#include "lint/lint.h"

namespace m3dfl::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool deadline_passed(Clock::time_point deadline) {
  return deadline != Clock::time_point::max() && Clock::now() > deadline;
}

}  // namespace

double next_backoff_ms(Rng& rng, double base_ms, double cap_ms,
                       double prev_ms) {
  const double hi = std::max(base_ms, 3.0 * prev_ms);
  return std::min(cap_ms, rng.next_double(base_ms, hi));
}

std::string validate_failure_log(const Design& design, const FailureLog& log) {
  // Thin wrapper over the lint engine's failure-log pass (lint/checks.h).
  // Only that one pass runs — this sits on the per-request path, where the
  // design-level passes (graph rebuild etc.) would be prohibitive; those run
  // once at register_design() instead.
  lint::Subject subject;
  subject.netlist = &design.netlist();
  subject.scan = &design.scan();
  subject.compactor = &design.compactor();
  subject.log = &log;
  subject.num_patterns = design.patterns().num_patterns;
  lint::Report report;
  lint::run_failure_log_checks(subject, report);
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.severity == lint::Severity::kError) return d.message;
  }
  return std::string();
}

DiagnosisService::LoadedFramework DiagnosisService::load_framework(
    std::istream& is, const ServiceOptions& options) {
  LoadedFramework loaded;
  try {
    if (options.fault_injector != nullptr) {
      maybe_throw(*options.fault_injector, Seam::kFrameworkLoad,
                  "injected framework-load fault");
    }
    auto framework = std::make_shared<DiagnosisFramework>();
    framework->load(is);
    loaded.framework = std::move(framework);
  } catch (const std::exception& e) {
    if (!options.degraded_fallback) throw;
    loaded.degraded = true;
    loaded.why = e.what();
    loaded.framework = std::make_shared<DiagnosisFramework>();
  }
  return loaded;
}

DiagnosisService::DiagnosisService(DiagnosisFramework framework,
                                   const ServiceOptions& options)
    : DiagnosisService(
          LoadedFramework{
              std::make_shared<const DiagnosisFramework>(std::move(framework)),
              false,
              {}},
          options) {}

DiagnosisService::DiagnosisService(
    std::shared_ptr<const DiagnosisFramework> framework,
    const ServiceOptions& options)
    : DiagnosisService(LoadedFramework{std::move(framework), false, {}},
                       options) {}

DiagnosisService::DiagnosisService(std::istream& model_stream,
                                   const ServiceOptions& options)
    : DiagnosisService(load_framework(model_stream, options), options) {}

DiagnosisService::DiagnosisService(LoadedFramework loaded,
                                   const ServiceOptions& options)
    : options_(options),
      framework_(std::move(loaded.framework)),
      degraded_(loaded.degraded),
      metrics_(options.external_metrics != nullptr ? options.external_metrics
                                                   : &own_metrics_),
      cache_(options.cache_capacity, metrics_),
      queue_(options.queue_capacity),
      paused_(options.start_paused) {
  M3DFL_REQUIRE(framework_ != nullptr,
                "diagnosis service needs a non-null framework");
  M3DFL_REQUIRE(degraded_ || framework_->trained(),
                "diagnosis service needs a trained framework");
  M3DFL_REQUIRE(options_.num_threads > 0,
                "diagnosis service needs at least one worker thread");
  M3DFL_REQUIRE(options_.max_batch > 0, "max_batch must be positive");
  M3DFL_REQUIRE(options_.max_retries >= 0, "max_retries must be >= 0");
  M3DFL_REQUIRE(options_.shed_watermark <= options_.queue_capacity,
                "shed_watermark cannot exceed queue_capacity");
  start_workers();
}

DiagnosisService::~DiagnosisService() { shutdown(); }

void DiagnosisService::start_workers() {
  pool_.start(static_cast<std::size_t>(options_.num_threads),
              [this](std::size_t) { worker_loop(); });
}

void DiagnosisService::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

std::int32_t DiagnosisService::register_design(
    std::shared_ptr<const Design> design) {
  M3DFL_REQUIRE(design != nullptr, "cannot register a null design");
  // Static analysis runs here, outside designs_mu_ and once per design —
  // never on the request path.
  std::string lint_error;
  if (options_.lint_admission) {
    const lint::Report report = lint::lint_design(*design);
    if (report.has_errors()) {
      const lint::Diagnostic* first = nullptr;
      for (const lint::Diagnostic& d : report.diagnostics()) {
        if (d.severity == lint::Severity::kError) {
          first = &d;
          break;
        }
      }
      lint_error = "design '" + design->name() + "' failed lint (" +
                   report.summary() + "); first: " + first->to_string();
    }
  }
  std::lock_guard<std::mutex> lock(designs_mu_);
  designs_.push_back(std::move(design));
  breakers_.push_back(std::make_unique<CircuitBreaker>(options_.breaker));
  lint_errors_.push_back(std::move(lint_error));
  return static_cast<std::int32_t>(designs_.size()) - 1;
}

std::string DiagnosisService::design_lint_error(std::int32_t design_id) const {
  std::lock_guard<std::mutex> lock(designs_mu_);
  M3DFL_REQUIRE(design_id >= 0 &&
                    design_id < static_cast<std::int32_t>(lint_errors_.size()),
                "unknown design id " + std::to_string(design_id));
  return lint_errors_[static_cast<std::size_t>(design_id)];
}

std::int32_t DiagnosisService::num_designs() const {
  std::lock_guard<std::mutex> lock(designs_mu_);
  return static_cast<std::int32_t>(designs_.size());
}

const Design& DiagnosisService::design(std::int32_t design_id) const {
  return *design_ref(design_id);
}

std::shared_ptr<const Design> DiagnosisService::design_ref(
    std::int32_t design_id) const {
  std::lock_guard<std::mutex> lock(designs_mu_);
  M3DFL_REQUIRE(design_id >= 0 &&
                    design_id < static_cast<std::int32_t>(designs_.size()),
                "unknown design id " + std::to_string(design_id));
  return designs_[static_cast<std::size_t>(design_id)];
}

CircuitBreaker* DiagnosisService::breaker_for(std::int32_t design_id) const {
  std::lock_guard<std::mutex> lock(designs_mu_);
  M3DFL_REQUIRE(design_id >= 0 &&
                    design_id < static_cast<std::int32_t>(breakers_.size()),
                "unknown design id " + std::to_string(design_id));
  return breakers_[static_cast<std::size_t>(design_id)].get();
}

CircuitBreaker::State DiagnosisService::breaker_state(
    std::int32_t design_id) const {
  return breaker_for(design_id)->state();
}

std::future<DiagnosisResult> DiagnosisService::reject(
    Request&& request, std::future<DiagnosisResult> future,
    const Design& design, StatusCode status, std::string message) {
  DiagnosisResult result;
  result.sequence = request.sequence;
  result.design = design.name();
  complete(request, std::move(result), status, std::move(message));
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++finished_;
  }
  drain_cv_.notify_all();
  return future;
}

std::future<DiagnosisResult> DiagnosisService::submit(
    std::int32_t design_id, FailureLog log,
    const SubmitOptions& submit_options) {
  const std::shared_ptr<const Design> design = design_ref(design_id);
  Request request;
  request.design_id = design_id;
  request.log = std::move(log);
  request.precomputed_backtrace = submit_options.precomputed_backtrace;
  request.enqueued = Clock::now();
  const double deadline_ms = submit_options.deadline_ms > 0.0
                                 ? submit_options.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    request.deadline =
        request.enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    M3DFL_REQUIRE(!shut_down_, "diagnosis service is shut down");
    request.sequence = submitted_++;
  }
  metrics_->requests_submitted.fetch_add(1, std::memory_order_relaxed);
  std::future<DiagnosisResult> future = request.promise.get_future();

  // Admission control.  Everything rejected here resolves immediately with
  // a status — the caller's future never blocks on a request the service
  // has already decided not to run.  The design-lint gate comes first: a
  // design that failed static analysis can never serve a correct diagnosis,
  // so no per-log validation result could rescue the request.
  FaultInjector* injector = options_.fault_injector.get();
  std::string lint_error = design_lint_error(design_id);
  if (lint_error.empty() && injector != nullptr &&
      injector->should_fail(Seam::kAdmissionLint)) {
    lint_error = "injected lint-admission fault for design '" +
                 design->name() + "'";
  }
  if (!lint_error.empty()) {
    metrics_->lint_rejections.fetch_add(1, std::memory_order_relaxed);
    return reject(std::move(request), std::move(future), *design,
                  StatusCode::kLintRejected, std::move(lint_error));
  }
  const std::string invalid = validate_failure_log(*design, request.log);
  if (!invalid.empty()) {
    return reject(std::move(request), std::move(future), *design,
                  StatusCode::kInvalidInput, invalid);
  }
  CircuitBreaker* breaker = breaker_for(design_id);
  switch (breaker->admit(request.enqueued)) {
    case CircuitBreaker::Decision::kReject:
      metrics_->breaker_rejections.fetch_add(1, std::memory_order_relaxed);
      return reject(std::move(request), std::move(future), *design,
                    StatusCode::kOverloaded,
                    "circuit breaker open for design '" + design->name() +
                        "'");
    case CircuitBreaker::Decision::kProbe:
      // This request now owns the half-open probe: every exit from here on
      // — including the load-shedding rejections below — must resolve it,
      // or the breaker would reject this design's submissions until the
      // probe expires.
      request.probe = true;
      break;
    case CircuitBreaker::Decision::kAllow:
      break;
  }
  const auto shed = [&](std::string message) {
    metrics_->load_shed.fetch_add(1, std::memory_order_relaxed);
    if (request.probe) breaker->abandon_probe(Clock::now());
    return reject(std::move(request), std::move(future), *design,
                  StatusCode::kOverloaded, std::move(message));
  };
  if (injector != nullptr && injector->should_fail(Seam::kQueueAdmit)) {
    return shed("injected queue admission fault");
  }
  const bool probe = request.probe;  // `request` may be moved-from below
  if (options_.shed_watermark > 0) {
    // Load shedding: a queue at the high-watermark means the service is
    // already saturated; failing fast beats stalling the caller.
    if (queue_.size() >= options_.shed_watermark) {
      return shed("request queue above shed watermark (" +
                  std::to_string(options_.shed_watermark) + ")");
    }
    switch (queue_.try_push(request)) {
      case RequestQueue<Request>::TryPush::kAccepted:
        return future;
      case RequestQueue<Request>::TryPush::kFull:
        return shed("request queue full");
      case RequestQueue<Request>::TryPush::kClosed:
        break;  // fall through to the shutdown-race path below
    }
  } else if (queue_.push(std::move(request))) {
    return future;
  }
  if (probe) breaker->abandon_probe(Clock::now());
  // Shutdown raced with this submit; account the request as finished so
  // drain() cannot hang, then report the condition to the caller.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++finished_;
  }
  drain_cv_.notify_all();
  throw Error("m3dfl: diagnosis service is shut down");
}

DiagnosisResult DiagnosisService::diagnose(
    std::int32_t design_id, FailureLog log,
    const SubmitOptions& submit_options) {
  return submit(design_id, std::move(log), submit_options).get();
}

void DiagnosisService::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return finished_ == submitted_; });
}

std::uint64_t DiagnosisService::pending() const {
  std::lock_guard<std::mutex> lock(drain_mu_);
  return submitted_ - finished_;
}

void DiagnosisService::shutdown(ShutdownMode mode) {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    shut_down_ = true;
  }
  if (mode == ShutdownMode::kAbort) {
    abort_.store(true, std::memory_order_relaxed);
    // Close first: workers drain the remaining queue, failing every request
    // with kShuttingDown (the abort_ check in worker_loop/process), so
    // drain() below terminates without running them.
    queue_.close();
  }
  resume();  // a paused service must still be able to quiesce
  drain();
  queue_.close();
  pool_.join();
}

void DiagnosisService::worker_loop() {
  {
    std::unique_lock<std::mutex> lock(pause_mu_);
    pause_cv_.wait(lock, [this] { return !paused_; });
  }
  for (;;) {
    std::vector<Request> batch = queue_.pop_batch(
        options_.max_batch,
        [](const Request& r) { return r.design_id; });
    if (batch.empty()) return;  // queue closed and drained
    metrics_->batches.fetch_add(1, std::memory_order_relaxed);
    metrics_->batched_requests.fetch_add(
        static_cast<std::int64_t>(batch.size()), std::memory_order_relaxed);
    for (Request& request : batch) {
      process(request);
    }
    // Drain accounting once per micro-batch keeps the lock off the
    // per-request path.
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      finished_ += batch.size();
    }
    drain_cv_.notify_all();
  }
}

void DiagnosisService::complete(Request& request, DiagnosisResult&& result,
                                StatusCode status, std::string message) {
  result.model_generation = options_.model_generation;
  result.status = status;
  result.status_message = std::move(message);
  if (status == StatusCode::kOk && result.degraded) {
    metrics_->degraded_results.fetch_add(1, std::memory_order_relaxed);
  }
  if (status == StatusCode::kOk) {
    if (result.confidence.noisy_log) {
      metrics_->noisy_log_results.fetch_add(1, std::memory_order_relaxed);
    }
    if (result.confidence.low_confidence) {
      metrics_->low_confidence_results.fetch_add(1, std::memory_order_relaxed);
    }
    if (result.confidence.quarantined > 0) {
      metrics_->quarantined_responses.fetch_add(result.confidence.quarantined,
                                               std::memory_order_relaxed);
    }
  }
  if (status == StatusCode::kShuttingDown) {
    metrics_->aborted_requests.fetch_add(1, std::memory_order_relaxed);
  }
  metrics_->record_status(status);
  request.promise.set_value(std::move(result));
}

void DiagnosisService::process(Request& request) {
  const Clock::time_point picked_up = Clock::now();
  const std::shared_ptr<const Design> design = design_ref(request.design_id);
  const DesignContext ctx = design->context();

  DiagnosisResult result;
  result.sequence = request.sequence;
  result.design = design->name();
  result.queue_seconds = std::chrono::duration<double>(
                             picked_up - request.enqueued)
                             .count();
  metrics_->queue_wait.record(result.queue_seconds);

  // Retry loop: only kTransient outcomes re-run, with decorrelated-jitter
  // backoff whose stream is a pure function of (retry_seed, sequence) —
  // retry timing is bit-reproducible under test.
  Rng backoff_rng(options_.retry_seed ^
                  (request.sequence * 0x9E3779B97F4A7C15ULL));
  double sleep_ms = options_.backoff_base_ms;
  StatusCode status = StatusCode::kInternal;
  std::string message;
  bool breaker_exempt = false;
  for (std::int32_t attempt = 0;; ++attempt) {
    result.attempts = attempt + 1;
    status = attempt_once(request, *design, ctx, result, message,
                          breaker_exempt);
    if (status != StatusCode::kTransient || attempt >= options_.max_retries) {
      break;
    }
    sleep_ms = next_backoff_ms(backoff_rng, options_.backoff_base_ms,
                               options_.backoff_cap_ms, sleep_ms);
    // Never sleep past the request's deadline: a backoff that cannot end
    // before the deadline would occupy a worker only to fail the next
    // attempt's first check anyway.
    double nap_ms = sleep_ms;
    if (request.deadline != Clock::time_point::max()) {
      const double remaining_ms =
          std::chrono::duration<double, std::milli>(request.deadline -
                                                    Clock::now())
              .count();
      if (remaining_ms <= 0.0) {
        status = StatusCode::kDeadlineExceeded;
        message = "deadline exceeded during retry backoff";
        break;
      }
      nap_ms = std::min(nap_ms, remaining_ms);
    }
    metrics_->retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(nap_ms));
  }

  if (status == StatusCode::kOk) {
    result.total_seconds = std::chrono::duration<double>(
                               Clock::now() - request.enqueued)
                               .count();
    metrics_->end_to_end.record(result.total_seconds);
  }
  CircuitBreaker* breaker = breaker_for(request.design_id);
  const bool failure_class = status == StatusCode::kTransient ||
                             status == StatusCode::kInternal ||
                             status == StatusCode::kModelUnavailable;
  if (status == StatusCode::kOk) {
    breaker->on_success();
  } else if (failure_class && !breaker_exempt) {
    breaker->on_failure(Clock::now());
  } else if (request.probe) {
    // Statuses that say nothing about the design's health (deadline,
    // shutdown, a coalesced leader's failure) still must resolve the
    // half-open probe, or the breaker would stay probe-less until expiry.
    breaker->abandon_probe(Clock::now());
  }
  complete(request, std::move(result), status, std::move(message));
}

StatusCode DiagnosisService::attempt_once(Request& request,
                                          const Design& design,
                                          const DesignContext& ctx,
                                          DiagnosisResult& result,
                                          std::string& message,
                                          bool& breaker_exempt) {
  FaultInjector* injector = options_.fault_injector.get();
  std::shared_ptr<const DiagnosisPrefix> entry;
  // A retry starts from a clean slate: the previous attempt may have left a
  // partially refined report or a half-filled prediction behind.
  result.degraded = false;
  result.pruned.clear();
  result.prediction = FrameworkPrediction{};
  result.confidence = DiagnosisConfidence{};
  breaker_exempt = false;
  try {
    if (abort_.load(std::memory_order_relaxed)) {
      message = "service shutting down";
      return StatusCode::kShuttingDown;
    }
    if (deadline_passed(request.deadline)) {
      message = "deadline exceeded before diagnosis started";
      return StatusCode::kDeadlineExceeded;
    }

    // Cached deterministic prefix (core/pipeline.h): back-trace ->
    // subgraph -> normalized adjacency, then the ATPG base report.
    const std::string key =
        DiagnosisCache::make_key(request.design_id, request.log);
    if (injector != nullptr) {
      maybe_throw(*injector, Seam::kCacheLookup,
                  "injected cache lookup fault");
    }
    entry = cache_.lookup(key);
    result.cache_hit = entry != nullptr;
    if (entry == nullptr) {
      // Single-flight: either become the leader for this key or wait on a
      // worker that is already computing it.
      std::promise<std::shared_ptr<const DiagnosisPrefix>> flight;
      std::shared_future<std::shared_ptr<const DiagnosisPrefix>> follow;
      bool leader = false;
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
          follow = it->second;
        } else {
          // A leader may have finished (insert + inflight erase) between the
          // counted lookup above and this lock; re-check without accounting.
          entry = cache_.peek(key);
          if (entry == nullptr) {
            leader = true;
            inflight_.emplace(key, flight.get_future().share());
          }
        }
      }
      if (leader) {
        // The flight is completed (value or exception) exactly once and
        // retired from the in-flight map no matter how the computation
        // ends, so followers can never wait forever on an abandoned
        // promise.
        std::exception_ptr flight_error;
        try {
          auto fresh = std::make_shared<DiagnosisPrefix>();
          if (!degraded_) {
            if (deadline_passed(request.deadline)) {
              throw DeadlineError("deadline exceeded before back-trace");
            }
            const Clock::time_point t_bt = Clock::now();
            // A streaming finalize arrives with the back-trace the session
            // maintained incrementally; reuse it.
            *fresh = backtrace_prefix(design, request.log,
                                      request.precomputed_backtrace.get());
            metrics_->backtrace.record(seconds_since(t_bt));
          }

          if (deadline_passed(request.deadline)) {
            throw DeadlineError("deadline exceeded before ATPG diagnosis");
          }
          const Clock::time_point t_atpg = Clock::now();
          fresh->base_report =
              diagnose_atpg(ctx, request.log, options_.diagnosis);
          metrics_->atpg.record(seconds_since(t_atpg));

          if (injector != nullptr) {
            maybe_throw(*injector, Seam::kCacheInsert,
                        "injected cache insert fault");
          }
          entry = fresh;
          cache_.insert(key, entry);
        } catch (...) {
          flight_error = std::current_exception();
        }
        if (flight_error != nullptr) {
          flight.set_exception(flight_error);
        } else {
          flight.set_value(entry);
        }
        {
          std::lock_guard<std::mutex> lock(inflight_mu_);
          inflight_.erase(key);
        }
        if (flight_error != nullptr) std::rethrow_exception(flight_error);
      } else if (follow.valid()) {
        // Coalesced: a leader failure surfaces here as kTransient — this
        // request's retry recomputes independently (and may become the
        // leader itself), so one poisoned flight never condemns followers.
        // The failure is the leader's, already fed to the breaker by the
        // leader's own request; N coalesced waiters must not multiply one
        // fault into N consecutive-failure increments.
        metrics_->cache_coalesced.fetch_add(1, std::memory_order_relaxed);
        try {
          entry = follow.get();
        } catch (const std::exception& e) {
          breaker_exempt = true;
          throw TransientError(std::string("coalesced leader failed: ") +
                               e.what());
        } catch (...) {
          breaker_exempt = true;
          throw TransientError("coalesced leader failed: unknown exception");
        }
        result.cache_hit = true;
      } else {
        result.cache_hit = true;  // entry landed during the re-check
      }
    }

    M3DFL_ASSERT(entry != nullptr);
    if (degraded_) {
      // Service-wide degraded mode: no usable GNN model, serve the
      // unpruned ATPG ranking.
      result.report = entry->base_report;
      result.degraded = true;
      return StatusCode::kOk;
    }

    if (abort_.load(std::memory_order_relaxed)) {
      message = "service shutting down";
      return StatusCode::kShuttingDown;
    }
    if (deadline_passed(request.deadline)) {
      message = "deadline exceeded before GNN inference";
      return StatusCode::kDeadlineExceeded;
    }

    // Per-request scratch only from here on: the suffix refines its own
    // copy of the cached base report, the models are shared read-only.
    const Clock::time_point t_inf = Clock::now();
    if (injector != nullptr) {
      maybe_throw(*injector, Seam::kModelPredict, "injected model fault");
    }
    RefinedDiagnosis refined = framework_->diagnose(ctx, *entry);
    result.report = std::move(refined.report);
    result.prediction = std::move(refined.prediction);
    result.pruned = std::move(refined.pruned);
    result.confidence = refined.confidence;
    metrics_->inference.record(seconds_since(t_inf));
    return StatusCode::kOk;
  } catch (const ModelUnavailableError& e) {
    if (options_.degraded_fallback && entry != nullptr) {
      // The deterministic prefix survived; only the GNN verdict is lost.
      // Serve the unpruned ATPG ranking instead of failing the request.
      result.report = entry->base_report;
      result.pruned.clear();
      result.prediction = FrameworkPrediction{};
      // The back-trace evidence survived; only the model margin is missing
      // (margin treated as 1.0, so support alone carries the confidence).
      result.confidence =
          framework_->diagnosis_confidence(entry->backtrace, nullptr);
      result.degraded = true;
      return StatusCode::kOk;
    }
    message = e.what();
    return StatusCode::kModelUnavailable;
  } catch (const DeadlineError& e) {
    message = e.what();
    return StatusCode::kDeadlineExceeded;
  } catch (const TransientError& e) {
    message = e.what();
    return StatusCode::kTransient;
  } catch (const std::bad_alloc&) {
    message = "allocation failure";
    return StatusCode::kTransient;
  } catch (const std::exception& e) {
    message = e.what();
    return StatusCode::kInternal;
  } catch (...) {
    // The single-flight leader path rethrows whatever the computation threw
    // — including non-std::exception types from backtrace/ATPG/framework
    // code.  Nothing may escape the worker, so the chain ends broader than
    // std::exception.
    message = "unknown exception";
    return StatusCode::kInternal;
  }
}

void write_verdict(std::ostream& os, const FrameworkPrediction* prediction,
                   const DiagnosisConfidence& confidence) {
  if (prediction == nullptr) {
    os << "GNN verdict: unavailable (degraded: unpruned ATPG-only ranking)\n";
  } else {
    os << "GNN verdict: tier " << prediction->tier << " (confidence "
       << prediction->confidence << ", "
       << (prediction->high_confidence ? "high" : "low")
       << "), MIVs flagged: " << prediction->faulty_mivs.size() << ", "
       << (prediction->pruned ? "pruned" : "reordered") << "\n";
    os << "calibrated confidence: " << confidence.combined << " (support "
       << confidence.backtrace_support << ", margin "
       << confidence.model_margin << ", "
       << (confidence.low_confidence ? "LOW" : "ok") << ")\n";
  }
  if (confidence.noisy_log) {
    os << "noisy log: " << confidence.quarantined
       << " response(s) quarantined"
       << (confidence.relaxed ? ", relaxed intersection" : "") << "\n";
  }
}

std::string result_to_string(const Netlist& netlist,
                             const DiagnosisResult& result) {
  std::ostringstream os;
  os << "design " << result.design << "\n";
  if (result.status != StatusCode::kOk) {
    os << "status: " << status_name(result.status) << " ("
       << result.status_message << ")\n";
    return os.str();
  }
  write_verdict(os, result.degraded ? nullptr : &result.prediction,
                result.confidence);
  os << report_to_string(netlist, result.report);
  return os.str();
}

}  // namespace m3dfl::serve
