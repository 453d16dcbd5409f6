#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "diag/atpg_diagnosis.h"
#include "graph/backtrace.h"
#include "graph/subgraph.h"
#include "serve/breaker.h"
#include "serve/cache.h"
#include "serve/fault_injector.h"
#include "serve/report_sink.h"
#include "serve/request_queue.h"
#include "serve/service.h"
#include "serve/status.h"

namespace m3dfl {
namespace {

// One shared design + trained framework + request set for the whole file
// (expensive to build, read-only afterwards).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = std::shared_ptr<const Design>(
        Design::build(Profile::kAes, DesignConfig::kSyn1));
    TransferTrainOptions train;
    train.samples_syn1 = 40;
    train.samples_per_random = 20;
    const LabeledDataset data =
        build_transfer_training_set(Profile::kAes, *design_, train);
    FrameworkOptions options;
    options.training.epochs = 40;
    framework_ = new DiagnosisFramework(options);
    framework_->train(data.graphs);

    DataGenOptions gen;
    gen.num_samples = 8;
    gen.miv_fault_prob = 0.25;
    gen.seed = 0xFEED;
    logs_ = new std::vector<FailureLog>();
    for (const Sample& s : generate_samples(design_->context(), gen)) {
      logs_->push_back(s.log);
    }
  }
  static void TearDownTestSuite() {
    delete logs_;
    delete framework_;
    logs_ = nullptr;
    framework_ = nullptr;
    design_.reset();
  }

  // A fresh service around a serialization round-tripped framework copy.
  static serve::DiagnosisService make_service(
      const serve::ServiceOptions& options) {
    std::stringstream model;
    framework_->save(model);
    return serve::DiagnosisService(model, options);
  }

  // The request stream used by the determinism/cache tests: every log
  // twice, interleaved.
  static std::vector<FailureLog> request_stream() {
    std::vector<FailureLog> requests;
    for (int rep = 0; rep < 2; ++rep) {
      for (const FailureLog& log : *logs_) requests.push_back(log);
    }
    return requests;
  }

  static std::shared_ptr<const Design> design_;
  static DiagnosisFramework* framework_;
  static std::vector<FailureLog>* logs_;
};

std::shared_ptr<const Design> ServeTest::design_;
DiagnosisFramework* ServeTest::framework_ = nullptr;
std::vector<FailureLog>* ServeTest::logs_ = nullptr;

// The raw serial reference path: replicates the service pipeline (ATPG
// report, support-weighted back-trace, subgraph extraction, GNN prediction,
// refinement, calibrated confidence) from the layer primitives, with no
// queue, cache, worker threads, or per-log chain (core/pipeline.h).
serve::DiagnosisResult serial_reference(const Design& design,
                                        const DesignContext& ctx,
                                        const DiagnosisFramework& framework,
                                        const FailureLog& log) {
  serve::DiagnosisResult r;
  r.design = design.name();
  r.report = diagnose_atpg(ctx, log);
  const BacktraceResult backtrace =
      backtrace_with_support(design.graph(), ctx, log);
  const Subgraph sg = extract_subgraph(design.graph(), backtrace.candidates);
  r.prediction = framework.predict(sg, subgraph_adjacency(sg));
  r.pruned = framework.refine_report(ctx, r.prediction, r.report);
  r.prediction.pruned = !r.pruned.empty();
  r.confidence = framework.diagnosis_confidence(backtrace, &r.prediction);
  return r;
}

// ---- component tests --------------------------------------------------------

TEST(RequestQueueTest, BatchesGroupByKeyAndPreserveFifoPerKey) {
  struct Item {
    int key;
    int seq;
  };
  serve::RequestQueue<Item> queue(16);
  queue.push({1, 0});
  queue.push({2, 1});
  queue.push({1, 2});
  queue.push({1, 3});
  const auto batch =
      queue.pop_batch(8, [](const Item& item) { return item.key; });
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].seq, 0);
  EXPECT_EQ(batch[1].seq, 2);
  EXPECT_EQ(batch[2].seq, 3);
  EXPECT_EQ(queue.size(), 1u);  // key 2 still queued

  queue.close();
  const auto rest =
      queue.pop_batch(8, [](const Item& item) { return item.key; });
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].seq, 1);
  EXPECT_TRUE(
      queue.pop_batch(8, [](const Item& item) { return item.key; }).empty());
  EXPECT_FALSE(queue.push({3, 4}));  // closed
}

TEST(RequestQueueTest, BatchBoundIsRespected) {
  serve::RequestQueue<int> queue(16);
  for (int i = 0; i < 6; ++i) queue.push(i);
  const auto batch = queue.pop_batch(4, [](int) { return 0; });
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(OrderedReportSinkTest, ReleasesContiguousPrefixInOrder) {
  std::ostringstream os;
  serve::OrderedReportSink sink(&os);
  sink.deliver(2, "c");
  sink.deliver(0, "a");
  EXPECT_EQ(os.str(), "a");  // 1 missing: 2 held back
  EXPECT_EQ(sink.flushed(), 1u);
  sink.deliver(1, "b");
  EXPECT_EQ(os.str(), "abc");
  EXPECT_EQ(sink.delivered(), 3u);
  const auto ordered = sink.take_ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[1], "b");
}

TEST(DiagnosisCacheTest, LruEvictionAndCounters) {
  serve::DiagnosisCache cache(2);
  const auto entry = std::make_shared<DiagnosisPrefix>();
  EXPECT_EQ(cache.lookup("a"), nullptr);
  cache.insert("a", entry);
  cache.insert("b", entry);
  EXPECT_NE(cache.lookup("a"), nullptr);  // refreshes a
  cache.insert("c", entry);               // evicts b (LRU)
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(DiagnosisCacheTest, KeyIsExactOverDesignAndLog) {
  FailureLog log;
  log.po_fails.push_back(Observation{});
  FailureLog other = log;
  other.po_fails[0].pattern = 7;
  EXPECT_NE(serve::DiagnosisCache::make_key(0, log),
            serve::DiagnosisCache::make_key(1, log));
  EXPECT_NE(serve::DiagnosisCache::make_key(0, log),
            serve::DiagnosisCache::make_key(0, other));
}

// Epoch-style ownership under fire: writers churn a tiny cache far past its
// capacity while every thread holds shared_ptrs from earlier lookups — an
// eviction must never invalidate an entry an in-flight reader still holds,
// and a hit must never surface another key's entry.  (Run under TSan by the
// CI serve job; this is the cache half of the fleet reload-under-fire
// harness in fleet_chaos_test.cc.)
TEST(DiagnosisCacheTest, EvictionNeverInvalidatesInFlightReaders) {
  serve::DiagnosisCache cache(4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::atomic<int> mismatches{0};
  // Entries each thread still holds after eviction: (expected id, entry).
  std::vector<std::vector<
      std::pair<int, std::shared_ptr<const DiagnosisPrefix>>>>
      held(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        auto entry = std::make_shared<DiagnosisPrefix>();
        entry->backtrace.num_responses = id;  // identity tag
        const std::string key = "log-" + std::to_string(id);
        cache.insert(key, std::move(entry));
        if (const auto hit = cache.lookup(key)) {
          if (hit->backtrace.num_responses != id) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 16 == 0) held[t].push_back({id, hit});
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.size(), 4u);
  // 1000 inserts through 4 slots: nearly everything held was evicted...
  EXPECT_GE(cache.evictions(), static_cast<std::int64_t>(
                                   kThreads * kPerThread - 8));
  // ...yet every held entry is still alive and byte-for-byte intact.
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [id, entry] : held[t]) {
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(entry->backtrace.num_responses, id);
    }
  }
}

// ---- service tests ----------------------------------------------------------

TEST_F(ServeTest, SmokeEndToEnd) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  EXPECT_EQ(service.num_designs(), 1);

  const serve::DiagnosisResult result =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(result.design, design_->name());
  EXPECT_TRUE(result.prediction.tier == 0 || result.prediction.tier == 1);
  EXPECT_GE(result.prediction.confidence, 0.5);
  EXPECT_GT(result.report.resolution(), 0);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_GE(result.total_seconds, 0.0);

  service.shutdown();
  EXPECT_EQ(service.metrics().requests_completed.load(), 1);
  EXPECT_EQ(service.metrics().requests_failed.load(), 0);
  EXPECT_EQ(service.metrics().end_to_end.count(), 1);
  EXPECT_THROW(service.submit(design_id, logs_->front()), Error);
  const std::string report = service.metrics().report();
  EXPECT_NE(report.find("cache hit rate"), std::string::npos);
  EXPECT_NE(report.find("end to end"), std::string::npos);
}

TEST_F(ServeTest, RejectsUnknownDesignAndNullDesign) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  EXPECT_THROW(service.submit(0, logs_->front()), Error);
  EXPECT_THROW(service.register_design(nullptr), Error);
}

TEST_F(ServeTest, RequiresTrainedFramework) {
  EXPECT_THROW(serve::DiagnosisService{DiagnosisFramework()}, Error);
}

// The tentpole guarantee: 8-thread concurrent diagnosis produces
// byte-identical reports to the single-threaded path, which in turn matches
// the raw serial (pre-service) path.
TEST_F(ServeTest, ConcurrentMatchesSerialByteForByte) {
  const std::vector<FailureLog> requests = request_stream();

  // Raw serial path, no service, no cache.
  const DesignContext ctx = design_->context();
  std::vector<std::string> serial_texts;
  for (const FailureLog& log : requests) {
    serial_texts.push_back(serve::result_to_string(
        design_->netlist(), serial_reference(*design_, ctx, *framework_, log)));
  }

  const auto run = [&](std::int32_t threads) {
    serve::ServiceOptions options;
    options.num_threads = threads;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    std::vector<std::future<serve::DiagnosisResult>> futures;
    for (const FailureLog& log : requests) {
      futures.push_back(service.submit(design_id, log));
    }
    serve::OrderedReportSink sink;
    for (auto& f : futures) {
      const serve::DiagnosisResult r = f.get();
      sink.deliver(r.sequence,
                   serve::result_to_string(design_->netlist(), r));
    }
    service.shutdown();
    return sink.take_ordered();
  };

  const std::vector<std::string> one_thread = run(1);
  const std::vector<std::string> eight_threads = run(8);
  ASSERT_EQ(one_thread.size(), requests.size());
  ASSERT_EQ(eight_threads.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(one_thread[i], serial_texts[i]) << "request " << i;
    EXPECT_EQ(eight_threads[i], serial_texts[i]) << "request " << i;
  }
}

TEST_F(ServeTest, CacheCountersMatchRepeatedTraffic) {
  serve::ServiceOptions options;
  options.num_threads = 1;  // single worker: deterministic hit/miss split
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  const std::vector<FailureLog> requests = request_stream();
  std::vector<std::future<serve::DiagnosisResult>> futures;
  for (const FailureLog& log : requests) {
    futures.push_back(service.submit(design_id, log));
  }
  std::int32_t hits = 0;
  for (auto& f : futures) hits += f.get().cache_hit ? 1 : 0;
  service.drain();

  // Every unique log misses once and hits on its repeat.
  const auto unique = static_cast<std::int64_t>(logs_->size());
  EXPECT_EQ(service.cache().misses(), unique);
  EXPECT_EQ(service.cache().hits(), unique);
  EXPECT_EQ(hits, static_cast<std::int32_t>(unique));
  EXPECT_EQ(service.metrics().cache_hits.load(), unique);
  EXPECT_EQ(service.metrics().cache_misses.load(), unique);
  EXPECT_DOUBLE_EQ(service.metrics().cache_hit_rate(), 0.5);
  EXPECT_EQ(service.cache().size(), static_cast<std::size_t>(unique));
  service.shutdown();
}

TEST_F(ServeTest, CacheCapacityZeroDisablesCaching) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  const serve::DiagnosisResult first =
      service.diagnose(design_id, logs_->front());
  const serve::DiagnosisResult second =
      service.diagnose(design_id, logs_->front());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(service.cache().hits(), 0);
  service.shutdown();
}

// ---- serialize robustness through the service load path --------------------

TEST_F(ServeTest, FrameworkRoundTripsThroughServiceLoadPath) {
  std::stringstream model;
  framework_->save(model);
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service(model, options);
  EXPECT_EQ(service.framework().tp_threshold(), framework_->tp_threshold());
  const std::int32_t design_id = service.register_design(design_);

  // Loaded framework behaves identically to the in-memory original.
  const DesignContext ctx = design_->context();
  for (const FailureLog& log : *logs_) {
    const serve::DiagnosisResult expected =
        serial_reference(*design_, ctx, *framework_, log);
    const serve::DiagnosisResult got = service.diagnose(design_id, log);
    EXPECT_EQ(serve::result_to_string(design_->netlist(), got),
              serve::result_to_string(design_->netlist(), expected));
  }
  service.shutdown();
}

TEST_F(ServeTest, TruncatedModelStreamThrowsError) {
  std::stringstream model;
  framework_->save(model);
  const std::string full = model.str();
  // Truncation at several depths: inside the header, inside a model tag,
  // inside a parameter payload.
  for (const std::size_t keep :
       {std::size_t{5}, full.size() / 4, full.size() / 2, full.size() - 9}) {
    std::stringstream truncated(full.substr(0, keep));
    EXPECT_THROW(serve::DiagnosisService service(truncated), Error)
        << "kept " << keep << " of " << full.size() << " bytes";
  }
}

TEST_F(ServeTest, CorruptedModelTagThrowsError) {
  std::stringstream model;
  framework_->save(model);
  std::string text = model.str();

  // Corrupt the framework magic.
  std::string bad_magic = text;
  bad_magic.replace(0, 5, "bogus");
  std::stringstream bad_magic_is(bad_magic);
  EXPECT_THROW(serve::DiagnosisService service(bad_magic_is), Error);

  // Corrupt an inner model tag.
  const std::size_t tag = text.find("tier-predictor");
  ASSERT_NE(tag, std::string::npos);
  text.replace(tag, 4, "XXXX");
  std::stringstream bad_tag_is(text);
  EXPECT_THROW(serve::DiagnosisService service(bad_tag_is), Error);
}

// ---- fault-tolerance component tests ---------------------------------------

TEST(StatusTest, NamesCoverEveryCode) {
  for (int code = 0; code < serve::kNumStatusCodes; ++code) {
    EXPECT_STRNE(serve::status_name(static_cast<serve::StatusCode>(code)),
                 "UNKNOWN");
  }
}

TEST(MetricsTest, StatusCountersTally) {
  serve::Metrics metrics;
  metrics.record_status(serve::StatusCode::kOk);
  metrics.record_status(serve::StatusCode::kOk);
  metrics.record_status(serve::StatusCode::kTransient);
  metrics.record_status(serve::StatusCode::kOverloaded);
  metrics.record_status(serve::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(metrics.status_count(serve::StatusCode::kOk), 2);
  EXPECT_EQ(metrics.status_count(serve::StatusCode::kTransient), 1);
  EXPECT_EQ(metrics.status_count(serve::StatusCode::kOverloaded), 1);
  EXPECT_EQ(metrics.status_count(serve::StatusCode::kDeadlineExceeded), 1);
  EXPECT_EQ(metrics.status_count(serve::StatusCode::kInternal), 0);
  EXPECT_EQ(metrics.requests_completed.load(), 2);
  EXPECT_EQ(metrics.requests_failed.load(), 3);
  EXPECT_EQ(metrics.deadline_expirations.load(), 1);
  const std::string report = metrics.report();
  EXPECT_NE(report.find("DEADLINE_EXCEEDED"), std::string::npos);
  EXPECT_NE(report.find("TRANSIENT"), std::string::npos);
  EXPECT_NE(report.find("load shed"), std::string::npos);
}

TEST(BackoffTest, DecorrelatedJitterIsDeterministicAndBounded) {
  Rng a(42), b(42);
  double prev_a = 1.0, prev_b = 1.0;
  for (int i = 0; i < 50; ++i) {
    const double next_a = serve::next_backoff_ms(a, 1.0, 64.0, prev_a);
    const double next_b = serve::next_backoff_ms(b, 1.0, 64.0, prev_b);
    EXPECT_DOUBLE_EQ(next_a, next_b);  // same stream, same schedule
    EXPECT_GE(next_a, 1.0);
    EXPECT_LE(next_a, 64.0);
    EXPECT_LE(next_a, std::max(3.0 * prev_a, 1.0));
    prev_a = next_a;
    prev_b = next_b;
  }
}

TEST(FaultInjectorTest, ScriptedAndProbabilisticTriggersAreDeterministic) {
  FaultInjector injector(serve::kNumSeams, 7);
  injector.arm_nth(serve::Seam::kModelPredict, {2, 4});
  EXPECT_FALSE(injector.should_fail(serve::Seam::kModelPredict));
  EXPECT_TRUE(injector.should_fail(serve::Seam::kModelPredict));
  EXPECT_FALSE(injector.should_fail(serve::Seam::kModelPredict));
  EXPECT_TRUE(injector.should_fail(serve::Seam::kModelPredict));
  EXPECT_EQ(injector.calls(serve::Seam::kModelPredict), 4);
  EXPECT_EQ(injector.triggered(serve::Seam::kModelPredict), 2);

  // Two injectors with the same seed trigger identically.
  FaultInjector x(serve::kNumSeams, 99), y(serve::kNumSeams, 99);
  x.arm(serve::Seam::kCacheLookup, 0.3);
  y.arm(serve::Seam::kCacheLookup, 0.3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(x.should_fail(serve::Seam::kCacheLookup),
              y.should_fail(serve::Seam::kCacheLookup));
  }
  EXPECT_GT(x.triggered(serve::Seam::kCacheLookup), 0);
  EXPECT_LT(x.triggered(serve::Seam::kCacheLookup), 200);
  EXPECT_EQ(x.total_triggered(), x.triggered(serve::Seam::kCacheLookup));

  // At p=0.3 a trigger arrives within a handful of calls and surfaces as
  // the armed exception type.
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) {
          serve::maybe_throw(x, serve::Seam::kCacheLookup, "boom");
        }
      },
      serve::TransientError);
}

TEST(BreakerTest, TripsAfterConsecutiveFailuresAndHalfOpensOnProbe) {
  using Clock = serve::CircuitBreaker::Clock;
  serve::BreakerOptions options;
  options.failure_threshold = 2;
  options.cooldown_ms = 50.0;
  serve::CircuitBreaker breaker(options);
  const Clock::time_point t0 = Clock::now();

  EXPECT_EQ(breaker.admit(t0), serve::CircuitBreaker::Decision::kAllow);
  breaker.on_failure(t0);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
  breaker.on_failure(t0);  // second consecutive failure: trip
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_EQ(breaker.admit(t0), serve::CircuitBreaker::Decision::kReject);

  // After the cooldown, exactly one probe goes through.
  const Clock::time_point later = t0 + std::chrono::milliseconds(60);
  EXPECT_EQ(breaker.admit(later), serve::CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(breaker.admit(later), serve::CircuitBreaker::Decision::kReject);
  // Failed probe re-opens; successful probe closes.
  breaker.on_failure(later);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  const Clock::time_point after = later + std::chrono::milliseconds(60);
  EXPECT_EQ(breaker.admit(after), serve::CircuitBreaker::Decision::kProbe);
  breaker.on_success();
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.admit(after), serve::CircuitBreaker::Decision::kAllow);
}

TEST(BreakerTest, AbandonedOrExpiredProbeNeverWedgesHalfOpen) {
  using Clock = serve::CircuitBreaker::Clock;
  serve::BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_ms = 50.0;
  serve::CircuitBreaker breaker(options);
  const Clock::time_point t0 = Clock::now();
  breaker.on_failure(t0);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kOpen);

  // A probe whose outcome is never a health verdict (shed at admission,
  // deadline, shutdown) is abandoned: back to open — no trip counted — and
  // a fresh probe goes out after another cooldown.
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(60);
  EXPECT_EQ(breaker.admit(t1), serve::CircuitBreaker::Decision::kProbe);
  breaker.abandon_probe(t1);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_EQ(breaker.admit(t1), serve::CircuitBreaker::Decision::kReject);

  // A probe that is simply lost (no verdict ever reported) expires after
  // the cooldown and admit() re-issues one instead of rejecting forever.
  const Clock::time_point t2 = t1 + std::chrono::milliseconds(60);
  EXPECT_EQ(breaker.admit(t2), serve::CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(breaker.admit(t2), serve::CircuitBreaker::Decision::kReject);
  const Clock::time_point t3 = t2 + std::chrono::milliseconds(60);
  EXPECT_EQ(breaker.admit(t3), serve::CircuitBreaker::Decision::kProbe);
  breaker.on_success();
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
}

TEST(BreakerTest, ThresholdZeroDisables) {
  serve::CircuitBreaker breaker(serve::BreakerOptions{});
  const auto now = serve::CircuitBreaker::Clock::now();
  for (int i = 0; i < 10; ++i) breaker.on_failure(now);
  EXPECT_EQ(breaker.admit(now), serve::CircuitBreaker::Decision::kAllow);
}

TEST(RequestQueueTest, TryPushShedsInsteadOfBlocking) {
  serve::RequestQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(queue.try_push(a), serve::RequestQueue<int>::TryPush::kAccepted);
  EXPECT_EQ(queue.try_push(b), serve::RequestQueue<int>::TryPush::kAccepted);
  EXPECT_EQ(queue.try_push(c), serve::RequestQueue<int>::TryPush::kFull);
  EXPECT_EQ(c, 3);  // left intact for the caller to fail with a status
  queue.close();
  EXPECT_EQ(queue.try_push(c), serve::RequestQueue<int>::TryPush::kClosed);
}

// Failed requests must not stall the ordered flush of later successes: the
// sink only needs *a* delivery per sequence, and failures render a status
// line just like successes render a report.
TEST(OrderedReportSinkTest, FailureDeliveriesDoNotStallTheFlush) {
  std::ostringstream os;
  serve::OrderedReportSink sink(&os);
  sink.deliver(1, "ok-1\n");
  sink.deliver(2, "ok-2\n");
  EXPECT_EQ(sink.flushed(), 0u);  // sequence 0 still outstanding
  sink.deliver(0, "status: TRANSIENT (injected cache lookup fault)\n");
  EXPECT_EQ(sink.flushed(), 3u);
  EXPECT_EQ(os.str(),
            "status: TRANSIENT (injected cache lookup fault)\nok-1\nok-2\n");
}

// ---- fault-tolerance service tests ------------------------------------------

TEST_F(ServeTest, InvalidLogRejectedAtTheServiceBoundary) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  FailureLog out_of_range = logs_->front();
  out_of_range.scan_fails.push_back(
      Observation{/*pattern=*/1 << 20, /*at_po=*/false, /*index=*/0});
  const serve::DiagnosisResult bad =
      service.diagnose(design_id, out_of_range);
  EXPECT_EQ(bad.status, serve::StatusCode::kInvalidInput);
  EXPECT_NE(bad.status_message.find("out of range"), std::string::npos);

  const serve::DiagnosisResult empty =
      service.diagnose(design_id, FailureLog{});
  EXPECT_EQ(empty.status, serve::StatusCode::kInvalidInput);

  // Rejected requests never reach a worker, and good traffic still flows.
  const serve::DiagnosisResult good =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(good.status, serve::StatusCode::kOk);
  service.shutdown();
  EXPECT_EQ(service.metrics().status_count(serve::StatusCode::kInvalidInput),
            2);
  EXPECT_EQ(service.metrics().requests_failed.load(), 2);
  EXPECT_EQ(service.metrics().requests_completed.load(), 1);
}

TEST_F(ServeTest, LintAdmissionGateRejectsBeforeTheQueue) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams);
  injector->arm(serve::Seam::kAdmissionLint, 1.0);
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  // The generator-produced design itself lints clean at registration; only
  // the injected seam simulates a broken one.
  EXPECT_TRUE(service.design_lint_error(design_id).empty());

  const serve::DiagnosisResult result =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(result.status, serve::StatusCode::kLintRejected);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status_message.find("lint"), std::string::npos)
      << result.status_message;

  service.shutdown();
  EXPECT_EQ(service.metrics().lint_rejections.load(), 1);
  EXPECT_EQ(service.metrics().status_count(serve::StatusCode::kLintRejected),
            1);
  EXPECT_EQ(service.metrics().requests_failed.load(), 1);
  EXPECT_NE(service.metrics().report().find("LINT_REJECTED"),
            std::string::npos);
}

TEST_F(ServeTest, DeadlineExceededSurfacesAsStatus) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  serve::SubmitOptions expired;
  expired.deadline_ms = 1e-6;  // already passed by worker pickup
  const serve::DiagnosisResult result =
      service.diagnose(design_id, logs_->front(), expired);
  EXPECT_EQ(result.status, serve::StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(service.metrics().deadline_expirations.load(), 1);

  // No deadline (the default) still completes.
  EXPECT_TRUE(service.diagnose(design_id, logs_->front()).ok());
  service.shutdown();
}

TEST_F(ServeTest, WatermarkShedsLoadWithOverloaded) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 8;
  options.shed_watermark = 2;
  options.start_paused = true;  // stage the queue deterministically
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  std::vector<std::future<serve::DiagnosisResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.submit(design_id, logs_->front()));
  }
  // The first two filled the queue to the watermark; the rest shed
  // immediately (their futures are already resolved while workers sleep).
  for (int i = 2; i < 5; ++i) {
    const serve::DiagnosisResult shed = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(shed.status, serve::StatusCode::kOverloaded) << "request " << i;
    EXPECT_NE(shed.status_message.find("watermark"), std::string::npos);
  }
  service.resume();
  EXPECT_TRUE(futures[0].get().ok());
  EXPECT_TRUE(futures[1].get().ok());
  service.shutdown();
  EXPECT_EQ(service.metrics().load_shed.load(), 3);
  EXPECT_EQ(service.metrics().status_count(serve::StatusCode::kOverloaded), 3);
}

TEST_F(ServeTest, AbortShutdownFailsQueuedRequestsDeterministically) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  options.start_paused = true;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  std::vector<std::future<serve::DiagnosisResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(design_id, logs_->front()));
  }
  service.shutdown(serve::ShutdownMode::kAbort);
  for (auto& f : futures) {
    const serve::DiagnosisResult result = f.get();
    EXPECT_EQ(result.status, serve::StatusCode::kShuttingDown);
  }
  EXPECT_EQ(service.metrics().aborted_requests.load(), 4);
  EXPECT_EQ(service.metrics().status_count(serve::StatusCode::kShuttingDown),
            4);
  EXPECT_THROW(service.submit(design_id, logs_->front()), Error);
}

TEST_F(ServeTest, TransientFaultRetriesWithBackoffAndSucceeds) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 3);
  injector->arm_nth(serve::Seam::kModelPredict, {1});  // first attempt only
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_retries = 2;
  options.backoff_base_ms = 0.01;  // keep the test fast
  options.backoff_cap_ms = 0.1;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  const serve::DiagnosisResult result =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(result.status, serve::StatusCode::kOk);
  EXPECT_EQ(result.attempts, 2);  // one failure, one successful retry
  EXPECT_EQ(service.metrics().retries.load(), 1);
  EXPECT_EQ(injector->triggered(serve::Seam::kModelPredict), 1);

  // The retried result is byte-identical to an undisturbed run.
  serve::ServiceOptions clean;
  clean.num_threads = 1;
  serve::DiagnosisService reference = make_service(clean);
  const std::int32_t ref_id = reference.register_design(design_);
  EXPECT_EQ(serve::result_to_string(design_->netlist(), result),
            serve::result_to_string(
                design_->netlist(), reference.diagnose(ref_id, logs_->front())));
  service.shutdown();
  reference.shutdown();
}

TEST_F(ServeTest, ExhaustedRetriesSurfaceTransientStatus) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 3);
  injector->arm(serve::Seam::kModelPredict, 1.0);
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_retries = 1;
  options.backoff_base_ms = 0.01;
  options.backoff_cap_ms = 0.1;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  const serve::DiagnosisResult result =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(result.status, serve::StatusCode::kTransient);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(service.metrics().retries.load(), 1);
  EXPECT_EQ(injector->triggered(serve::Seam::kModelPredict), 2);
  service.shutdown();
}

TEST_F(ServeTest, BreakerTripsFailsFastAndRecoversViaProbe) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 11);
  injector->arm(serve::Seam::kModelPredict, 1.0);
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_retries = 0;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 20.0;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  // Two consecutive failures trip the breaker...
  EXPECT_EQ(service.diagnose(design_id, logs_->front()).status,
            serve::StatusCode::kTransient);
  EXPECT_EQ(service.diagnose(design_id, logs_->front()).status,
            serve::StatusCode::kTransient);
  EXPECT_EQ(service.breaker_state(design_id),
            serve::CircuitBreaker::State::kOpen);
  // ...after which submissions fail fast without touching a worker.
  const serve::DiagnosisResult rejected =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(rejected.status, serve::StatusCode::kOverloaded);
  EXPECT_NE(rejected.status_message.find("circuit breaker"),
            std::string::npos);
  EXPECT_EQ(service.metrics().breaker_rejections.load(), 1);

  // Once the fault clears and the cooldown elapses, the half-open probe
  // succeeds and closes the breaker.
  injector->arm(serve::Seam::kModelPredict, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(service.diagnose(design_id, logs_->front()).ok());
  EXPECT_EQ(service.breaker_state(design_id),
            serve::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(service.diagnose(design_id, logs_->front()).ok());
  service.shutdown();
}

TEST_F(ServeTest, ProbeWithoutHealthVerdictDoesNotWedgeBreaker) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 13);
  injector->arm(serve::Seam::kModelPredict, 1.0);
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_retries = 0;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 20.0;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  // Trip the breaker, then clear the fault.
  EXPECT_EQ(service.diagnose(design_id, logs_->front()).status,
            serve::StatusCode::kTransient);
  EXPECT_EQ(service.diagnose(design_id, logs_->front()).status,
            serve::StatusCode::kTransient);
  EXPECT_EQ(service.breaker_state(design_id),
            serve::CircuitBreaker::State::kOpen);
  injector->arm(serve::Seam::kModelPredict, 0.0);

  // After the cooldown the next submission is admitted as the half-open
  // probe, but its deadline has already passed, so it resolves with
  // kDeadlineExceeded — a status that says nothing about the design.  The
  // probe must be returned (breaker back to open), not leaked: a leaked
  // probe would reject this design's submissions forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  serve::SubmitOptions expired;
  expired.deadline_ms = 1e-6;
  const serve::DiagnosisResult probe =
      service.diagnose(design_id, logs_->front(), expired);
  EXPECT_EQ(probe.status, serve::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.breaker_state(design_id),
            serve::CircuitBreaker::State::kOpen);

  // The design recovers: another cooldown, a healthy probe, breaker closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(service.diagnose(design_id, logs_->front()).ok());
  EXPECT_EQ(service.breaker_state(design_id),
            serve::CircuitBreaker::State::kClosed);
  service.shutdown();
}

// ---- degraded-mode tests ----------------------------------------------------

TEST_F(ServeTest, CorruptModelStreamDegradesToAtpgOnlyWhenAllowed) {
  std::stringstream model;
  framework_->save(model);
  std::stringstream corrupt(model.str().substr(0, model.str().size() / 2));

  serve::ServiceOptions options;
  options.num_threads = 2;
  options.degraded_fallback = true;
  serve::DiagnosisService service(corrupt, options);
  EXPECT_TRUE(service.degraded());
  const std::int32_t design_id = service.register_design(design_);

  const DesignContext ctx = design_->context();
  for (const FailureLog& log : *logs_) {
    const serve::DiagnosisResult result = service.diagnose(design_id, log);
    EXPECT_EQ(result.status, serve::StatusCode::kOk);
    EXPECT_TRUE(result.degraded);
    // The degraded answer is exactly the unpruned ATPG base report.
    serve::DiagnosisResult expected;
    expected.design = design_->name();
    expected.degraded = true;
    expected.report = diagnose_atpg(ctx, log);
    EXPECT_EQ(serve::result_to_string(design_->netlist(), result),
              serve::result_to_string(design_->netlist(), expected));
  }
  service.shutdown();
  EXPECT_EQ(service.metrics().degraded_results.load(),
            static_cast<std::int64_t>(logs_->size()));
}

TEST_F(ServeTest, InjectedFrameworkLoadFaultDegradesService) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 5);
  injector->arm(serve::Seam::kFrameworkLoad, 1.0);
  std::stringstream model;
  framework_->save(model);
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.degraded_fallback = true;
  options.fault_injector = injector;
  serve::DiagnosisService service(model, options);
  EXPECT_TRUE(service.degraded());
  EXPECT_EQ(injector->triggered(serve::Seam::kFrameworkLoad), 1);
  const std::int32_t design_id = service.register_design(design_);
  const serve::DiagnosisResult result =
      service.diagnose(design_id, logs_->front());
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.degraded);
  service.shutdown();
}

TEST_F(ServeTest, ModelFaultAtPredictTimeDegradesThatRequestOnly) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 5);
  injector->arm_nth(serve::Seam::kModelPredict, {1},
                    serve::FaultKind::kModelUnavailable);
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.degraded_fallback = true;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  EXPECT_FALSE(service.degraded());  // the model loaded fine
  const std::int32_t design_id = service.register_design(design_);

  const serve::DiagnosisResult degraded =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(degraded.status, serve::StatusCode::kOk);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.report.resolution(),
            diagnose_atpg(design_->context(), logs_->front()).resolution());

  // The next request gets the full GNN verdict again.
  const serve::DiagnosisResult full =
      service.diagnose(design_id, logs_->back());
  EXPECT_TRUE(full.ok());
  EXPECT_FALSE(full.degraded);
  service.shutdown();
  EXPECT_EQ(service.metrics().degraded_results.load(), 1);
}

TEST_F(ServeTest, ModelFaultWithoutFallbackFailsTheRequest) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 5);
  injector->arm(serve::Seam::kModelPredict, 1.0,
                serve::FaultKind::kModelUnavailable);
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.fault_injector = injector;  // degraded_fallback stays false
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  const serve::DiagnosisResult result =
      service.diagnose(design_id, logs_->front());
  EXPECT_EQ(result.status, serve::StatusCode::kModelUnavailable);
  EXPECT_FALSE(result.degraded);
  service.shutdown();
}

// Failed requests flow through the ordered sink without stalling later
// successes (service-level companion to the sink unit test above).
TEST_F(ServeTest, FailedRequestsDoNotStallOrderedReporting) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 13);
  injector->arm_nth(serve::Seam::kCacheLookup, {1});  // request 0 fails
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_retries = 0;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  std::vector<std::future<serve::DiagnosisResult>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(service.submit(design_id, (*logs_)[i]));
  }
  serve::OrderedReportSink sink;
  for (auto& f : futures) {
    const serve::DiagnosisResult r = f.get();
    sink.deliver(r.sequence, serve::result_to_string(design_->netlist(), r));
  }
  service.shutdown();
  const auto ordered = sink.take_ordered();
  ASSERT_EQ(ordered.size(), 3u);  // the failure did not hold back the flush
  EXPECT_NE(ordered[0].find("status: TRANSIENT"), std::string::npos);
  EXPECT_NE(ordered[1].find("GNN verdict"), std::string::npos);
  EXPECT_NE(ordered[2].find("GNN verdict"), std::string::npos);
}

}  // namespace
}  // namespace m3dfl
