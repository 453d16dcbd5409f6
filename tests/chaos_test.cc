// Deterministic chaos harness for the serving fault-tolerance layer
// (acceptance test for the fault-injection seams in serve/fault_injector.h).
//
// The load: every unique failure log submitted once across 8 workers while
// the injector fires at every seam.  The contract under chaos:
//   - zero hangs and zero lost requests (every sequence resolves once),
//   - only statuses the armed faults can produce,
//   - Metrics status counts equal both the per-result tallies and the
//     injector's trigger counts (exact accounting: with max_retries=0 each
//     trigger fails exactly one request),
//   - every kOk response is byte-identical to the serial no-injection run,
//   - a rerun with the same seeds reproduces the counts exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "diag/atpg_diagnosis.h"
#include "diag/log_io.h"
#include "serve/fault_injector.h"
#include "serve/service.h"
#include "serve/status.h"

namespace m3dfl {
namespace {

class ChaosTest : public ::testing::Test {
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

    // Unique logs only: duplicate signatures would coalesce (single-flight)
    // or hit the cache, and a follower inheriting a leader's failure would
    // break the one-trigger-one-failure accounting this test pins.
    DataGenOptions gen;
    gen.num_samples = 40;
    gen.miv_fault_prob = 0.25;
    gen.seed = 0xC4A05;
    logs_ = new std::vector<FailureLog>();
    std::set<std::string> seen;
    for (const Sample& s : generate_samples(design_->context(), gen)) {
      if (seen.insert(failure_log_to_string(s.log)).second) {
        logs_->push_back(s.log);
      }
    }
    // The serial no-injection baseline every kOk chaos result must match.
    baseline_ = new std::vector<std::string>();
    serve::ServiceOptions serial;
    serial.num_threads = 1;
    serve::DiagnosisService service = make_service(serial);
    const std::int32_t design_id = service.register_design(design_);
    for (const FailureLog& log : *logs_) {
      const serve::DiagnosisResult result = service.diagnose(design_id, log);
      ASSERT_EQ(result.status, serve::StatusCode::kOk);
      baseline_->push_back(serve::result_to_string(design_->netlist(), result));
    }
    service.shutdown();
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete logs_;
    delete framework_;
    baseline_ = nullptr;
    logs_ = nullptr;
    framework_ = nullptr;
    design_.reset();
  }

  static serve::DiagnosisService make_service(
      const serve::ServiceOptions& options) {
    std::stringstream model;
    framework_->save(model);
    return serve::DiagnosisService(model, options);
  }

  // Arms every seam a request crosses; ~33% of requests see a fault.
  static void arm_all_seams(FaultInjector& injector) {
    injector.arm(serve::Seam::kQueueAdmit, 0.08);
    injector.arm(serve::Seam::kCacheLookup, 0.10);
    injector.arm(serve::Seam::kCacheInsert, 0.08);
    injector.arm(serve::Seam::kModelPredict, 0.12);
  }

  struct RunOutcome {
    std::map<serve::StatusCode, std::int64_t> statuses;  // per-result tally
    std::vector<std::string> ok_texts;  // indexed by log position, "" if not ok
    std::uint64_t triggered[serve::kNumSeams] = {};
    std::int64_t metrics_status[serve::kNumStatusCodes] = {};
    std::int64_t retries = 0;
  };

  // Submits every unique log once across the pool and collects everything
  // the accounting assertions need.  Fails the test on a lost or duplicated
  // sequence.
  static RunOutcome run_chaos(const serve::ServiceOptions& options,
                              const std::shared_ptr<FaultInjector>&
                                  injector) {
    RunOutcome outcome;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    std::vector<std::future<serve::DiagnosisResult>> futures;
    for (const FailureLog& log : *logs_) {
      futures.push_back(service.submit(design_id, log));
    }
    std::set<std::uint64_t> sequences;
    outcome.ok_texts.resize(logs_->size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::DiagnosisResult result = futures[i].get();
      EXPECT_TRUE(sequences.insert(result.sequence).second)
          << "sequence " << result.sequence << " resolved twice";
      ++outcome.statuses[result.status];
      if (result.ok()) {
        outcome.ok_texts[i] =
            serve::result_to_string(design_->netlist(), result);
      }
    }
    EXPECT_EQ(sequences.size(), logs_->size()) << "lost requests";
    service.shutdown();
    for (int s = 0; s < serve::kNumSeams; ++s) {
      outcome.triggered[s] = injector->triggered(static_cast<serve::Seam>(s));
    }
    for (int c = 0; c < serve::kNumStatusCodes; ++c) {
      outcome.metrics_status[c] =
          service.metrics().status_count(static_cast<serve::StatusCode>(c));
    }
    outcome.retries = service.metrics().retries.load();
    return outcome;
  }

  static std::shared_ptr<const Design> design_;
  static DiagnosisFramework* framework_;
  static std::vector<FailureLog>* logs_;
  static std::vector<std::string>* baseline_;
};

std::shared_ptr<const Design> ChaosTest::design_;
DiagnosisFramework* ChaosTest::framework_ = nullptr;
std::vector<FailureLog>* ChaosTest::logs_ = nullptr;
std::vector<std::string>* ChaosTest::baseline_ = nullptr;

TEST_F(ChaosTest, EightWorkerChaosRunHasExactAccounting) {
  ASSERT_GE(logs_->size(), 24u);  // enough unique signatures to mean anything
  const std::int64_t total =
      static_cast<std::int64_t>(logs_->size());

  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 0xC4A05);
  arm_all_seams(*injector);
  serve::ServiceOptions options;
  options.num_threads = 8;
  options.max_retries = 0;  // one trigger fails exactly one request
  options.fault_injector = injector;
  const RunOutcome outcome = run_chaos(options, injector);

  // Only statuses the armed faults can produce.
  for (const auto& [status, count] : outcome.statuses) {
    EXPECT_TRUE(status == serve::StatusCode::kOk ||
                status == serve::StatusCode::kOverloaded ||
                status == serve::StatusCode::kTransient)
        << "unexpected status " << serve::status_name(status) << " x" << count;
  }

  // >= 20% of the load actually hit an injected fault.
  std::uint64_t total_triggered = 0;
  for (int s = 0; s < serve::kNumSeams; ++s) {
    total_triggered += outcome.triggered[s];
  }
  EXPECT_GE(total_triggered, (logs_->size() + 4) / 5)
      << "chaos run was not chaotic enough";
  EXPECT_LT(static_cast<std::int64_t>(total_triggered), total)
      << "some requests must survive to pin determinism";

  // Exact accounting: Metrics == per-result tallies == injector triggers.
  const auto tally = [&outcome](serve::StatusCode status) {
    const auto it = outcome.statuses.find(status);
    return it == outcome.statuses.end() ? std::int64_t{0} : it->second;
  };
  EXPECT_EQ(outcome.metrics_status[static_cast<int>(serve::StatusCode::kOk)],
            tally(serve::StatusCode::kOk));
  EXPECT_EQ(
      outcome.metrics_status[static_cast<int>(serve::StatusCode::kOverloaded)],
      tally(serve::StatusCode::kOverloaded));
  EXPECT_EQ(
      outcome.metrics_status[static_cast<int>(serve::StatusCode::kTransient)],
      tally(serve::StatusCode::kTransient));
  EXPECT_EQ(tally(serve::StatusCode::kOverloaded),
            static_cast<std::int64_t>(
                outcome.triggered[static_cast<int>(serve::Seam::kQueueAdmit)]));
  EXPECT_EQ(
      tally(serve::StatusCode::kTransient),
      static_cast<std::int64_t>(
          outcome.triggered[static_cast<int>(serve::Seam::kCacheLookup)] +
          outcome.triggered[static_cast<int>(serve::Seam::kCacheInsert)] +
          outcome.triggered[static_cast<int>(serve::Seam::kModelPredict)]));
  EXPECT_EQ(tally(serve::StatusCode::kOk) +
                tally(serve::StatusCode::kOverloaded) +
                tally(serve::StatusCode::kTransient),
            total);

  // Every kOk response is byte-identical to the serial no-injection run.
  std::int64_t num_ok = 0;
  for (std::size_t i = 0; i < outcome.ok_texts.size(); ++i) {
    if (outcome.ok_texts[i].empty()) continue;
    ++num_ok;
    EXPECT_EQ(outcome.ok_texts[i], (*baseline_)[i]) << "request " << i;
  }
  EXPECT_EQ(num_ok, tally(serve::StatusCode::kOk));

  // A rerun with the same seeds reproduces the run exactly: per-seam
  // trigger counts, per-status counts, and the surviving responses.
  auto injector2 = std::make_shared<FaultInjector>(serve::kNumSeams, 0xC4A05);
  arm_all_seams(*injector2);
  serve::ServiceOptions options2 = options;
  options2.fault_injector = injector2;
  const RunOutcome rerun = run_chaos(options2, injector2);
  for (int s = 0; s < serve::kNumSeams; ++s) {
    EXPECT_EQ(rerun.triggered[s], outcome.triggered[s])
        << serve::seam_name(static_cast<serve::Seam>(s));
  }
  EXPECT_EQ(rerun.statuses, outcome.statuses);
  // Which request absorbs which draw depends on worker interleaving, so the
  // set of survivors may differ between runs — but every survivor still
  // matches the serial bytes.
  for (std::size_t i = 0; i < rerun.ok_texts.size(); ++i) {
    if (rerun.ok_texts[i].empty()) continue;
    EXPECT_EQ(rerun.ok_texts[i], (*baseline_)[i]) << "rerun request " << i;
  }
}

TEST_F(ChaosTest, TotalModelOutageDegradesEveryRequest) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 0xC4A05);
  injector->arm(serve::Seam::kModelPredict, 1.0,
                serve::FaultKind::kModelUnavailable);
  serve::ServiceOptions options;
  options.num_threads = 8;
  options.degraded_fallback = true;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);

  const DesignContext ctx = design_->context();
  std::vector<std::future<serve::DiagnosisResult>> futures;
  for (const FailureLog& log : *logs_) {
    futures.push_back(service.submit(design_id, log));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::DiagnosisResult result = futures[i].get();
    EXPECT_EQ(result.status, serve::StatusCode::kOk) << "request " << i;
    EXPECT_TRUE(result.degraded);
    serve::DiagnosisResult expected;
    expected.design = design_->name();
    expected.degraded = true;
    expected.report = diagnose_atpg(ctx, (*logs_)[i]);
    EXPECT_EQ(serve::result_to_string(design_->netlist(), result),
              serve::result_to_string(design_->netlist(), expected))
        << "request " << i;
  }
  service.shutdown();
  EXPECT_EQ(service.metrics().degraded_results.load(),
            static_cast<std::int64_t>(logs_->size()));
  EXPECT_EQ(service.metrics().status_count(serve::StatusCode::kOk),
            static_cast<std::int64_t>(logs_->size()));
}

TEST_F(ChaosTest, RetriesRideOutChaosWithoutChangingAnswers) {
  auto injector = std::make_shared<FaultInjector>(serve::kNumSeams, 0xC4A05);
  // Transient-only chaos (admission sheds are terminal, not retryable).
  injector->arm(serve::Seam::kCacheLookup, 0.10);
  injector->arm(serve::Seam::kCacheInsert, 0.08);
  injector->arm(serve::Seam::kModelPredict, 0.12);
  serve::ServiceOptions options;
  options.num_threads = 8;
  options.max_retries = 3;
  options.backoff_base_ms = 0.01;
  options.backoff_cap_ms = 0.1;
  options.fault_injector = injector;
  const RunOutcome outcome = run_chaos(options, injector);

  // Retries absorbed faults: some fired, and at least one request needed
  // more than one attempt, yet answers are still the serial bytes.
  EXPECT_GT(injector->total_triggered(), 0u);
  EXPECT_GT(outcome.retries, 0);
  std::int64_t num_ok = 0;
  for (std::size_t i = 0; i < outcome.ok_texts.size(); ++i) {
    if (outcome.ok_texts[i].empty()) continue;
    ++num_ok;
    EXPECT_EQ(outcome.ok_texts[i], (*baseline_)[i]) << "request " << i;
  }
  // With a 3-retry budget against ~30% transient chaos, nearly everything
  // completes; assert the overwhelming majority did (a request only fails
  // after four consecutive triggers).
  EXPECT_GE(num_ok, static_cast<std::int64_t>(logs_->size()) - 1);
}

}  // namespace
}  // namespace m3dfl
