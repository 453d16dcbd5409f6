// Deterministic chaos harness for the streaming-session layer
// (acceptance test for the kStream* seams in serve/fault_injector.h).
//
// The load: every unique failure log replayed as a live feed through
// serve::SessionManager while the injector fires at the two stream seams.
// The contract under chaos:
//   - zero hangs: every session resolves exactly once, and the accounting
//     partition holds exactly —
//       sessions_opened == sessions_finalized + sessions_expired +
//                          sessions_evicted + live(),
//   - stream_records_rejected equals the malformed-bytes trigger count
//     (clean canonical feeds produce no organic rejections),
//   - sessions_expired equals the disconnect trigger count (deadlines are
//     disabled, so injection is the only expiry source),
//   - every kOk finalize is byte-identical to a clean service's batch
//     diagnosis of exactly the records the session accepted,
//   - a single-threaded rerun with the same seed reproduces the trigger
//     counts and statuses exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "diag/log_io.h"
#include "serve/fault_injector.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/status.h"

namespace m3dfl {
namespace {

class StreamChaosTest : public ::testing::Test {
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
    gen.num_samples = 16;
    gen.miv_fault_prob = 0.25;
    gen.seed = 0x57C4A05;
    logs_ = new std::vector<FailureLog>();
    std::set<std::string> seen;
    for (const Sample& s : generate_samples(design_->context(), gen)) {
      if (seen.insert(failure_log_to_string(s.log)).second) {
        logs_->push_back(s.log);
      }
    }
  }
  static void TearDownTestSuite() {
    delete logs_;
    delete framework_;
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

  // About one feed line in fifty disconnects, and one in seven arrives as
  // malformed bytes.
  static void arm_stream_seams(FaultInjector& injector) {
    injector.arm(serve::Seam::kStreamDisconnect, 0.02);
    injector.arm(serve::Seam::kStreamMalformedBytes, 0.15);
  }

  static std::vector<std::string> feed_lines(const FailureLog& log) {
    std::istringstream is(failure_log_to_string(log));
    std::vector<std::string> lines;
    std::string line;
    std::getline(is, line);  // header
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  }

  // One session's ride through the chaos: what it accepted and how it ended.
  struct SessionOutcome {
    serve::StatusCode status = serve::StatusCode::kOk;
    std::string result_text;  // result_to_string for kOk results
    std::string accepted_log;  // faillog text of the records that got in
    bool died_mid_feed = false;
  };

  // Feeds one log through one session and finalizes it.
  static SessionOutcome drive_session(serve::SessionManager& sessions,
                                      std::int32_t design_id,
                                      const FailureLog& log) {
    SessionOutcome outcome;
    const serve::SessionTicket ticket = sessions.begin_diagnosis(design_id);
    EXPECT_TRUE(ticket.admitted());
    std::string body;
    for (const std::string& line : feed_lines(log)) {
      const serve::SessionUpdate update =
          sessions.add_response(ticket.session_id, line);
      if (update.status == serve::StatusCode::kSessionExpired) {
        outcome.died_mid_feed = true;
        break;
      }
      // Rejected records (injected malformed bytes) never enter the log.
      if (update.status != serve::StatusCode::kOk) continue;
      if (!update.end_of_stream) body += line + "\n";
    }
    outcome.accepted_log = "m3dfl-faillog 1\n" + body + "end\n";
    const serve::DiagnosisResult result =
        sessions.finalize(ticket.session_id).get();
    outcome.status = result.status;
    if (result.status == serve::StatusCode::kOk) {
      outcome.result_text = serve::result_to_string(design_->netlist(), result);
    }
    return outcome;
  }

  static std::shared_ptr<const Design> design_;
  static DiagnosisFramework* framework_;
  static std::vector<FailureLog>* logs_;
};

std::shared_ptr<const Design> StreamChaosTest::design_;
DiagnosisFramework* StreamChaosTest::framework_ = nullptr;
std::vector<FailureLog>* StreamChaosTest::logs_ = nullptr;

TEST_F(StreamChaosTest, ConcurrentSessionsResolveExactlyOnceWithExactCounts) {
  auto injector =
      std::make_shared<FaultInjector>(serve::kNumSeams, 0xD15EA5E);
  arm_stream_seams(*injector);
  serve::ServiceOptions options;
  options.num_threads = 4;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManagerOptions mgr;
  mgr.max_sessions = 32;  // never under table pressure here
  serve::SessionManager sessions(service, mgr);

  // A clean twin (no injector) provides the batch reference for whatever
  // subset of records each chaotic session ended up accepting.
  serve::ServiceOptions clean_options;
  clean_options.num_threads = 1;
  serve::DiagnosisService clean = make_service(clean_options);
  const std::int32_t clean_id = clean.register_design(design_);

  constexpr int kFeeders = 4;
  std::vector<SessionOutcome> outcomes(logs_->size());
  std::vector<std::thread> feeders;
  std::mutex expect_mu;  // gtest EXPECTs inside drive_session
  for (int f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      for (std::size_t i = f; i < logs_->size(); i += kFeeders) {
        SessionOutcome outcome =
            drive_session(sessions, design_id, (*logs_)[i]);
        std::lock_guard<std::mutex> lock(expect_mu);
        outcomes[i] = std::move(outcome);
      }
    });
  }
  for (std::thread& t : feeders) t.join();

  // Every session resolved; none live, none wedged.
  EXPECT_EQ(sessions.live(), 0u);
  const serve::Metrics& m = service.metrics();
  const std::int64_t opened = m.sessions_opened.load();
  EXPECT_EQ(opened, static_cast<std::int64_t>(logs_->size()));
  EXPECT_EQ(m.sessions_evicted.load(), 0);
  EXPECT_EQ(m.sessions_shed.load(), 0);
  // The accounting partition, exactly.
  EXPECT_EQ(opened, m.sessions_finalized.load() + m.sessions_expired.load());
  // Expiry only comes from injected disconnects (deadlines off).
  EXPECT_EQ(m.sessions_expired.load(),
            injector->triggered(serve::Seam::kStreamDisconnect));
  // Rejections only come from injected malformed bytes (feeds are clean,
  // and every malformed-bytes shape is invalid by construction, so each
  // trigger is exactly one rejection).
  EXPECT_EQ(m.stream_records_rejected.load(),
            injector->triggered(serve::Seam::kStreamMalformedBytes));

  // Status partition + byte-identity of every kOk result against the clean
  // batch reference over exactly the accepted records.
  std::int64_t finalized_ok = 0;
  std::int64_t died = 0;
  for (const SessionOutcome& outcome : outcomes) {
    if (outcome.died_mid_feed) {
      ++died;
      EXPECT_EQ(outcome.status, serve::StatusCode::kSessionExpired);
      continue;
    }
    const FailureLog accepted =
        failure_log_from_string(outcome.accepted_log);
    const serve::DiagnosisResult reference =
        clean.diagnose(clean_id, accepted);
    EXPECT_EQ(outcome.status, reference.status);
    if (outcome.status == serve::StatusCode::kOk) {
      ++finalized_ok;
      EXPECT_EQ(outcome.result_text,
                serve::result_to_string(design_->netlist(), reference));
    }
  }
  EXPECT_EQ(died, m.sessions_expired.load());
  EXPECT_EQ(m.sessions_finalized.load(),
            static_cast<std::int64_t>(logs_->size()) - died);
  // Chaos at these rates must leave most sessions completing normally.
  EXPECT_GT(finalized_ok, 0);
  service.shutdown();
  clean.shutdown();
}

TEST_F(StreamChaosTest, SingleThreadedRerunReproducesCountsExactly) {
  const auto run = [&] {
    auto injector =
        std::make_shared<FaultInjector>(serve::kNumSeams, 0xBEEFCAFE);
    arm_stream_seams(*injector);
    serve::ServiceOptions options;
    options.num_threads = 1;
    options.fault_injector = injector;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    serve::SessionManager sessions(service);

    std::string transcript;
    for (const FailureLog& log : *logs_) {
      const SessionOutcome outcome = drive_session(sessions, design_id, log);
      transcript += status_name(outcome.status);
      transcript += "|";
      transcript += outcome.result_text;
      transcript += "\n";
    }
    transcript += "rejected=" +
                  std::to_string(service.metrics()
                                     .stream_records_rejected.load());
    transcript += " expired=" +
                  std::to_string(service.metrics().sessions_expired.load());
    for (const serve::Seam seam : {serve::Seam::kStreamDisconnect,
                                   serve::Seam::kStreamMalformedBytes}) {
      transcript += " t" + std::to_string(static_cast<int>(seam)) + "=" +
                    std::to_string(injector->triggered(seam));
    }
    service.shutdown();
    return transcript;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
}

// The adversarial-input seam: each trigger swaps the tester's line for
// deterministic malformed bytes (NUL-injected kind, trailing garbage after
// 'end', a line past the byte cap, a pattern past the numeric cap — the
// shape cycles with the call count, so four triggers cross all four).  The
// contract: every trigger resolves as a line-cited kInvalidInput rejection
// through the REAL parser and limit guardrails, accounting is exact, and
// the session survives to finalize.
TEST_F(StreamChaosTest, MalformedBytesSeamRejectsAllShapesThroughRealParsers) {
  auto injector =
      std::make_shared<FaultInjector>(serve::kNumSeams, 0xFEEDB17E);
  injector->arm_nth(serve::Seam::kStreamMalformedBytes, {1, 2, 3, 4});
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.fault_injector = injector;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManager sessions(service);

  // A feed with at least five lines: the first four are replaced (one per
  // shape) and the tail — including the real 'end' — arrives clean.
  const FailureLog* log = nullptr;
  for (const FailureLog& candidate : *logs_) {
    if (feed_lines(candidate).size() >= 5) {
      log = &candidate;
      break;
    }
  }
  ASSERT_NE(log, nullptr);

  const serve::SessionTicket ticket = sessions.begin_diagnosis(design_id);
  ASSERT_TRUE(ticket.admitted());
  std::int64_t rejected = 0;
  for (const std::string& line : feed_lines(*log)) {
    const serve::SessionUpdate update =
        sessions.add_response(ticket.session_id, line);
    ASSERT_NE(update.status, serve::StatusCode::kSessionExpired);
    if (update.status == serve::StatusCode::kInvalidInput) {
      ++rejected;
      // The rejection came from the real record parser, line-cited.
      EXPECT_NE(update.message.find("failure log line"), std::string::npos)
          << update.message;
    } else {
      EXPECT_EQ(update.status, serve::StatusCode::kOk) << update.message;
    }
  }
  // Exact accounting: triggers == kInvalidInput rejections == the metric.
  EXPECT_EQ(injector->triggered(serve::Seam::kStreamMalformedBytes), 4);
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(service.metrics().stream_records_rejected.load(), 4);
  // The session survives the garbage and resolves exactly once.
  const serve::DiagnosisResult result =
      sessions.finalize(ticket.session_id).get();
  EXPECT_NE(result.status, serve::StatusCode::kSessionExpired);
  EXPECT_EQ(sessions.live(), 0u);
  EXPECT_EQ(service.metrics().sessions_finalized.load(), 1);
  service.shutdown();
}

}  // namespace
}  // namespace m3dfl
