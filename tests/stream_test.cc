// diag::StreamingBacktrace and the serve::SessionManager session layer.
//
// The load-bearing contract: on any feed, a session's finalize() is
// byte-identical to the batch pipeline over the same accumulated log — the
// streaming path reuses the shared decision layer
// (select_backtrace_candidates) instead of reimplementing it, so the tests
// here pin identity, not similarity.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "diag/log_io.h"
#include "diag/stream_backtrace.h"
#include "graph/backtrace.h"
#include "graph/hetero_graph.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/status.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

// The log as the record sequence a tester feed would carry.
std::vector<StreamRecord> to_records(const FailureLog& log) {
  std::vector<StreamRecord> recs;
  StreamRecord mode;
  mode.kind = StreamRecord::Kind::kMode;
  mode.compacted = log.compacted;
  recs.push_back(mode);
  if (log.pattern_limit > 0) {
    StreamRecord limit;
    limit.kind = StreamRecord::Kind::kLimit;
    limit.pattern_limit = log.pattern_limit;
    recs.push_back(limit);
  }
  for (const Observation& o : log.scan_fails) {
    StreamRecord r;
    r.kind = StreamRecord::Kind::kScan;
    r.observation = o;
    recs.push_back(r);
  }
  for (const ChannelFail& c : log.channel_fails) {
    StreamRecord r;
    r.kind = StreamRecord::Kind::kChan;
    r.channel = c;
    recs.push_back(r);
  }
  for (const Observation& o : log.po_fails) {
    StreamRecord r;
    r.kind = StreamRecord::Kind::kPo;
    r.observation = o;
    recs.push_back(r);
  }
  StreamRecord end;
  end.kind = StreamRecord::Kind::kEnd;
  recs.push_back(end);
  return recs;
}

void expect_same_backtrace(const BacktraceResult& got,
                           const BacktraceResult& want) {
  EXPECT_EQ(got.candidates, want.candidates);
  ASSERT_EQ(got.support.size(), want.support.size());
  for (std::size_t i = 0; i < got.support.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.support[i], want.support[i]) << "support[" << i << "]";
  }
  EXPECT_EQ(got.num_responses, want.num_responses);
  EXPECT_EQ(got.relaxed, want.relaxed);
  ASSERT_EQ(got.quarantined.size(), want.quarantined.size());
  for (std::size_t i = 0; i < got.quarantined.size(); ++i) {
    EXPECT_EQ(got.quarantined[i].response_index,
              want.quarantined[i].response_index);
    EXPECT_EQ(got.quarantined[i].pattern, want.quarantined[i].pattern);
    EXPECT_DOUBLE_EQ(got.quarantined[i].overlap, want.quarantined[i].overlap);
  }
}

// ---- StreamingBacktrace unit tests -----------------------------------------

class StreamModes : public ::testing::TestWithParam<bool> {};

TEST_P(StreamModes, FinalizeMatchesBatchOnCleanFeeds) {
  testing::SmallDesign d(5);
  DataGenOptions opt;
  opt.num_samples = 20;
  opt.compacted = GetParam();
  opt.miv_fault_prob = 0.2;
  opt.max_failing_patterns = 0;
  opt.seed = 41;
  for (const Sample& sample : generate_samples(d.context(), opt)) {
    StreamingBacktrace stream(d.graph, d.context());
    for (const StreamRecord& r : to_records(sample.log)) stream.add(r);
    // The accumulated log reproduces the input (canonical order preserved).
    EXPECT_EQ(failure_log_to_string(stream.log()),
              failure_log_to_string(sample.log));
    const BacktraceResult batch =
        backtrace_with_support(d.graph, d.context(), sample.log);
    expect_same_backtrace(stream.finalize(), batch);
  }
}

TEST_P(StreamModes, FinalizeMatchesBatchOnPermutedFeeds) {
  // Records arrive in a scrambled order (a multi-site tester interleaving
  // kinds and patterns arbitrarily): finalize() must still equal the batch
  // path over the log the stream accumulated.
  testing::SmallDesign d(5);
  DataGenOptions opt;
  opt.num_samples = 10;
  opt.compacted = GetParam();
  opt.max_failing_patterns = 0;
  opt.seed = 43;
  std::uint64_t shuffle_state = 0x9E3779B97F4A7C15ull;
  const auto next = [&shuffle_state] {
    shuffle_state ^= shuffle_state << 13;
    shuffle_state ^= shuffle_state >> 7;
    shuffle_state ^= shuffle_state << 17;
    return shuffle_state;
  };
  for (const Sample& sample : generate_samples(d.context(), opt)) {
    std::vector<StreamRecord> recs = to_records(sample.log);
    // Keep the leading mode record and trailing 'end'; scramble the body.
    for (std::size_t i = recs.size() - 2; i > 1; --i) {
      std::swap(recs[i], recs[1 + next() % i]);
    }
    StreamingBacktrace stream(d.graph, d.context());
    // Replay the mode record first (a feed declares its mode up front).
    StreamRecord mode;
    mode.kind = StreamRecord::Kind::kMode;
    mode.compacted = sample.log.compacted;
    stream.add(mode);
    for (const StreamRecord& r : recs) {
      if (r.kind == StreamRecord::Kind::kMode) continue;
      stream.add(r);
    }
    const BacktraceResult batch =
        backtrace_with_support(d.graph, d.context(), stream.log());
    expect_same_backtrace(stream.finalize(), batch);
  }
}

TEST(StreamBacktraceTest, CleanFeedNarrowsMonotonically) {
  testing::SmallDesign d(5);
  DataGenOptions opt;
  opt.num_samples = 15;
  opt.max_failing_patterns = 0;
  opt.seed = 47;
  for (const Sample& sample : generate_samples(d.context(), opt)) {
    StreamingBacktrace stream(d.graph, d.context());
    const std::int32_t cap = StreamingOptions{}.backtrace.max_traced_responses;
    std::size_t last = 0;
    bool first = true;
    for (const StreamRecord& r : to_records(sample.log)) {
      if (stream.add(r) != StreamAccept::kAccepted) continue;
      // Past the thinning cap the decision layer scores a thinned subset,
      // which can legitimately widen the set; monotonicity is the fast
      // path's property.
      if (stream.num_responses() > cap) break;
      const StreamSnapshot& snap = stream.snapshot();
      if (snap.backtrace.noisy()) break;  // strict fast path left
      ASSERT_FALSE(snap.backtrace.candidates.empty());
      for (double s : snap.backtrace.support) EXPECT_DOUBLE_EQ(s, 1.0);
      if (!first) {
        EXPECT_LE(snap.backtrace.candidates.size(), last);
      }
      last = snap.backtrace.candidates.size();
      first = false;
    }
  }
}

TEST(StreamBacktraceTest, DuplicateRecordLeavesStateUntouched) {
  testing::SmallDesign d(5);
  DataGenOptions opt;
  opt.num_samples = 1;
  opt.max_failing_patterns = 0;
  opt.seed = 53;
  const auto samples = generate_samples(d.context(), opt);
  ASSERT_FALSE(samples.empty());
  StreamingBacktrace stream(d.graph, d.context());
  const std::vector<StreamRecord> recs = to_records(samples[0].log);
  StreamRecord repeat;
  bool have_repeat = false;
  for (const StreamRecord& r : recs) {
    if (r.kind == StreamRecord::Kind::kEnd) break;
    const StreamAccept accept = stream.add(r);
    if (accept == StreamAccept::kAccepted && !have_repeat) {
      repeat = r;
      have_repeat = true;
    }
  }
  ASSERT_TRUE(have_repeat);
  const std::int32_t before = stream.num_responses();
  const std::vector<NodeId> candidates = stream.snapshot().backtrace.candidates;
  EXPECT_EQ(stream.add(repeat), StreamAccept::kDuplicate);
  EXPECT_EQ(stream.num_responses(), before);
  EXPECT_EQ(stream.snapshot().backtrace.candidates, candidates);
}

TEST(StreamBacktraceTest, UnknownObservationPointRejectedBeforeStateChanges) {
  testing::SmallDesign d(5);
  DataGenOptions opt;
  opt.num_samples = 1;
  opt.max_failing_patterns = 0;
  opt.seed = 53;
  const auto samples = generate_samples(d.context(), opt);
  ASSERT_FALSE(samples.empty());
  StreamingBacktrace stream(d.graph, d.context());
  for (const StreamRecord& r : to_records(samples[0].log)) stream.add(r);
  const std::int32_t before = stream.num_responses();

  StreamRecord scan;
  scan.kind = StreamRecord::Kind::kScan;
  scan.observation = Observation{0, false, d.scan.num_flops()};
  StreamRecord po;
  po.kind = StreamRecord::Kind::kPo;
  po.observation = Observation{
      0, true, static_cast<std::int32_t>(d.netlist.primary_outputs().size())};
  StreamRecord chan;
  chan.kind = StreamRecord::Kind::kChan;
  chan.channel = ChannelFail{0, d.compactor.num_channels(), 0};
  for (const StreamRecord& bad : {scan, po, chan}) {
    EXPECT_THROW(stream.add(bad), Error);
  }
  // Nothing was recorded, so the session still finalizes like the batch
  // path over the log it accepted.
  EXPECT_EQ(stream.num_responses(), before);
  EXPECT_EQ(failure_log_to_string(stream.log()),
            failure_log_to_string(samples[0].log));
  expect_same_backtrace(
      stream.finalize(),
      backtrace_with_support(d.graph, d.context(), samples[0].log));
}

TEST(StreamBacktraceTest, OnlineQuarantineCondemnsAndRehabilitates) {
  // Two faults with disjoint candidate sets; a short burst of fault-A
  // evidence followed by a longer fault-B stream.  When B overtakes the
  // consensus, the early B response condemned by A's majority must be
  // rehabilitated, and finalize must still equal batch over the mixed log.
  testing::SmallDesign d(5);
  DataGenOptions opt;
  opt.num_samples = 25;
  opt.max_failing_patterns = 0;
  opt.seed = 59;
  const auto samples = generate_samples(d.context(), opt);

  const auto failing = [](const FailureLog& log) {
    std::vector<StreamRecord> recs;
    for (const StreamRecord& r : to_records(log)) {
      if (r.kind == StreamRecord::Kind::kScan ||
          r.kind == StreamRecord::Kind::kChan ||
          r.kind == StreamRecord::Kind::kPo) {
        recs.push_back(r);
      }
    }
    return recs;
  };

  // Find a pair with disjoint batch candidate sets and enough records.
  for (std::size_t a = 0; a < samples.size(); ++a) {
    for (std::size_t b = 0; b < samples.size(); ++b) {
      if (a == b) continue;
      const std::vector<StreamRecord> recs_a = failing(samples[a].log);
      const std::vector<StreamRecord> recs_b = failing(samples[b].log);
      if (recs_a.size() < 2 || recs_b.size() < 6) continue;
      const std::vector<NodeId> cand_a =
          backtrace_with_support(d.graph, d.context(), samples[a].log)
              .candidates;
      const std::vector<NodeId> cand_b =
          backtrace_with_support(d.graph, d.context(), samples[b].log)
              .candidates;
      std::vector<NodeId> common;
      std::set_intersection(cand_a.begin(), cand_a.end(), cand_b.begin(),
                            cand_b.end(), std::back_inserter(common));
      if (!common.empty()) continue;

      StreamingBacktrace stream(d.graph, d.context());
      StreamRecord mode;
      mode.kind = StreamRecord::Kind::kMode;
      mode.compacted = false;
      stream.add(mode);
      stream.add(recs_a[0]);
      stream.add(recs_a[1]);
      for (const StreamRecord& r : recs_b) stream.add(r);

      const StreamSnapshot& snap = stream.snapshot();
      EXPECT_GT(snap.condemnations, 0);
      EXPECT_GT(snap.rehabilitations, 0);
      const BacktraceResult batch =
          backtrace_with_support(d.graph, d.context(), stream.log());
      expect_same_backtrace(stream.finalize(), batch);
      return;
    }
  }
  GTEST_SKIP() << "no disjoint sample pair in this seed's draw";
}

TEST(StreamBacktraceTest, StabilityLatchesEarlyExitPoint) {
  testing::SmallDesign d(5);
  DataGenOptions opt;
  opt.num_samples = 20;
  opt.max_failing_patterns = 0;
  opt.seed = 61;
  StreamingOptions stream_opt;
  stream_opt.tp_threshold = 0.7;
  stream_opt.stability_window = 3;
  bool any_stable = false;
  for (const Sample& sample : generate_samples(d.context(), opt)) {
    StreamingBacktrace stream(d.graph, d.context(), stream_opt);
    std::int32_t latched = -1;
    for (const StreamRecord& r : to_records(sample.log)) {
      if (stream.add(r) != StreamAccept::kAccepted) continue;
      const StreamSnapshot& snap = stream.snapshot();
      if (snap.stable && latched < 0) {
        latched = snap.early_exit_at;
        EXPECT_EQ(latched, stream.num_responses());
        any_stable = true;
      }
      if (latched >= 0) {
        // Latched: the early-exit point survives further responses.
        EXPECT_EQ(snap.early_exit_at, latched);
      } else {
        EXPECT_EQ(snap.early_exit_at, -1);
      }
    }
  }
  EXPECT_TRUE(any_stable) << "no sample stabilized at T_P = 0.7";
}

INSTANTIATE_TEST_SUITE_P(BypassAndCompacted, StreamModes,
                         ::testing::Bool());

// ---- session-layer tests ---------------------------------------------------

// One shared design + trained framework for the service-level tests
// (expensive to build, read-only afterwards) — the serve_test pattern.
class SessionTest : public ::testing::Test {
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
    gen.num_samples = 4;
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

  static serve::DiagnosisService make_service(
      const serve::ServiceOptions& options) {
    std::stringstream model;
    framework_->save(model);
    return serve::DiagnosisService(model, options);
  }

  // The faillog body lines (everything after the header) of `log`.
  static std::vector<std::string> feed_lines(const FailureLog& log) {
    std::istringstream is(failure_log_to_string(log));
    std::vector<std::string> lines;
    std::string line;
    std::getline(is, line);  // drop the "m3dfl-faillog 1" header
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  }

  static std::shared_ptr<const Design> design_;
  static DiagnosisFramework* framework_;
  static std::vector<FailureLog>* logs_;
};

std::shared_ptr<const Design> SessionTest::design_;
DiagnosisFramework* SessionTest::framework_ = nullptr;
std::vector<FailureLog>* SessionTest::logs_ = nullptr;

TEST_F(SessionTest, StreamedDiagnosisMatchesBatchByteForByte) {
  // Session path on one service, direct batch path on another: the streamed
  // result (precomputed back-trace injected into the worker) must be
  // byte-identical to the batch pipeline.
  serve::ServiceOptions options;
  options.num_threads = 2;
  serve::DiagnosisService stream_service = make_service(options);
  serve::DiagnosisService batch_service = make_service(options);
  const std::int32_t stream_id = stream_service.register_design(design_);
  const std::int32_t batch_id = batch_service.register_design(design_);

  serve::SessionManager sessions(stream_service);
  for (const FailureLog& log : *logs_) {
    const serve::SessionTicket ticket = sessions.begin_diagnosis(stream_id);
    ASSERT_TRUE(ticket.admitted());
    bool saw_end = false;
    for (const std::string& line : feed_lines(log)) {
      const serve::SessionUpdate update =
          sessions.add_response(ticket.session_id, line);
      EXPECT_EQ(update.status, serve::StatusCode::kOk) << update.message;
      saw_end = saw_end || update.end_of_stream;
    }
    EXPECT_TRUE(saw_end);
    const serve::DiagnosisResult via_stream =
        sessions.finalize(ticket.session_id).get();
    ASSERT_EQ(via_stream.status, serve::StatusCode::kOk)
        << via_stream.status_message;
    const serve::DiagnosisResult via_batch =
        batch_service.diagnose(batch_id, log);
    ASSERT_EQ(via_batch.status, serve::StatusCode::kOk);
    EXPECT_EQ(serve::result_to_string(design_->netlist(), via_stream),
              serve::result_to_string(design_->netlist(), via_batch));
  }
  EXPECT_EQ(sessions.live(), 0u);
  EXPECT_EQ(stream_service.metrics().sessions_opened.load(),
            static_cast<std::int64_t>(logs_->size()));
  EXPECT_EQ(stream_service.metrics().sessions_finalized.load(),
            static_cast<std::int64_t>(logs_->size()));
  stream_service.shutdown();
  batch_service.shutdown();
}

TEST_F(SessionTest, RejectedRecordsAreLineCitedAndSessionSurvives) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManager sessions(service);
  const FailureLog& log = logs_->front();

  const serve::SessionTicket ticket = sessions.begin_diagnosis(design_id);
  ASSERT_TRUE(ticket.admitted());
  std::vector<std::string> lines = feed_lines(log);
  ASSERT_GE(lines.size(), 3u);

  // Malformed record: rejected with the faillog grammar's line citation.
  serve::SessionUpdate update =
      sessions.add_response(ticket.session_id, "scan nonsense");
  EXPECT_EQ(update.status, serve::StatusCode::kInvalidInput);
  EXPECT_NE(update.message.find("line 2"), std::string::npos)
      << update.message;
  EXPECT_TRUE(sessions.contains(ticket.session_id));

  // Clean feed (hold back the trailer so the session keeps accepting).
  std::string last_failing;
  std::int32_t last_pattern = 0;
  for (const std::string& line : lines) {
    if (line == "end") break;
    update = sessions.add_response(ticket.session_id, line);
    EXPECT_EQ(update.status, serve::StatusCode::kOk) << update.message;
    if (update.accepted) {
      last_failing = line;
      std::istringstream is(line);
      std::string word;
      is >> word >> last_pattern;
    }
  }
  ASSERT_FALSE(last_failing.empty());

  // Re-feeding the most recent record: its pattern equals the watermark, so
  // it passes the ordering check and lands on duplicate rejection.
  update = sessions.add_response(ticket.session_id, last_failing);
  EXPECT_EQ(update.status, serve::StatusCode::kInvalidInput);
  EXPECT_NE(update.message.find("duplicate"), std::string::npos)
      << update.message;

  // A record whose pattern regresses below the watermark is rejected as
  // out-of-order (only synthesizable when the watermark moved past 0).
  if (last_pattern > 0) {
    std::istringstream is(last_failing);
    std::string word;
    std::int32_t pattern = 0;
    is >> word >> pattern;
    const std::string out_of_order =
        word + " 0" +
        last_failing.substr(word.size() + 1 + std::to_string(pattern).size());
    update = sessions.add_response(ticket.session_id, out_of_order);
    EXPECT_EQ(update.status, serve::StatusCode::kInvalidInput);
    EXPECT_NE(update.message.find("out-of-order"), std::string::npos)
        << update.message;
  }

  // The rejected records never entered the log: finalize equals batch.
  const serve::DiagnosisResult via_stream =
      sessions.finalize(ticket.session_id).get();
  ASSERT_EQ(via_stream.status, serve::StatusCode::kOk);
  EXPECT_GE(service.metrics().stream_records_rejected.load(),
            last_pattern > 0 ? 3 : 2);
  service.shutdown();
}

TEST_F(SessionTest, IdleDeadlineExpiresAtNextTouch) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManagerOptions mgr;
  mgr.idle_deadline_ms = 1000.0;
  serve::SessionManager sessions(service, mgr);

  const auto t0 = serve::SessionManager::Clock::now();
  const serve::SessionTicket ticket =
      sessions.begin_diagnosis(design_id, {}, t0);
  ASSERT_TRUE(ticket.admitted());

  // Within the deadline: alive.
  serve::SessionUpdate update = sessions.add_response(
      ticket.session_id, "mode bypass", t0 + std::chrono::milliseconds(500));
  EXPECT_EQ(update.status, serve::StatusCode::kOk);

  // Idle past the deadline: the next touch expires it.
  update = sessions.add_response(ticket.session_id, "scan 0 0",
                                 t0 + std::chrono::milliseconds(2000));
  EXPECT_EQ(update.status, serve::StatusCode::kSessionExpired);
  EXPECT_FALSE(sessions.contains(ticket.session_id));
  EXPECT_EQ(service.metrics().sessions_expired.load(), 1);

  // A dead session's finalize resolves immediately, without a worker.
  const serve::DiagnosisResult result =
      sessions.finalize(ticket.session_id).get();
  EXPECT_EQ(result.status, serve::StatusCode::kSessionExpired);
  EXPECT_EQ(service.metrics().requests_submitted.load(), 0);
  service.shutdown();
}

TEST_F(SessionTest, SweepExpiresOverdueSessionsInBulk) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManagerOptions mgr;
  mgr.max_lifetime_ms = 1000.0;
  serve::SessionManager sessions(service, mgr);

  const auto t0 = serve::SessionManager::Clock::now();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sessions.begin_diagnosis(design_id, {}, t0).admitted());
  }
  EXPECT_EQ(sessions.live(), 3u);
  EXPECT_EQ(sessions.sweep(t0 + std::chrono::milliseconds(500)), 0u);
  EXPECT_EQ(sessions.sweep(t0 + std::chrono::milliseconds(1500)), 3u);
  EXPECT_EQ(sessions.live(), 0u);
  EXPECT_EQ(service.metrics().sessions_expired.load(), 3);
  service.shutdown();
}

TEST_F(SessionTest, FullTableEvictsLeastRecentlyActive) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManagerOptions mgr;
  mgr.max_sessions = 2;
  mgr.evict_lru = true;
  serve::SessionManager sessions(service, mgr);

  const auto t0 = serve::SessionManager::Clock::now();
  const auto s1 = sessions.begin_diagnosis(design_id, {}, t0);
  const auto s2 = sessions.begin_diagnosis(
      design_id, {}, t0 + std::chrono::milliseconds(10));
  // Touch s1 so s2 becomes the least recently active.
  sessions.add_response(s1.session_id, "mode bypass",
                        t0 + std::chrono::milliseconds(20));
  const auto s3 = sessions.begin_diagnosis(
      design_id, {}, t0 + std::chrono::milliseconds(30));
  ASSERT_TRUE(s3.admitted());
  EXPECT_EQ(sessions.live(), 2u);
  EXPECT_TRUE(sessions.contains(s1.session_id));
  EXPECT_FALSE(sessions.contains(s2.session_id));
  EXPECT_TRUE(sessions.contains(s3.session_id));
  EXPECT_EQ(service.metrics().sessions_evicted.load(), 1);
  EXPECT_EQ(sessions.add_response(s2.session_id, "mode bypass").status,
            serve::StatusCode::kSessionExpired);
  service.shutdown();
}

TEST_F(SessionTest, FullTableShedsWhenEvictionDisabled) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManagerOptions mgr;
  mgr.max_sessions = 1;
  mgr.evict_lru = false;
  serve::SessionManager sessions(service, mgr);

  ASSERT_TRUE(sessions.begin_diagnosis(design_id).admitted());
  const serve::SessionTicket shed = sessions.begin_diagnosis(design_id);
  EXPECT_EQ(shed.status, serve::StatusCode::kOverloaded);
  EXPECT_EQ(service.metrics().sessions_shed.load(), 1);
  EXPECT_EQ(sessions.live(), 1u);
  service.shutdown();
}

TEST_F(SessionTest, UnknownDesignThrowsLikeSubmit) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  serve::SessionManager sessions(service);
  EXPECT_THROW(sessions.begin_diagnosis(99), Error);
  service.shutdown();
}

}  // namespace
}  // namespace m3dfl
