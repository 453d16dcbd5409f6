// Kill-and-recover chaos harness for crash-safe serving (acceptance test
// for serve/journal.h + SessionManager::recover()).
//
// The load: live tester feeds through a journaled serve::SessionManager,
// killed (manager + service destroyed with no tombstone, exactly what a
// crash leaves behind) at every journal-record boundary.  The contract:
//   - a recovered session finalizes byte-identical to the uninterrupted
//     run, at every kill point,
//   - a torn tail (kJournalTornWrite) loses exactly the torn frame: the
//     recovered session equals a clean run over the surviving prefix, and
//     the recovery cites the torn offset,
//   - recovered-vs-expired-vs-discarded accounting is exact against the
//     injected wall clock and the registered design set,
//   - concurrent journaled sessions keep the accounting partition and
//     leave a journal whose replay shows every session closed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "diag/log_io.h"
#include "scratch_dir.h"
#include "serve/fault_injector.h"
#include "serve/journal.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/status.h"

namespace m3dfl {
namespace {

namespace fs = std::filesystem;

class RecoveryChaosTest : public ::testing::Test {
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
    gen.num_samples = 12;
    gen.miv_fault_prob = 0.25;
    gen.seed = 0xC4A5;
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

  static std::string scratch_dir(const std::string& name) {
    return testing::scratch_dir("recovery_" + name).string();
  }

  // Body lines of the faillog text feed (header handled by the session).
  static std::vector<std::string> feed_lines(const FailureLog& log) {
    std::istringstream is(failure_log_to_string(log));
    std::vector<std::string> lines;
    std::string line;
    std::getline(is, line);  // header
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  }

  struct Outcome {
    serve::StatusCode status = serve::StatusCode::kOk;
    std::string text;  // result_to_string for kOk
  };

  // Feeds lines[from..) into an already-open session and finalizes it.
  static Outcome finish(serve::SessionManager& manager,
                        std::uint64_t session_id,
                        const std::vector<std::string>& lines,
                        std::size_t from) {
    for (std::size_t i = from; i < lines.size(); ++i) {
      const serve::SessionUpdate update =
          manager.add_response(session_id, lines[i]);
      EXPECT_NE(update.status, serve::StatusCode::kSessionExpired)
          << "line " << i << ": " << update.message;
    }
    Outcome outcome;
    const serve::DiagnosisResult result = manager.finalize(session_id).get();
    outcome.status = result.status;
    if (result.status == serve::StatusCode::kOk) {
      outcome.text = serve::result_to_string(design_->netlist(), result);
    }
    return outcome;
  }

  // The uninterrupted reference: one clean, journal-less session over the
  // first `count` lines.
  static Outcome clean_reference(const std::vector<std::string>& lines,
                                 std::size_t count) {
    serve::ServiceOptions options;
    options.num_threads = 1;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    serve::SessionManager manager(service);
    const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
    EXPECT_TRUE(ticket.admitted());
    std::vector<std::string> prefix(lines.begin(), lines.begin() + count);
    return finish(manager, ticket.session_id, prefix, 0);
  }

  static std::shared_ptr<const Design> design_;
  static DiagnosisFramework* framework_;
  static std::vector<FailureLog>* logs_;
};

std::shared_ptr<const Design> RecoveryChaosTest::design_;
DiagnosisFramework* RecoveryChaosTest::framework_ = nullptr;
std::vector<FailureLog>* RecoveryChaosTest::logs_ = nullptr;

// The tentpole contract: kill after every journal-record boundary (k fed
// lines, k = 0..N, N including the 'end' trailer), recover into a fresh
// service, finish the feed, and demand the byte-identical result.
TEST_F(RecoveryChaosTest, KillAtEveryRecordBoundaryFinalizesByteIdentical) {
  // The longest feed gives the most boundaries.
  std::size_t pick = 0;
  for (std::size_t i = 1; i < logs_->size(); ++i) {
    if (feed_lines((*logs_)[i]).size() > feed_lines((*logs_)[pick]).size()) {
      pick = i;
    }
  }
  const std::vector<std::string> lines = feed_lines((*logs_)[pick]);
  ASSERT_GE(lines.size(), 3u);
  const Outcome expected = clean_reference(lines, lines.size());
  ASSERT_EQ(expected.status, serve::StatusCode::kOk);

  for (std::size_t k = 0; k <= lines.size(); ++k) {
    const std::string dir = scratch_dir("boundary_" + std::to_string(k));
    serve::SessionManagerOptions mgr;
    mgr.journal_dir = dir;
    {
      // Feed k lines, then crash: destroyed with no finalize, no tombstone.
      serve::ServiceOptions options;
      options.num_threads = 1;
      serve::DiagnosisService service = make_service(options);
      const std::int32_t design_id = service.register_design(design_);
      serve::SessionManager manager(service, mgr);
      const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
      ASSERT_TRUE(ticket.admitted());
      for (std::size_t i = 0; i < k; ++i) {
        manager.add_response(ticket.session_id, lines[i]);
      }
      ASSERT_TRUE(manager.journal() != nullptr &&
                  manager.journal()->durable());
    }

    // Restart: a fresh service and manager over the same journal.
    serve::ServiceOptions options;
    options.num_threads = 1;
    serve::DiagnosisService service = make_service(options);
    service.register_design(design_);
    serve::SessionManager manager(service, mgr);
    const serve::RecoveryStats stats = manager.recover();
    ASSERT_EQ(stats.recovered, 1u) << "kill point " << k;
    EXPECT_EQ(stats.expired, 0u);
    EXPECT_EQ(stats.discarded, 0u);
    EXPECT_EQ(stats.lines_replayed, k);
    EXPECT_TRUE(stats.diagnostics.empty());
    EXPECT_EQ(service.metrics().sessions_recovered.load(), 1);

    const Outcome outcome =
        finish(manager, stats.recovered_ids.at(0), lines, k);
    EXPECT_EQ(outcome.status, serve::StatusCode::kOk) << "kill point " << k;
    EXPECT_EQ(outcome.text, expected.text) << "kill point " << k;

    // The finalize tombstone landed: a second recovery finds nothing.
    serve::DiagnosisService after = make_service(options);
    after.register_design(design_);
    serve::SessionManager checker(after, mgr);
    const serve::RecoveryStats none = checker.recover();
    EXPECT_EQ(none.recovered + none.expired + none.discarded, 0u)
        << "kill point " << k;
  }
}

// Breadth: every log in the corpus killed mid-feed once.
TEST_F(RecoveryChaosTest, MidFeedKillRecoversByteIdenticalForEveryLog) {
  for (std::size_t i = 0; i < logs_->size(); ++i) {
    const std::vector<std::string> lines = feed_lines((*logs_)[i]);
    const std::size_t k = lines.size() / 2;
    const std::string dir = scratch_dir("log_" + std::to_string(i));
    serve::SessionManagerOptions mgr;
    mgr.journal_dir = dir;
    {
      serve::ServiceOptions options;
      options.num_threads = 1;
      serve::DiagnosisService service = make_service(options);
      const std::int32_t design_id = service.register_design(design_);
      serve::SessionManager manager(service, mgr);
      const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
      ASSERT_TRUE(ticket.admitted());
      for (std::size_t j = 0; j < k; ++j) {
        manager.add_response(ticket.session_id, lines[j]);
      }
    }
    serve::ServiceOptions options;
    options.num_threads = 1;
    serve::DiagnosisService service = make_service(options);
    service.register_design(design_);
    serve::SessionManager manager(service, mgr);
    const serve::RecoveryStats stats = manager.recover();
    ASSERT_EQ(stats.recovered, 1u) << "log " << i;
    const Outcome outcome =
        finish(manager, stats.recovered_ids.at(0), lines, k);
    const Outcome expected = clean_reference(lines, lines.size());
    EXPECT_EQ(outcome.status, expected.status) << "log " << i;
    EXPECT_EQ(outcome.text, expected.text) << "log " << i;
  }
}

// A torn tail loses exactly the torn frame: recovery accepts the valid
// prefix, cites the offset, and the session finalizes like a clean run
// over the surviving lines.
TEST_F(RecoveryChaosTest, TornTailRecoversTheValidPrefix) {
  const std::vector<std::string> lines = feed_lines((*logs_)[0]);
  const std::size_t k = lines.size() - 1;  // stop short of 'end'
  ASSERT_GE(k, 2u);
  const std::string dir = scratch_dir("torn");
  serve::SessionManagerOptions mgr;
  mgr.journal_dir = dir;
  {
    auto injector = std::make_shared<FaultInjector>(serve::kNumSeams);
    // Appends run open, line 1, line 2, ...; tear the last one so the
    // journal ends mid-frame exactly as a crash mid-write would leave it.
    injector->arm_nth(serve::Seam::kJournalTornWrite, {k + 1});
    serve::ServiceOptions options;
    options.num_threads = 1;
    options.fault_injector = injector;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    serve::SessionManager manager(service, mgr);
    const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
    ASSERT_TRUE(ticket.admitted());
    for (std::size_t i = 0; i < k; ++i) {
      manager.add_response(ticket.session_id, lines[i]);
    }
    ASSERT_FALSE(manager.journal()->durable());
    EXPECT_EQ(service.metrics().journal_append_failures.load(), 1);
  }

  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  service.register_design(design_);
  serve::SessionManager manager(service, mgr);
  const serve::RecoveryStats stats = manager.recover();
  ASSERT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.lines_replayed, k - 1);  // the torn line is gone
  ASSERT_FALSE(stats.diagnostics.empty());
  EXPECT_NE(stats.diagnostics[0].find("journal byte "), std::string::npos)
      << stats.diagnostics[0];
  EXPECT_NE(stats.diagnostics[0].find("accepting the valid prefix"),
            std::string::npos);

  // Finalize with no further feed: equals a clean run over the survivors.
  std::vector<std::string> none;
  const Outcome outcome =
      finish(manager, stats.recovered_ids.at(0), none, 0);
  const Outcome expected = clean_reference(lines, k - 1);
  EXPECT_EQ(outcome.status, expected.status);
  EXPECT_EQ(outcome.text, expected.text);
}

// Recovered-vs-expired accounting against the injected wall clock: a
// session past its lifetime at restart is tombstoned as expired, a fresh
// one is rebuilt, and the counters partition exactly.
TEST_F(RecoveryChaosTest, ExpiryOnRecoveryAccountingIsExact) {
  const std::string dir = scratch_dir("expiry");
  std::int64_t wall_ms = 1000;
  serve::SessionManagerOptions mgr;
  mgr.journal_dir = dir;
  mgr.max_lifetime_ms = 1000.0;
  mgr.journal_wall_ms = [&wall_ms] { return wall_ms; };

  const std::vector<std::string> lines = feed_lines((*logs_)[0]);
  std::uint64_t old_id = 0;
  std::uint64_t fresh_id = 0;
  {
    serve::ServiceOptions options;
    options.num_threads = 1;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    serve::SessionManager manager(service, mgr);
    const serve::SessionTicket old_ticket = manager.begin_diagnosis(design_id);
    ASSERT_TRUE(old_ticket.admitted());
    manager.add_response(old_ticket.session_id, lines[0]);
    old_id = old_ticket.session_id;
    wall_ms = 9000;  // the second session opens much later
    const serve::SessionTicket fresh_ticket =
        manager.begin_diagnosis(design_id);
    ASSERT_TRUE(fresh_ticket.admitted());
    fresh_id = fresh_ticket.session_id;
  }

  wall_ms = 9500;  // restart: old is 8500 ms past open, fresh only 500
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  service.register_design(design_);
  serve::SessionManager manager(service, mgr);
  const serve::RecoveryStats stats = manager.recover();
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.discarded, 0u);
  ASSERT_EQ(stats.recovered_ids.size(), 1u);
  EXPECT_EQ(stats.recovered_ids[0], fresh_id);
  EXPECT_FALSE(manager.contains(old_id));
  EXPECT_TRUE(manager.contains(fresh_id));
  const serve::Metrics& m = service.metrics();
  EXPECT_EQ(m.sessions_recovered.load(), 1);
  EXPECT_EQ(m.sessions_expired_on_recovery.load(), 1);
  EXPECT_EQ(m.sessions_discarded_on_recovery.load(), 0);

  // The expiry tombstone is durable: replay shows only the fresh session
  // live, and a second recovery sees one survivor, zero expired.
  const serve::JournalReplay replay = serve::SessionJournal::replay(dir);
  ASSERT_EQ(replay.live.size(), 1u);
  EXPECT_EQ(replay.live[0].id, fresh_id);
}

// A journaled session whose design is not registered after restart cannot
// be rebuilt: it is tombstoned as discarded, not resurrected, not counted
// as expired.
TEST_F(RecoveryChaosTest, UnknownDesignIsDiscardedOnRecovery) {
  const std::string dir = scratch_dir("discard");
  serve::SessionManagerOptions mgr;
  mgr.journal_dir = dir;
  {
    serve::ServiceOptions options;
    options.num_threads = 1;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    serve::SessionManager manager(service, mgr);
    ASSERT_TRUE(manager.begin_diagnosis(design_id).admitted());
  }
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);  // no designs
  serve::SessionManager manager(service, mgr);
  const serve::RecoveryStats stats = manager.recover();
  EXPECT_EQ(stats.recovered, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.discarded, 1u);
  EXPECT_EQ(service.metrics().sessions_discarded_on_recovery.load(), 1);
  EXPECT_TRUE(serve::SessionJournal::replay(dir).live.empty());
}

// Regression: a restarted manager must never reissue a journaled session
// id.  next_id_ restarts at 1, so without seeding it past the journal's id
// high-water mark the first post-restart session reuses a tombstoned id;
// its `open` is then dropped at the *next* recovery as a duplicate of the
// surviving tombstone and its records are dropped as belonging to a closed
// session — every session opened after a restart silently unrecoverable
// after a second crash.
TEST_F(RecoveryChaosTest, RestartNeverReusesJournaledSessionIds) {
  const std::string dir = scratch_dir("id_reuse");
  serve::SessionManagerOptions mgr;
  mgr.journal_dir = dir;
  const std::vector<std::string> lines = feed_lines((*logs_)[0]);
  const std::size_t k = lines.size() / 2;
  const Outcome expected = clean_reference(lines, lines.size());

  std::uint64_t first_id = 0;
  {
    // Run one session to completion: its tombstone stays in the journal
    // (compaction is manual-only in the default serve flow).
    serve::ServiceOptions options;
    options.num_threads = 1;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    serve::SessionManager manager(service, mgr);
    EXPECT_EQ(manager.recover().recovered, 0u);
    const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
    ASSERT_TRUE(ticket.admitted());
    first_id = ticket.session_id;
    const Outcome outcome = finish(manager, first_id, lines, 0);
    ASSERT_EQ(outcome.status, serve::StatusCode::kOk);
  }

  std::uint64_t second_id = 0;
  {
    // Restart, open a fresh session over the same journal, feed half, crash.
    serve::ServiceOptions options;
    options.num_threads = 1;
    serve::DiagnosisService service = make_service(options);
    const std::int32_t design_id = service.register_design(design_);
    serve::SessionManager manager(service, mgr);
    EXPECT_EQ(manager.recover().recovered, 0u);
    const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
    ASSERT_TRUE(ticket.admitted());
    second_id = ticket.session_id;
    EXPECT_NE(second_id, first_id);
    for (std::size_t i = 0; i < k; ++i) {
      manager.add_response(second_id, lines[i]);
    }
  }

  // Second crash: the post-restart session must recover cleanly, not vanish
  // as a duplicate of the first session's tombstone.
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::DiagnosisService service = make_service(options);
  service.register_design(design_);
  serve::SessionManager manager(service, mgr);
  const serve::RecoveryStats stats = manager.recover();
  ASSERT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.lines_replayed, k);
  EXPECT_TRUE(stats.diagnostics.empty())
      << (stats.diagnostics.empty() ? "" : stats.diagnostics[0]);
  ASSERT_EQ(stats.recovered_ids.at(0), second_id);
  const Outcome outcome = finish(manager, second_id, lines, k);
  EXPECT_EQ(outcome.status, serve::StatusCode::kOk);
  EXPECT_EQ(outcome.text, expected.text);
}

// Concurrency (the TSan job runs this): parallel feeds through one
// journaled manager keep the accounting partition, and the journal they
// leave behind replays with every session closed and no diagnostics.
TEST_F(RecoveryChaosTest, ConcurrentJournaledSessionsLeaveACleanJournal) {
  const std::string dir = scratch_dir("concurrent");
  serve::ServiceOptions options;
  options.num_threads = 4;
  serve::DiagnosisService service = make_service(options);
  const std::int32_t design_id = service.register_design(design_);
  serve::SessionManagerOptions mgr;
  mgr.journal_dir = dir;
  mgr.journal_max_segment_bytes = 2048;  // force rotation under load
  serve::SessionManager manager(service, mgr);

  constexpr int kFeeders = 4;
  std::vector<std::thread> feeders;
  std::mutex expect_mu;
  for (int f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      for (std::size_t i = f; i < logs_->size(); i += kFeeders) {
        const std::vector<std::string> lines = feed_lines((*logs_)[i]);
        const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
        Outcome outcome;
        if (ticket.admitted()) {
          outcome = finish(manager, ticket.session_id, lines, 0);
        }
        std::lock_guard<std::mutex> lock(expect_mu);
        ASSERT_TRUE(ticket.admitted());
        EXPECT_EQ(outcome.status, serve::StatusCode::kOk);
      }
    });
  }
  for (std::thread& t : feeders) t.join();

  EXPECT_EQ(manager.live(), 0u);
  EXPECT_TRUE(manager.journal()->durable());
  const serve::Metrics& m = service.metrics();
  EXPECT_EQ(m.sessions_opened.load(),
            static_cast<std::int64_t>(logs_->size()));
  EXPECT_EQ(m.sessions_opened.load(), m.sessions_finalized.load());
  EXPECT_EQ(m.journal_append_failures.load(), 0);
  service.shutdown();

  const serve::JournalReplay replay = serve::SessionJournal::replay(dir);
  EXPECT_TRUE(replay.live.empty());
  EXPECT_EQ(replay.closed_sessions, logs_->size());
  EXPECT_TRUE(replay.diagnostics.empty());
  // Rotation under load really happened, and compaction then reclaims the
  // fully-tombstoned tail.
  EXPECT_GE(replay.segments.size(), 2u);
  EXPECT_GE(serve::SessionJournal::compact(dir), 1u);
  EXPECT_TRUE(serve::SessionJournal::replay(dir).live.empty());
}

}  // namespace
}  // namespace m3dfl
