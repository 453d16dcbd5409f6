// Streaming diagnosis sessions over live tester feeds.
//
// DiagnosisService's session mode: begin_diagnosis() opens a session against
// a registered design, add_response() feeds one faillog line at a time (the
// grammar of diag/log_io.h, parsed with the same line-cited diagnostics),
// and finalize() routes the accumulated evidence through the service's
// worker pool — with the back-trace the session already maintained
// incrementally injected, so the worker never recomputes it.  Between
// records the session keeps the full diag::StreamingBacktrace state:
// monotone candidate narrowing, per-candidate support, online quarantine
// with rehabilitation, calibrated confidence, and the T_P-derived stability
// flag that lets a tester stop feeding early.
//
// Lifecycle hardening mirrors the request path's (PR 2):
//  * Per-session idle and lifetime deadlines; an overdue session resolves
//    kSessionExpired at the next touch (add_response/finalize/sweep) — no
//    background thread, so a stalled feed can never wedge a worker.  All
//    time enters through caller-suppliable `now` parameters (the breaker's
//    clock idiom), so tests drive deadlines deterministically.
//  * Bounded live-session table: at max_sessions, begin_diagnosis either
//    evicts the least-recently-active session (kSessionExpired at its next
//    touch) or sheds the new one with kOverloaded.
//  * Malformed, duplicate, and out-of-order records are rejected with
//    line-cited messages; the session survives and keeps accepting.
//  * FaultInjector seams kStreamDisconnect and kStreamMalformedBytes
//    (serve/fault_injector.h) map deterministically to expiry and to a
//    line-cited rejection through the real record parser — the
//    stream-chaos harness reconciles trigger counts against session
//    metrics exactly.
//
// Accounting invariant (asserted by tests/stream_chaos_test.cc): every
// admitted session resolves exactly once —
//   sessions_opened == sessions_finalized + sessions_expired +
//                      sessions_evicted + live()
#ifndef M3DFL_SERVE_SESSION_H_
#define M3DFL_SERVE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "diag/stream_backtrace.h"
#include "serve/journal.h"
#include "serve/service.h"
#include "serve/status.h"

namespace m3dfl::serve {

struct SessionManagerOptions {
  // Live-session table bound; reaching it triggers eviction or shedding.
  std::size_t max_sessions = 64;
  // true: evict the least-recently-active session to admit a new one;
  // false: shed the new session with kOverloaded instead.
  bool evict_lru = true;
  // A session untouched for longer than this expires at its next touch;
  // 0 disables.  Overridable per session.
  double idle_deadline_ms = 0.0;
  // Hard cap on a session's total lifetime; 0 disables.
  double max_lifetime_ms = 0.0;
  // Stability knobs forwarded to diag::StreamingBacktrace.
  std::int32_t stability_window = 4;
  std::int32_t min_responses_for_stability = 3;
  // Crash-safe serving (serve/journal.h, docs/SERVING.md "Crash recovery").
  // Non-empty: every session open, accepted record, and resolution is
  // appended (and fsync'd) to a write-ahead journal in this directory
  // *before* the call acknowledges, and recover() can rebuild in-flight
  // sessions after a restart.  Empty: sessions stay memory-only (the
  // pre-journal behaviour, zero I/O on the session path).
  std::string journal_dir;
  // Rotation / wall-clock knobs for the journal; the manager wires the
  // service's injector and metrics in itself.
  std::size_t journal_max_segment_bytes = 64 * 1024;
  WallClock journal_wall_ms;  // tests inject a fake wall clock
};

// What SessionManager::recover() found in the journal.  Every journaled
// in-flight session lands in exactly one bucket: rebuilt live (recovered),
// past its deadlines at recovery time (expired), or unmappable — unknown or
// lint-rejected design (discarded).
struct RecoveryStats {
  std::size_t recovered = 0;
  std::size_t expired = 0;
  std::size_t discarded = 0;
  std::size_t segments = 0;          // journal segments scanned
  std::size_t records_scanned = 0;   // valid frames across all segments
  std::size_t lines_replayed = 0;    // stream records fed into rebuilt sessions
  // Session ids of the rebuilt (recovered) sessions, in journal order; the
  // CLI finalizes these to deliver results a crashed run never produced.
  std::vector<std::uint64_t> recovered_ids;
  // Torn-tail / corrupt-frame / semantic findings, each citing the segment
  // path and byte offset (serve/journal.h scan semantics).
  std::vector<std::string> diagnostics;
};

// Per-session overrides.
struct SessionOptions {
  double idle_deadline_ms = 0.0;  // 0 = manager default
  double max_lifetime_ms = 0.0;   // 0 = manager default
};

// Outcome of begin_diagnosis().
struct SessionTicket {
  std::uint64_t session_id = 0;  // valid only when admitted()
  StatusCode status = StatusCode::kOk;
  std::string message;
  bool admitted() const { return status == StatusCode::kOk; }
};

// Outcome of one add_response() call: what happened to the record, plus the
// diagnosis trajectory after it.
struct SessionUpdate {
  // kOk for accepted/meta records, kInvalidInput for rejected records (the
  // session stays live), kSessionExpired when the session is dead.
  StatusCode status = StatusCode::kOk;
  std::string message;
  // The record was accepted as a failing response (snapshot advanced).
  // false for meta records (mode/limit/comments), rejected records
  // (status kInvalidInput), and dead sessions (status kSessionExpired).
  bool accepted = false;
  bool end_of_stream = false;  // the 'end' trailer arrived
  // Snapshot after this record (StreamingBacktrace state).
  std::int32_t num_responses = 0;
  std::int32_t num_candidates = 0;
  double confidence = 0.0;  // calibrated combined confidence
  bool stable = false;      // early-exit threshold crossed
  std::int32_t early_exit_at = -1;
  std::int32_t quarantined = 0;  // responses currently quarantined
  std::int64_t condemnations = 0;    // cumulative
  std::int64_t rehabilitations = 0;  // cumulative
};

// The session layer over a DiagnosisService.  All public methods are
// thread-safe; time-dependent ones take an optional caller-supplied `now`
// so deadline behaviour is deterministic under test.
class SessionManager {
 public:
  using Clock = DiagnosisService::Clock;

  // The service must outlive the manager.  Session metrics land in the
  // service's Metrics instance, next to the request counters.
  explicit SessionManager(DiagnosisService& service,
                          const SessionManagerOptions& options = {});

  // Opens a session against a registered design.  Rejections (lint-failed
  // design, table full under shedding) come back in the ticket; an unknown
  // design id throws, like submit().
  SessionTicket begin_diagnosis(std::int32_t design_id,
                                const SessionOptions& options = {});
  SessionTicket begin_diagnosis(std::int32_t design_id,
                                const SessionOptions& options,
                                Clock::time_point now);

  // Feeds one line of the faillog body.  Malformed / duplicate /
  // out-of-order records are rejected with kInvalidInput and a line-cited
  // message; the session stays live.  A dead session (expired, evicted,
  // disconnected, or never opened) returns kSessionExpired.
  SessionUpdate add_response(std::uint64_t session_id, const std::string& line);
  SessionUpdate add_response(std::uint64_t session_id, const std::string& line,
                             Clock::time_point now);

  // Closes the session and routes the accumulated log through the service's
  // worker pool, injecting the incrementally-maintained back-trace (the
  // worker skips recomputing it; everything downstream — ATPG, GNN,
  // calibration — runs unchanged).  A dead session resolves immediately
  // with kSessionExpired.  The future never carries an exception.
  std::future<DiagnosisResult> finalize(std::uint64_t session_id);
  std::future<DiagnosisResult> finalize(std::uint64_t session_id,
                                        Clock::time_point now);

  // Expires every session whose idle or lifetime deadline has passed by
  // `now`; returns how many.  Tests fabricate `now` to drive expiry.
  std::size_t sweep(Clock::time_point now);

  // Rebuilds in-flight sessions from the journal directory (call once, at
  // startup, before traffic).  Every surviving segment is scanned for its
  // longest valid frame prefix; sessions with an open and no tombstone are
  // replayed through a fresh StreamingBacktrace — so a recovered session
  // finalizes byte-identical to the uninterrupted run — with their
  // remaining idle/lifetime budget restored from the journaled wall-clock
  // timestamps.  Sessions past a deadline are tombstoned as expired;
  // sessions whose design is not registered (or is lint-rejected) are
  // tombstoned as discarded.  A no-op without a journal_dir.
  RecoveryStats recover();
  RecoveryStats recover(Clock::time_point now);

  // The write-ahead journal, or nullptr when journal_dir is empty.  False
  // durable() means at least one append failed to reach disk and a crash
  // may lose events (serving continues regardless).
  const SessionJournal* journal() const { return journal_.get(); }

  std::size_t live() const;
  bool contains(std::uint64_t session_id) const;
  // Streaming snapshot of a live session (nullptr when dead) — for tests
  // and the CLI trajectory printer.  The pointer is invalidated by any
  // later call that touches the session.
  const StreamSnapshot* snapshot(std::uint64_t session_id) const;

  const SessionManagerOptions& options() const { return options_; }

 private:
  struct Session {
    std::uint64_t id = 0;
    std::int32_t design_id = 0;
    std::shared_ptr<const Design> design;  // keeps ctx references alive
    DesignContext ctx;
    std::unique_ptr<StreamingBacktrace> stream;
    int line_no = 1;  // last fed line (header is line 1, records start at 2)
    Clock::time_point opened;
    Clock::time_point last_activity;
    double idle_deadline_ms = 0.0;
    double max_lifetime_ms = 0.0;
    // Last accepted pattern per record kind (scan/chan/po) for the
    // out-of-order rejection; -1 before the first.
    std::int32_t last_pattern[3] = {-1, -1, -1};
    std::int64_t rehabilitations_reported = 0;
  };

  // True when `s` is past either deadline at `now`.
  static bool expired(const Session& s, Clock::time_point now);
  // Removes + counts an expired/disconnected session.  Caller holds mu_.
  void expire_locked(std::uint64_t id);
  SessionUpdate dead_session(std::uint64_t session_id) const;

  // Builds the Session shell (design refs, stream state, deadlines) shared
  // by begin_diagnosis and recover().
  std::unique_ptr<Session> make_session(std::int32_t design_id,
                                        double idle_deadline_ms,
                                        double max_lifetime_ms,
                                        Clock::time_point now) const;

  DiagnosisService& service_;
  const SessionManagerOptions options_;
  Metrics& metrics_;
  FaultInjector* injector_;  // service's injector; may be null
  std::unique_ptr<SessionJournal> journal_;  // null when journaling is off

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_id_ = 1;
};

}  // namespace m3dfl::serve

#endif  // M3DFL_SERVE_SESSION_H_
