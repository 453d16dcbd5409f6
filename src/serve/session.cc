#include "serve/session.h"

#include <algorithm>
#include <utility>

#include "diag/log_io.h"

namespace m3dfl::serve {

namespace {

const char* kind_word(StreamRecord::Kind kind) {
  switch (kind) {
    case StreamRecord::Kind::kScan: return "scan";
    case StreamRecord::Kind::kChan: return "chan";
    case StreamRecord::Kind::kPo: return "po";
    default: return "record";
  }
}

// Index into Session::last_pattern for a failing-response kind; -1 for meta.
int kind_slot(StreamRecord::Kind kind) {
  switch (kind) {
    case StreamRecord::Kind::kScan: return 0;
    case StreamRecord::Kind::kChan: return 1;
    case StreamRecord::Kind::kPo: return 2;
    default: return -1;
  }
}

std::int32_t record_pattern(const StreamRecord& record) {
  return record.kind == StreamRecord::Kind::kChan ? record.channel.pattern
                                                  : record.observation.pattern;
}

double ms_between(SessionManager::Clock::time_point from,
                  SessionManager::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

SessionManager::SessionManager(DiagnosisService& service,
                               const SessionManagerOptions& options)
    : service_(service),
      options_(options),
      metrics_(*service.metrics_),
      injector_(service.options().fault_injector.get()) {
  M3DFL_REQUIRE(options_.max_sessions > 0,
                "session table needs room for at least one session");
  M3DFL_REQUIRE(options_.stability_window > 0,
                "stability_window must be positive");
  if (!options_.journal_dir.empty()) {
    JournalOptions journal_options;
    journal_options.max_segment_bytes = options_.journal_max_segment_bytes;
    journal_options.wall_ms = options_.journal_wall_ms;
    journal_options.injector = injector_;
    journal_options.metrics = &metrics_;
    journal_ = std::make_unique<SessionJournal>(options_.journal_dir,
                                                std::move(journal_options));
  }
}

std::unique_ptr<SessionManager::Session> SessionManager::make_session(
    std::int32_t design_id, double idle_deadline_ms, double max_lifetime_ms,
    Clock::time_point now) const {
  auto session = std::make_unique<Session>();
  session->design_id = design_id;
  session->design = service_.design_ref(design_id);
  session->ctx = session->design->context();
  StreamingOptions stream_options;
  stream_options.tp_threshold = service_.degraded()
                                    ? 1.0
                                    : service_.framework().tp_threshold();
  stream_options.stability_window = options_.stability_window;
  stream_options.min_responses_for_stability =
      options_.min_responses_for_stability;
  session->stream = std::make_unique<StreamingBacktrace>(
      session->design->graph(), session->ctx, stream_options);
  session->opened = now;
  session->last_activity = now;
  session->idle_deadline_ms =
      idle_deadline_ms > 0.0 ? idle_deadline_ms : options_.idle_deadline_ms;
  session->max_lifetime_ms =
      max_lifetime_ms > 0.0 ? max_lifetime_ms : options_.max_lifetime_ms;
  return session;
}

SessionTicket SessionManager::begin_diagnosis(std::int32_t design_id,
                                              const SessionOptions& options) {
  return begin_diagnosis(design_id, options, Clock::now());
}

SessionTicket SessionManager::begin_diagnosis(std::int32_t design_id,
                                              const SessionOptions& options,
                                              Clock::time_point now) {
  SessionTicket ticket;
  // Same admission order as submit(): a design that failed static analysis
  // can never produce a correct diagnosis, so no record it could stream
  // would rescue the session.
  std::shared_ptr<const Design> design = service_.design_ref(design_id);
  const std::string lint_error = service_.design_lint_error(design_id);
  if (!lint_error.empty()) {
    metrics_.lint_rejections.fetch_add(1, std::memory_order_relaxed);
    ticket.status = StatusCode::kLintRejected;
    ticket.message = lint_error;
    return ticket;
  }

  design.reset();
  auto session = make_session(design_id, options.idle_deadline_ms,
                              options.max_lifetime_ms, now);

  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= options_.max_sessions) {
    if (!options_.evict_lru) {
      metrics_.sessions_shed.fetch_add(1, std::memory_order_relaxed);
      ticket.status = StatusCode::kOverloaded;
      ticket.message = "session table full (" +
                       std::to_string(options_.max_sessions) +
                       " live sessions)";
      return ticket;
    }
    // Evict the least-recently-active session to admit the new one.
    auto lru = sessions_.begin();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second->last_activity < lru->second->last_activity) lru = it;
    }
    const std::uint64_t evicted_id = lru->first;
    sessions_.erase(lru);
    metrics_.sessions_evicted.fetch_add(1, std::memory_order_relaxed);
    if (journal_ != nullptr) journal_->append_close(evicted_id, "evicted");
  }
  session->id = next_id_++;
  ticket.session_id = session->id;
  const std::string& design_name = session->design->name();
  const double idle_ms = session->idle_deadline_ms;
  const double life_ms = session->max_lifetime_ms;
  sessions_.emplace(session->id, std::move(session));
  metrics_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  // Append-before-ack: the open is on disk before the ticket exists.
  if (journal_ != nullptr) {
    journal_->append_open(ticket.session_id, design_name, idle_ms, life_ms);
  }
  return ticket;
}

bool SessionManager::expired(const Session& s, Clock::time_point now) {
  if (s.idle_deadline_ms > 0.0 &&
      ms_between(s.last_activity, now) > s.idle_deadline_ms) {
    return true;
  }
  return s.max_lifetime_ms > 0.0 &&
         ms_between(s.opened, now) > s.max_lifetime_ms;
}

void SessionManager::expire_locked(std::uint64_t id) {
  sessions_.erase(id);
  metrics_.sessions_expired.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr) journal_->append_close(id, "expired");
}

SessionUpdate SessionManager::dead_session(std::uint64_t session_id) const {
  SessionUpdate update;
  update.status = StatusCode::kSessionExpired;
  update.message = "session " + std::to_string(session_id) +
                   " is not live (expired, evicted, disconnected, or never "
                   "opened); begin a new session and re-feed";
  return update;
}

SessionUpdate SessionManager::add_response(std::uint64_t session_id,
                                           const std::string& line) {
  return add_response(session_id, line, Clock::now());
}

SessionUpdate SessionManager::add_response(std::uint64_t session_id,
                                           const std::string& line,
                                           Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return dead_session(session_id);
  Session& s = *it->second;

  // Real deadlines first, then the injected one: kStreamDisconnect models
  // a tester that dropped the connection (or a feed stalled past its idle
  // deadline — the same state change).  Both resolve the session as
  // expired — deterministically, with no wall-clock involved.
  if (expired(s, now)) {
    expire_locked(session_id);
    SessionUpdate update = dead_session(session_id);
    update.message = "session " + std::to_string(session_id) +
                     " expired (idle/lifetime deadline passed)";
    return update;
  }
  if (injector_ != nullptr &&
      injector_->should_fail(Seam::kStreamDisconnect)) {
    expire_locked(session_id);
    SessionUpdate update = dead_session(session_id);
    update.message = "session " + std::to_string(session_id) +
                     " torn down (injected stream disconnect)";
    return update;
  }

  ++s.line_no;
  s.last_activity = now;
  SessionUpdate update;
  const auto reject_record = [&](std::string message) {
    metrics_.stream_records_rejected.fetch_add(1, std::memory_order_relaxed);
    update.status = StatusCode::kInvalidInput;
    update.message = std::move(message);
  };
  const auto fill_snapshot = [&] {
    const StreamSnapshot& snap = s.stream->snapshot();
    update.num_responses = s.stream->num_responses();
    update.num_candidates =
        static_cast<std::int32_t>(snap.backtrace.candidates.size());
    update.confidence = snap.confidence.combined;
    update.stable = snap.stable;
    update.early_exit_at = snap.early_exit_at;
    update.quarantined =
        static_cast<std::int32_t>(snap.backtrace.quarantined.size());
    update.condemnations = snap.condemnations;
    update.rehabilitations = snap.rehabilitations;
    // Report rehabilitation deltas to the shared metrics exactly once.
    const std::int64_t fresh =
        snap.rehabilitations - s.rehabilitations_reported;
    if (fresh > 0) {
      metrics_.session_rehabilitations.fetch_add(fresh,
                                                 std::memory_order_relaxed);
      s.rehabilitations_reported = snap.rehabilitations;
    }
  };

  // Adversarial-input seam: replace the line with deterministic malformed
  // bytes and let the REAL parser and limit guardrails reject it — every
  // shape below is invalid by construction, so triggered() must equal the
  // kInvalidInput rejections this seam produces.  The shape cycles with the
  // seam's call count so one chaos run crosses all four rejection paths.
  std::string effective_line = line;
  if (injector_ != nullptr &&
      injector_->should_fail(Seam::kStreamMalformedBytes)) {
    const ParseLimits& limits = ParseLimits::defaults();
    switch (injector_->calls(Seam::kStreamMalformedBytes) % 4) {
      case 0:  // NUL-injected unknown record kind
        effective_line = std::string("scan\0scan 1 2", 13);
        break;
      case 1:  // trailing garbage smuggled onto a complete record
        effective_line = "end smuggled-bytes";
        break;
      case 2:  // line past the byte cap
        effective_line.assign(limits.max_line_bytes + 1, 'A');
        break;
      case 3:  // huge numeric field past the pattern cap
        effective_line =
            "scan " + std::to_string(limits.max_patterns + 1) + " 0";
        break;
    }
  }

  StreamRecord record;
  try {
    record = parse_stream_record(effective_line, s.line_no);
  } catch (const Error& e) {
    reject_record(e.what());
    fill_snapshot();
    return update;
  }

  // Out-of-order rejection: within each record kind testers emit pattern
  // indices monotonically; a regressing pattern means the feed reordered
  // (or replayed) and the record cannot be trusted.
  const int slot = kind_slot(record.kind);
  if (slot >= 0) {
    const std::int32_t pattern = record_pattern(record);
    if (pattern < s.last_pattern[slot]) {
      reject_record("stream line " + std::to_string(s.line_no) +
                    ": out-of-order " + kind_word(record.kind) +
                    " record (pattern " + std::to_string(pattern) +
                    " after pattern " +
                    std::to_string(s.last_pattern[slot]) + ")");
      fill_snapshot();
      return update;
    }
  }

  StreamAccept accept;
  try {
    accept = s.stream->add(record);
  } catch (const Error& e) {
    reject_record("stream line " + std::to_string(s.line_no) + ": " +
                  e.what());
    fill_snapshot();
    return update;
  }
  switch (accept) {
    case StreamAccept::kAccepted:
      update.accepted = true;
      s.last_pattern[slot] = record_pattern(record);
      break;
    case StreamAccept::kDuplicate:
      reject_record("stream line " + std::to_string(s.line_no) +
                    ": duplicate " + kind_word(record.kind) +
                    " observation (pattern " +
                    std::to_string(record_pattern(record)) + ")");
      break;
    case StreamAccept::kMeta:
      break;
    case StreamAccept::kEndOfStream:
      update.end_of_stream = true;
      break;
  }
  // Append-before-ack: every line that mutated session state (accepted
  // responses, meta records, the end trailer) is journaled verbatim before
  // the caller learns it was taken.  Rejected lines mutate nothing a replay
  // needs, so they stay out of the journal.
  if (journal_ != nullptr && update.status == StatusCode::kOk) {
    journal_->append_record(session_id, line);
  }
  fill_snapshot();
  return update;
}

std::future<DiagnosisResult> SessionManager::finalize(
    std::uint64_t session_id) {
  return finalize(session_id, Clock::now());
}

std::future<DiagnosisResult> SessionManager::finalize(
    std::uint64_t session_id, Clock::time_point now) {
  std::unique_ptr<Session> session;
  bool was_stable = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(session_id);
    if (it != sessions_.end() && expired(*it->second, now)) {
      expire_locked(session_id);
    }
    const auto again = sessions_.find(session_id);
    if (again == sessions_.end()) {
      // Already resolved (expired/evicted/disconnected) or never opened:
      // report it without touching the service's request accounting.
      std::promise<DiagnosisResult> promise;
      DiagnosisResult result;
      result.status = StatusCode::kSessionExpired;
      result.status_message = dead_session(session_id).message;
      promise.set_value(std::move(result));
      return promise.get_future();
    }
    session = std::move(again->second);
    sessions_.erase(again);
    metrics_.sessions_finalized.fetch_add(1, std::memory_order_relaxed);
    was_stable = session->stream->snapshot().stable;
    if (was_stable) {
      metrics_.session_early_exits.fetch_add(1, std::memory_order_relaxed);
    }
    if (journal_ != nullptr) journal_->append_close(session_id, "finalized");
  }
  // Off the session lock: the heavy work runs on the service's workers.
  SubmitOptions submit_options;
  submit_options.precomputed_backtrace =
      std::make_shared<BacktraceResult>(session->stream->finalize());
  return service_.submit(session->design_id, session->stream->log(),
                         submit_options);
}

std::size_t SessionManager::sweep(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t swept = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (expired(*it->second, now)) {
      const std::uint64_t id = it->first;
      it = sessions_.erase(it);
      metrics_.sessions_expired.fetch_add(1, std::memory_order_relaxed);
      if (journal_ != nullptr) journal_->append_close(id, "expired");
      ++swept;
    } else {
      ++it;
    }
  }
  return swept;
}

RecoveryStats SessionManager::recover() { return recover(Clock::now()); }

RecoveryStats SessionManager::recover(Clock::time_point now) {
  RecoveryStats stats;
  if (journal_ == nullptr) return stats;
  const JournalReplay replay = SessionJournal::replay(options_.journal_dir);
  stats.segments = replay.segments.size();
  stats.records_scanned = replay.records;
  stats.diagnostics = replay.diagnostics;
  const std::int64_t now_wall = journal_->wall_ms();

  std::lock_guard<std::mutex> lock(mu_);
  // Never reissue a journaled id — not even one whose session is closed.  A
  // reused id's `open` would collide with the existing tombstone at the
  // *next* recovery (dropped as a duplicate, its records dropped as
  // belonging to a closed session), silently losing every session opened
  // after this restart.
  next_id_ = std::max(next_id_, replay.max_session_id + 1);
  for (const JournalReplay::LiveSession& journaled : replay.live) {
    if (sessions_.count(journaled.id) != 0) continue;  // recover() re-run

    // Map the journaled design name back to a registered design.  A restart
    // that dropped (or failed to re-lint) the design cannot replay these
    // sessions — tombstone them so the next recovery is clean.
    std::int32_t design_id = -1;
    for (std::int32_t i = 0; i < service_.num_designs(); ++i) {
      if (service_.design(i).name() == journaled.design_name) {
        design_id = i;
        break;
      }
    }
    if (design_id < 0 || !service_.design_lint_error(design_id).empty()) {
      ++stats.discarded;
      metrics_.sessions_discarded_on_recovery.fetch_add(
          1, std::memory_order_relaxed);
      journal_->append_close(journaled.id, "evicted");
      continue;
    }

    // Deadlines crossed the crash: a session idle (or alive) longer than
    // its budget — including the downtime — is dead on arrival.
    const bool past_idle =
        journaled.idle_deadline_ms > 0.0 &&
        static_cast<double>(now_wall - journaled.last_wall_ms) >
            journaled.idle_deadline_ms;
    const bool past_life =
        journaled.max_lifetime_ms > 0.0 &&
        static_cast<double>(now_wall - journaled.opened_wall_ms) >
            journaled.max_lifetime_ms;
    if (past_idle || past_life) {
      ++stats.expired;
      metrics_.sessions_expired_on_recovery.fetch_add(
          1, std::memory_order_relaxed);
      journal_->append_close(journaled.id, "expired");
      continue;
    }

    auto session = make_session(design_id, journaled.idle_deadline_ms,
                                journaled.max_lifetime_ms, now);
    session->id = journaled.id;
    // Restore the remaining deadline budget: the steady-clock anchors are
    // set so (now - anchor) equals the journaled wall-clock age.
    session->opened =
        now - std::chrono::milliseconds(now_wall - journaled.opened_wall_ms);
    session->last_activity =
        now - std::chrono::milliseconds(now_wall - journaled.last_wall_ms);

    // Replay the accepted lines through the fresh stream state.  Every
    // journaled line was accepted by the original session, so replay takes
    // exactly the same path — finalize() is then byte-identical to the
    // uninterrupted run by StreamingBacktrace's finalize-equals-batch
    // contract.
    for (const std::string& line : journaled.lines) {
      ++session->line_no;
      StreamRecord record;
      try {
        record = parse_stream_record(line, session->line_no);
        if (session->stream->add(record) == StreamAccept::kAccepted) {
          const int slot = kind_slot(record.kind);
          if (slot >= 0) session->last_pattern[slot] = record_pattern(record);
        }
      } catch (const Error&) {
        // Journaled lines were accepted once; a line that no longer parses
        // means the segment was hand-edited.  Skip it — the remaining
        // evidence still recovers.
        continue;
      }
      ++stats.lines_replayed;
      metrics_.journal_records_replayed.fetch_add(1,
                                                  std::memory_order_relaxed);
    }

    sessions_.emplace(journaled.id, std::move(session));
    ++stats.recovered;
    stats.recovered_ids.push_back(journaled.id);
    metrics_.sessions_recovered.fetch_add(1, std::memory_order_relaxed);
  }
  return stats;
}

std::size_t SessionManager::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

bool SessionManager::contains(std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.count(session_id) != 0;
}

const StreamSnapshot* SessionManager::snapshot(
    std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : &it->second->stream->snapshot();
}

}  // namespace m3dfl::serve
