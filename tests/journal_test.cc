// Unit tests for the write-ahead session journal (serve/journal.h): frame
// round-trips, segment rotation, torn/corrupt-tail recovery with
// offset-cited diagnostics (seeded corpus under tests/journal_corpus/),
// tombstone-driven compaction with the resurrection guard, the kJournal*
// fault seams, and the session-journal-stale lint bridge.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/checks.h"
#include "scratch_dir.h"
#include "serve/fault_injector.h"
#include "serve/journal.h"
#include "serve/metrics.h"
#include "util/checksum.h"

namespace m3dfl::serve {
namespace {

namespace fs = std::filesystem;

std::string corpus_path(const std::string& name) {
  return std::string(M3DFL_JOURNAL_CORPUS_DIR) + "/" + name;
}

// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  return testing::scratch_dir("journal_" + name).string();
}

// Builds one frame exactly as the writer does, so tests can compose
// arbitrary segment files for the scan/compaction cases.
std::string frame(const std::string& payload) {
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", crc32(payload));
  return "r " + std::string(hex) + " " + std::to_string(payload.size()) +
         " " + payload + "\n";
}

void write_segment(const std::string& dir, const std::string& name,
                   const std::vector<std::string>& payloads) {
  fs::create_directories(dir);
  std::ofstream os(fs::path(dir) / name, std::ios::binary);
  os << "m3dfl-journal 1\n";
  for (const std::string& payload : payloads) os << frame(payload);
}

// A wall clock the test can move by hand.
struct FakeClock {
  std::int64_t now_ms = 1000;
  WallClock fn() {
    return [this] { return now_ms; };
  }
};

TEST(JournalTest, WriterRoundTripsThroughReplay) {
  const std::string dir = scratch_dir("roundtrip");
  FakeClock clock;
  Metrics metrics;
  JournalOptions options;
  options.wall_ms = clock.fn();
  options.metrics = &metrics;
  SessionJournal journal(dir, options);
  EXPECT_TRUE(journal.durable());

  journal.append_open(7, "DemoDesign", 1000.0, 5000.0);
  clock.now_ms = 1500;
  journal.append_record(7, "scan 1 2");
  journal.append_record(7, "po 1 0");
  clock.now_ms = 2000;
  journal.append_close(7, "finalized");

  EXPECT_EQ(metrics.journal_appends.load(), 4);
  EXPECT_EQ(metrics.journal_append_failures.load(), 0);

  const JournalReplay replay = SessionJournal::replay(dir);
  ASSERT_EQ(replay.segments.size(), 1u);
  EXPECT_TRUE(replay.segments[0].diagnostic.empty());
  EXPECT_EQ(replay.records, 4u);
  EXPECT_EQ(replay.closed_sessions, 1u);
  EXPECT_TRUE(replay.live.empty());
  EXPECT_TRUE(replay.diagnostics.empty());
  // Closed sessions count toward the id high-water mark: recover() must
  // seed the manager's counter past ids that only tombstones mention.
  EXPECT_EQ(replay.max_session_id, 7u);

  const SegmentScan scan = SessionJournal::scan_segment(journal.active_segment());
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].type, JournalRecord::Type::kOpen);
  EXPECT_EQ(scan.records[0].session_id, 7u);
  EXPECT_EQ(scan.records[0].wall_ms, 1000);
  EXPECT_EQ(scan.records[0].design_name, "DemoDesign");
  EXPECT_EQ(scan.records[0].idle_deadline_ms, 1000.0);
  EXPECT_EQ(scan.records[0].max_lifetime_ms, 5000.0);
  EXPECT_EQ(scan.records[1].type, JournalRecord::Type::kRecord);
  EXPECT_EQ(scan.records[1].wall_ms, 1500);
  EXPECT_EQ(scan.records[1].text, "scan 1 2");
  EXPECT_EQ(scan.records[3].type, JournalRecord::Type::kClose);
  EXPECT_EQ(scan.records[3].text, "finalized");
  EXPECT_EQ(scan.valid_bytes, scan.total_bytes);
}

TEST(JournalTest, ReopenContinuesTheHighestSegment) {
  const std::string dir = scratch_dir("reopen");
  {
    SessionJournal journal(dir);
    journal.append_open(1, "D", 0.0, 0.0);
  }
  {
    SessionJournal journal(dir);
    journal.append_record(1, "scan 0 1");
    journal.append_close(1, "finalized");
  }
  EXPECT_EQ(SessionJournal::list_segments(dir).size(), 1u);
  const JournalReplay replay = SessionJournal::replay(dir);
  EXPECT_EQ(replay.records, 3u);
  EXPECT_EQ(replay.closed_sessions, 1u);
  EXPECT_TRUE(replay.diagnostics.empty());
}

TEST(JournalTest, RotatesSegmentsBySize) {
  const std::string dir = scratch_dir("rotate");
  Metrics metrics;
  JournalOptions options;
  options.max_segment_bytes = 1;  // every append lands past the cap
  options.metrics = &metrics;
  SessionJournal journal(dir, options);
  journal.append_open(1, "D", 0.0, 0.0);
  journal.append_record(1, "scan 0 1");
  journal.append_record(1, "scan 0 2");

  EXPECT_GE(SessionJournal::list_segments(dir).size(), 2u);
  EXPECT_GE(metrics.journal_rotations.load(), 1);
  // Rotation must not cost records: the replay spans all segments in order.
  const JournalReplay replay = SessionJournal::replay(dir);
  EXPECT_EQ(replay.records, 3u);
  ASSERT_EQ(replay.live.size(), 1u);
  EXPECT_EQ(replay.live[0].lines.size(), 2u);
  EXPECT_EQ(replay.live[0].lines[0], "scan 0 1");
  EXPECT_TRUE(replay.diagnostics.empty());
}

// ---- fault seams -----------------------------------------------------------

TEST(JournalTest, TornWriteCountsTheLossAndSealsTheSegment) {
  const std::string dir = scratch_dir("torn");
  FaultInjector injector(kNumSeams);
  injector.arm_nth(Seam::kJournalTornWrite, {2});  // tear the 2nd append
  Metrics metrics;
  JournalOptions options;
  options.injector = &injector;
  options.metrics = &metrics;
  SessionJournal journal(dir, options);

  journal.append_open(1, "D", 0.0, 0.0);
  journal.append_record(1, "scan 0 1");  // torn: prefix reaches disk
  EXPECT_FALSE(journal.durable());
  journal.append_record(1, "scan 0 2");  // must land in a fresh segment

  EXPECT_EQ(metrics.journal_appends.load(), 2);
  EXPECT_EQ(metrics.journal_append_failures.load(), 1);
  EXPECT_EQ(SessionJournal::list_segments(dir).size(), 2u);

  const JournalReplay replay = SessionJournal::replay(dir);
  // The torn frame is reported with its offset and dropped; the open and
  // the post-rotation record survive.
  ASSERT_EQ(replay.diagnostics.size(), 1u);
  EXPECT_NE(replay.diagnostics[0].find("journal byte "), std::string::npos);
  EXPECT_NE(replay.diagnostics[0].find("accepting the valid prefix"),
            std::string::npos);
  ASSERT_EQ(replay.live.size(), 1u);
  ASSERT_EQ(replay.live[0].lines.size(), 1u);
  EXPECT_EQ(replay.live[0].lines[0], "scan 0 2");
}

TEST(JournalTest, FsyncFailureDegradesToNonDurable) {
  const std::string dir = scratch_dir("fsync");
  FaultInjector injector(kNumSeams);
  injector.arm_nth(Seam::kJournalFsync, {1});
  Metrics metrics;
  JournalOptions options;
  options.injector = &injector;
  options.metrics = &metrics;
  SessionJournal journal(dir, options);

  journal.append_open(1, "D", 0.0, 0.0);  // fsync "fails"
  EXPECT_FALSE(journal.durable());
  EXPECT_EQ(metrics.journal_append_failures.load(), 1);
  journal.append_record(1, "scan 0 1");  // keeps serving in a fresh segment
  EXPECT_EQ(metrics.journal_appends.load(), 1);
}

TEST(JournalTest, CorruptWriteIsCaughtByTheScanChecksum) {
  const std::string dir = scratch_dir("corrupt");
  FaultInjector injector(kNumSeams);
  injector.arm_nth(Seam::kJournalCorrupt, {2});
  JournalOptions options;
  options.injector = &injector;
  SessionJournal journal(dir, options);

  journal.append_open(1, "D", 0.0, 0.0);
  journal.append_record(1, "scan 0 1");  // silently bit-flipped on "disk"
  EXPECT_TRUE(journal.durable());        // the writer cannot see media rot

  const SegmentScan scan =
      SessionJournal::scan_segment(journal.active_segment());
  ASSERT_EQ(scan.records.size(), 1u);  // valid prefix: the open only
  EXPECT_NE(scan.diagnostic.find("checksum mismatch"), std::string::npos);
  EXPECT_NE(scan.diagnostic.find("journal byte "), std::string::npos);
}

// ---- seeded corrupt/torn corpus -------------------------------------------
// Layout pinned by the generator: 16-byte header, `open` frame at byte 16
// (41 bytes), `rec` frame at byte 57 (34 bytes), `close` frame at byte 91
// (37 bytes; duplicate at 128).

TEST(JournalCorpusTest, TruncatedFrameKeepsTheValidPrefix) {
  const SegmentScan scan = SessionJournal::scan_segment(
      corpus_path("truncated_frame/seg-000001.m3dflj"));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].type, JournalRecord::Type::kOpen);
  EXPECT_EQ(scan.valid_bytes, 57u);
  EXPECT_NE(scan.diagnostic.find(": journal byte 57: truncated frame payload"),
            std::string::npos)
      << scan.diagnostic;
  EXPECT_NE(scan.diagnostic.find("accepting the valid prefix (1 record(s), "
                                 "57 bytes)"),
            std::string::npos)
      << scan.diagnostic;
}

TEST(JournalCorpusTest, BadCrcIsRejectedWithBothChecksums) {
  const SegmentScan scan =
      SessionJournal::scan_segment(corpus_path("bad_crc/seg-000001.m3dflj"));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_NE(scan.diagnostic.find(": journal byte 57: frame checksum mismatch "
                                 "(expected deadbeef, computed 492fd8a1)"),
            std::string::npos)
      << scan.diagnostic;
}

TEST(JournalCorpusTest, ValidPrefixThenGarbageStopsAtTheGarbage) {
  const SegmentScan scan = SessionJournal::scan_segment(
      corpus_path("valid_prefix_then_garbage/seg-000001.m3dflj"));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, 91u);
  EXPECT_NE(scan.diagnostic.find(": journal byte 91: bad frame marker "
                                 "(expected 'r ', found 'GA')"),
            std::string::npos)
      << scan.diagnostic;
}

TEST(JournalCorpusTest, EmptySegmentIsMissingItsHeader) {
  const SegmentScan scan = SessionJournal::scan_segment(
      corpus_path("empty_segment/seg-000001.m3dflj"));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_NE(scan.diagnostic.find(": journal byte 0: missing "
                                 "'m3dfl-journal 1' header"),
            std::string::npos)
      << scan.diagnostic;
}

TEST(JournalCorpusTest, DuplicateTombstoneIsIgnoredWithItsOffset) {
  const JournalReplay replay =
      SessionJournal::replay(corpus_path("duplicate_tombstone"));
  EXPECT_EQ(replay.records, 4u);
  EXPECT_EQ(replay.closed_sessions, 1u);
  EXPECT_TRUE(replay.live.empty());
  ASSERT_EQ(replay.diagnostics.size(), 1u);
  EXPECT_NE(replay.diagnostics[0].find(
                ": journal byte 128: duplicate tombstone for session 7; "
                "ignored"),
            std::string::npos)
      << replay.diagnostics[0];
}

// An `open` that reuses a tombstoned id is dropped outright — the
// diagnostic must say so rather than claim any prior open was "kept", and
// the session's records go with it.  (The writer-side guard is
// SessionManager::recover() seeding next_id_ past replay.max_session_id;
// this pins what a journal looks like when that guard is missing.)
TEST(JournalTest, OpenForAlreadyClosedSessionIsDropped) {
  const std::string dir = scratch_dir("reused_id");
  write_segment(dir, "seg-000001.m3dflj",
                {"open 7 100 0 0 D", "close 7 200 finalized",
                 "open 7 300 0 0 D", "rec 7 350 scan 0 1"});
  const JournalReplay replay = SessionJournal::replay(dir);
  EXPECT_TRUE(replay.live.empty());
  EXPECT_EQ(replay.closed_sessions, 1u);
  EXPECT_EQ(replay.max_session_id, 7u);
  ASSERT_EQ(replay.diagnostics.size(), 2u);
  EXPECT_NE(replay.diagnostics[0].find(
                "open for already-closed session 7; dropped"),
            std::string::npos)
      << replay.diagnostics[0];
  EXPECT_NE(replay.diagnostics[1].find("record for closed session 7"),
            std::string::npos)
      << replay.diagnostics[1];
}

// A duplicate open for a session that is still live keeps the first open
// (the second is presumed a replayed/garbled frame, not a fresh session).
TEST(JournalTest, DuplicateOpenForLiveSessionKeepsTheFirst) {
  const std::string dir = scratch_dir("dup_open");
  write_segment(dir, "seg-000001.m3dflj",
                {"open 7 100 0 0 First", "open 7 200 0 0 Second"});
  const JournalReplay replay = SessionJournal::replay(dir);
  ASSERT_EQ(replay.live.size(), 1u);
  EXPECT_EQ(replay.live[0].design_name, "First");
  ASSERT_EQ(replay.diagnostics.size(), 1u);
  EXPECT_NE(replay.diagnostics[0].find(
                "duplicate open for session 7; keeping the first"),
            std::string::npos)
      << replay.diagnostics[0];
}

// A failed rotation loses exactly one event and must count exactly one
// append failure (not one for the failed ::open plus one for the dead fd).
TEST(JournalTest, FailedRotationCountsEachLostEventOnce) {
  const std::string dir = scratch_dir("rotate_fail");
  Metrics metrics;
  JournalOptions options;
  options.max_segment_bytes = 1;  // every append wants a fresh segment
  options.metrics = &metrics;
  SessionJournal journal(dir, options);
  journal.append_open(1, "D", 0.0, 0.0);
  EXPECT_EQ(metrics.journal_appends.load(), 1);
  // Yank the directory out from under the writer: the next rotation's
  // ::open fails with ENOENT and that event is lost.
  fs::remove_all(dir);
  journal.append_record(1, "scan 0 1");
  EXPECT_FALSE(journal.durable());
  EXPECT_EQ(metrics.journal_append_failures.load(), 1);
  journal.append_record(1, "scan 0 2");
  EXPECT_EQ(metrics.journal_append_failures.load(), 2);
  EXPECT_EQ(metrics.journal_appends.load(), 1);
}

// ---- compaction ------------------------------------------------------------

TEST(JournalTest, CompactRemovesSealedFullyTombstonedSegments) {
  const std::string dir = scratch_dir("compact");
  write_segment(dir, "seg-000001.m3dflj",
                {"open 1 100 0 0 D", "rec 1 150 scan 0 1",
                 "close 1 200 finalized"});
  write_segment(dir, "seg-000002.m3dflj",
                {"open 2 300 0 0 D", "close 2 400 expired"});
  write_segment(dir, "seg-000003.m3dflj", {"open 3 500 0 0 D"});

  EXPECT_EQ(SessionJournal::compact(dir), 2u);
  ASSERT_EQ(SessionJournal::list_segments(dir).size(), 1u);
  const JournalReplay replay = SessionJournal::replay(dir);
  ASSERT_EQ(replay.live.size(), 1u);
  EXPECT_EQ(replay.live[0].id, 3u);
}

TEST(JournalTest, CompactNeverTouchesTheNewestSegment) {
  const std::string dir = scratch_dir("compact_newest");
  // Everything is tombstoned, but the newest segment may have a live
  // writer appending to it — it must survive.
  write_segment(dir, "seg-000001.m3dflj",
                {"open 1 100 0 0 D", "close 1 200 finalized"});
  EXPECT_EQ(SessionJournal::compact(dir), 0u);
  write_segment(dir, "seg-000002.m3dflj",
                {"open 2 300 0 0 D", "close 2 400 finalized"});
  EXPECT_EQ(SessionJournal::compact(dir), 1u);
  const std::vector<std::string> left = SessionJournal::list_segments(dir);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_NE(left[0].find("seg-000002"), std::string::npos);
}

TEST(JournalTest, CompactKeepsTombstonesWhoseOpenSurvivesElsewhere) {
  const std::string dir = scratch_dir("compact_guard");
  // seg1 must stay (session 9 is still open there); seg2 holds only the
  // tombstone for session 1 whose open survives in seg1 — removing seg2
  // would resurrect session 1 at the next replay.
  write_segment(dir, "seg-000001.m3dflj",
                {"open 1 100 0 0 D", "rec 1 150 scan 0 1",
                 "open 9 160 0 0 D"});
  write_segment(dir, "seg-000002.m3dflj", {"close 1 200 finalized"});
  write_segment(dir, "seg-000003.m3dflj", {"open 2 300 0 0 D"});

  EXPECT_EQ(SessionJournal::compact(dir), 0u);
  const JournalReplay replay = SessionJournal::replay(dir);
  // Sessions 9 and 2 live; session 1 stays closed because its tombstone
  // survived.
  EXPECT_EQ(replay.live.size(), 2u);
  EXPECT_EQ(replay.closed_sessions, 1u);
}

// ---- lint bridge -----------------------------------------------------------

TEST(JournalTest, StaleSegmentLintCiteSegmentAndOffset) {
  const std::string dir = scratch_dir("lint_stale");
  FakeClock clock;
  JournalOptions options;
  options.wall_ms = clock.fn();
  SessionJournal journal(dir, options);
  journal.append_open(1, "D", 0.0, 0.0);
  clock.now_ms = 1500;
  journal.append_record(1, "scan 0 1");

  // Newest record is 8500 ms old against a 500 ms lifetime: stale.
  const lint::JournalFacts stale = journal_lint_facts(dir, 500.0, 10000);
  lint::Subject subject;
  subject.journal = &stale;
  lint::Report report;
  lint::run_journal_checks(subject, report);
  ASSERT_EQ(report.size(), 1u);
  const lint::Diagnostic& d = report.diagnostics()[0];
  EXPECT_EQ(d.check_id, "session-journal-stale");
  EXPECT_EQ(d.severity, lint::Severity::kWarn);
  EXPECT_NE(d.location.find("seg-000001.m3dflj"), std::string::npos);
  // The newest record is the `rec` frame, not the `open` before it.
  const SegmentScan scan =
      SessionJournal::scan_segment(journal.active_segment());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_NE(d.location.find("offset " +
                            std::to_string(scan.records[1].offset)),
            std::string::npos)
      << d.location;
  EXPECT_NE(d.message.find("8500 ms old"), std::string::npos) << d.message;

  // Fresh journal or no lifetime deadline: quiet.
  const lint::JournalFacts fresh = journal_lint_facts(dir, 500.0, 1600);
  subject.journal = &fresh;
  lint::Report clean;
  lint::run_journal_checks(subject, clean);
  EXPECT_EQ(clean.size(), 0u);
  const lint::JournalFacts no_deadline = journal_lint_facts(dir, 0.0, 10000);
  subject.journal = &no_deadline;
  lint::Report quiet;
  lint::run_journal_checks(subject, quiet);
  EXPECT_EQ(quiet.size(), 0u);
}

// ---- ParseLimits guardrails (util/limits.h) ---------------------------------

// A declared frame length is adversarial input: strtoull saturates any
// over-long digit string at ULLONG_MAX, and ULLONG_MAX would wrap
// `offset + payload_size + 1` into passing the truncation check.  The cap
// must fire before that arithmetic, keeping the valid prefix.
TEST(JournalLimitsTest, HugeDeclaredFrameLengthIsTornAtTheCap) {
  for (const char* declared :
       {"4294967296", "99999999999999999999", "18446744073709551615"}) {
    const std::string text = "m3dfl-journal 1\n" +
                             frame("open 1 1000 0 0 D") + "r deadbeef " +
                             declared + " x\n";
    const SegmentScan scan =
        SessionJournal::scan_segment_text("<mem>", text);
    ASSERT_EQ(scan.records.size(), 1u) << declared;
    EXPECT_EQ(scan.records[0].type, JournalRecord::Type::kOpen);
    EXPECT_NE(scan.diagnostic.find("journal byte "), std::string::npos)
        << scan.diagnostic;
    EXPECT_NE(
        scan.diagnostic.find("limit exceeded: declared frame payload bytes"),
        std::string::npos)
        << scan.diagnostic;
    EXPECT_NE(scan.diagnostic.find("accepting the valid prefix (1 record(s)"),
              std::string::npos)
        << scan.diagnostic;
  }
}

TEST(JournalLimitsTest, SegmentByteCapCited) {
  ParseLimits limits;
  limits.max_file_bytes = 8;
  const SegmentScan scan = SessionJournal::scan_segment_text(
      "<mem>", "m3dfl-journal 1\n" + frame("open 1 1000 0 0 D"), limits);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_NE(scan.diagnostic.find("journal byte 0"), std::string::npos)
      << scan.diagnostic;
  EXPECT_NE(scan.diagnostic.find("limit exceeded: segment bytes"),
            std::string::npos)
      << scan.diagnostic;
}

// The in-memory seam fuzz/ drives must agree with the on-disk scan.
TEST(JournalLimitsTest, ScanSegmentTextMatchesOnDiskScan) {
  const std::string dir = scratch_dir("text_vs_disk");
  write_segment(dir, "seg-000001.m3dflj",
                {"open 1 1000 0 0 D", "rec 1 1001 scan 0 1", "GARBAGE"});
  const std::string path = (fs::path(dir) / "seg-000001.m3dflj").string();
  std::ifstream is(path, std::ios::binary);
  std::stringstream buf;
  buf << is.rdbuf();
  const SegmentScan disk = SessionJournal::scan_segment(path);
  const SegmentScan mem =
      SessionJournal::scan_segment_text(path, buf.str());
  EXPECT_EQ(disk.records.size(), mem.records.size());
  EXPECT_EQ(disk.valid_bytes, mem.valid_bytes);
  EXPECT_EQ(disk.diagnostic, mem.diagnostic);
}

}  // namespace
}  // namespace m3dfl::serve
