// Uniform parse-limit policy for every untrusted input surface.
//
// The service ingests byte streams from sources it does not control —
// tester failure logs, uploaded netlists, registry artifacts, journals,
// config files.  Each parser already rejects *malformed* input with a
// cited diagnostic; ParseLimits adds the second half of the contract:
// *well-formed but adversarial* input (a 2 GB line, a gate record naming
// net 2^31-1, a frame declaring a petabyte payload) must also map to a
// cited rejection instead of an allocation bomb or an unbounded read.
//
// Two rules, enforced by fuzz/fuzz_replay and pinned by per-surface tests:
//
//  1. No declared length is ever resize()d/reserve()d or otherwise turned
//     into an allocation before it has been validated — against the
//     remaining input bytes where the stream length is known (util/artifact,
//     serve/journal), and against this policy's caps everywhere.
//  2. Every limit rejection carries the surface's usual citation (line or
//     byte offset) plus the uniform limit_exceeded() tail, so one grep
//     ("limit exceeded") finds every guardrail rejection in a fleet log.
//
// The defaults are sized an order of magnitude above the largest input the
// roadmap targets (Table III full-scale designs, ~338K gates) so they never
// bite legitimate traffic; services handling bigger designs pass their own
// ParseLimits through the reader overloads.
#ifndef M3DFL_UTIL_LIMITS_H_
#define M3DFL_UTIL_LIMITS_H_

#include <cstdint>
#include <iosfwd>
#include <string>

namespace m3dfl {

struct ParseLimits {
  // ---- text-line surfaces (MNL, faillog batch + stream, train config) ----
  // Longest accepted line, in bytes.  Bounds both the per-line allocation
  // and tail-follow accumulation: an unterminated multi-gigabyte "line" on
  // a live feed rejects here instead of growing a buffer without limit.
  std::size_t max_line_bytes = 64 * 1024;
  // Most whitespace-separated tokens on one line (MNL record splitting).
  std::size_t max_tokens_per_line = 4096;

  // ---- netlist (MNL) structural caps -------------------------------------
  std::int32_t max_gates = 4'194'304;  // ~12x the largest Table III design
  std::int32_t max_nets = 8'388'608;
  // Fanin nets on one gate record (also the only nesting-like dimension any
  // of the line-oriented grammars has).
  std::size_t max_fanin = 1024;

  // ---- failure-log caps --------------------------------------------------
  // Largest accepted pattern index on scan/chan/po records and 'limit'.
  std::int32_t max_patterns = 16'777'215;
  // Largest accepted flop / channel / position / PO index.
  std::int32_t max_log_index = 16'777'215;
  // Total failing observations (scan + chan + po) in one batch log.
  std::size_t max_observations = 4'194'304;

  // ---- declared-length caps ----------------------------------------------
  // Artifact container "payload-bytes <N>" upper bound.
  std::size_t max_declared_payload_bytes = 256ull * 1024 * 1024;
  // Journal frame "r <crc> <len> ..." payload upper bound.
  std::size_t max_record_bytes = 1024 * 1024;
  // Whole-stream bound for surfaces that slurp (artifact containers,
  // journal segments).
  std::size_t max_file_bytes = 512ull * 1024 * 1024;

  // ---- misc surfaces -----------------------------------------------------
  std::size_t max_config_lines = 4096;     // train-config key/value lines
  std::size_t max_filename_bytes = 255;    // registry artifact filenames
  // Matrix cells (rows x cols) a model payload may declare before the
  // weight allocation happens (gnn/serialize load_matrix).
  std::int64_t max_matrix_cells = 1ll << 26;

  // The process-wide default policy (a default-constructed ParseLimits).
  static const ParseLimits& defaults();
};

// The uniform rejection tail: "limit exceeded: <what> N (limit K)".  Every
// surface prepends its own citation (".. line 7: ", "..: artifact byte 42: ").
std::string limit_exceeded(const std::string& what, unsigned long long value,
                           unsigned long long cap);
// Variant for bounds hit mid-read, where the true size is unknown because
// the reader stopped at the cap: "limit exceeded: <what> exceeds limit K".
std::string limit_exceeded_over(const std::string& what,
                                unsigned long long cap);

// One '\n'-terminated line of at most max_bytes bytes.
struct BoundedLine {
  enum class Status {
    kEof,      // nothing extracted, stream exhausted
    kOk,       // a complete line (newline consumed, or EOF-terminated)
    kTooLong,  // the line exceeds max_bytes; `line` holds the first
               // max_bytes bytes, the rest is left unread
  };
  Status status = Status::kEof;
  // kOk only: the line ended at EOF with no trailing '\n' (a tail-follower
  // snapshotting a live feed mid-append ends exactly like that).
  bool unterminated = false;
  bool ok() const { return status == Status::kOk; }
  bool too_long() const { return status == Status::kTooLong; }
};

// getline with a byte bound: the drop-in reader for every line-oriented
// parser, so an adversarial unterminated line can never accumulate more
// than max_bytes before the surface rejects it with a cited diagnostic.
BoundedLine bounded_getline(std::istream& is, std::string& line,
                            std::size_t max_bytes);

}  // namespace m3dfl

#endif  // M3DFL_UTIL_LIMITS_H_
