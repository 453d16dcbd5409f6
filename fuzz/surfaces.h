// The seven untrusted parse surfaces, behind one bytes-in/verdict-out call.
//
// Everything the service parses that it did not itself write funnels through
// run_surface(): the MNL netlist reader (plus `m3dfl_tool lint`'s scan of
// the same bytes), the batch failure-log reader, the per-line streaming
// record parser, the artifact container, the session journal segment
// scanner, the train-config reader, and registry artifact filename parsing.
// (Verilog is write-only; it has no parse surface.)
//
// The contract run_surface() enforces — and that both fuzz drivers check —
// is the hardening contract of util/limits.h:
//
//   * arbitrary bytes either parse (accepted == true) or reject through
//     m3dfl::Error with a diagnostic citing the offending line/byte offset
//     (accepted == false, diagnostic non-empty);
//   * no other exception type escapes, no crash, no hang, and no
//     allocation proportional to a declared-but-unvalidated length.
//
// Both the deterministic corpus-replay driver (fuzz_replay.cc, runs under
// any compiler, wired into CI under ASan/UBSan) and the libFuzzer harnesses
// (libfuzzer_harness.cc, Clang-only, M3DFL_FUZZ=ON) drive this one entry
// point, so a corpus case and a fuzzer-found case are always replayable
// through the exact same code.
#ifndef M3DFL_FUZZ_SURFACES_H_
#define M3DFL_FUZZ_SURFACES_H_

#include <array>
#include <string>

namespace m3dfl::fuzz {

enum class Surface {
  kMnl,           // netlist/verilog_io.h read_mnl / from_mnl, and
                  // lint/lint.h lint_mnl (which must never throw)
  kFaillogBatch,  // diag/log_io.h read_failure_log
  kStreamRecord,  // diag/log_io.h parse_stream_record (one feed line)
  kArtifact,      // util/artifact.h read_artifact (container envelope)
  kJournal,       // serve/journal.h scan_segment_text (one segment image)
  kConfig,        // core/config.h read_train_options
  kRegistryName,  // registry parse_artifact_filename (bool surface)
};

inline constexpr std::array<Surface, 7> kAllSurfaces = {
    Surface::kMnl,     Surface::kFaillogBatch, Surface::kStreamRecord,
    Surface::kArtifact, Surface::kJournal,     Surface::kConfig,
    Surface::kRegistryName,
};

const char* surface_name(Surface surface);

struct SurfaceOutcome {
  bool accepted = false;
  // Rejections only: the Error text (or the scan/bool surface's reason).
  std::string diagnostic;
};

// Feeds `data` to the surface's parser.  Catches m3dfl::Error (a correct
// rejection) and returns it as the outcome; every other exception escapes —
// to the driver, that is a finding, exactly like a crash.
SurfaceOutcome run_surface(Surface surface, const std::string& data);

// The substring every limit-guardrail rejection on this surface must carry
// (its citation prefix).  Empty for kRegistryName, whose parser is a bool
// filter with no diagnostics by design.
const char* surface_citation(Surface surface);

// True when *every* rejection on this surface is required to carry the
// citation (false only for kMnl, where gross structural errors found at
// netlist finalization cite nets/gates instead of an input line).
bool citation_always_required(Surface surface);

}  // namespace m3dfl::fuzz

#endif  // M3DFL_FUZZ_SURFACES_H_
