#include "fuzz/surfaces.h"

#include <sstream>

#include "core/config.h"
#include "diag/log_io.h"
#include "lint/lint.h"
#include "netlist/verilog_io.h"
#include "registry/registry.h"
#include "serve/journal.h"
#include "util/artifact.h"
#include "util/error.h"

namespace m3dfl::fuzz {

// The artifact kind every fuzz container seed is wrapped as; a mutated kind
// field then exercises the kind-mismatch rejection.
inline constexpr const char* kFuzzArtifactKind = "fuzz-blob";

const char* surface_name(Surface surface) {
  switch (surface) {
    case Surface::kMnl: return "mnl";
    case Surface::kFaillogBatch: return "faillog-batch";
    case Surface::kStreamRecord: return "stream-record";
    case Surface::kArtifact: return "artifact";
    case Surface::kJournal: return "journal";
    case Surface::kConfig: return "config";
    case Surface::kRegistryName: return "registry-name";
  }
  return "?";
}

const char* surface_citation(Surface surface) {
  switch (surface) {
    case Surface::kMnl: return "MNL";
    case Surface::kFaillogBatch: return "failure log";
    case Surface::kStreamRecord: return "failure log line ";
    case Surface::kArtifact: return "artifact byte ";
    case Surface::kJournal: return "journal byte ";
    case Surface::kConfig: return "<fuzz> line ";
    case Surface::kRegistryName: return "";
  }
  return "";
}

bool citation_always_required(Surface surface) {
  return surface != Surface::kMnl && surface != Surface::kRegistryName;
}

SurfaceOutcome run_surface(Surface surface, const std::string& data) {
  // The lint path scans MNL with read_mnl's scanner but reports every bad
  // line as a diagnostic instead of throwing.  It runs outside the try
  // below, so anything it throws (m3dfl::Error included) is a finding.
  if (surface == Surface::kMnl) (void)lint::lint_mnl(data, "<fuzz>");
  SurfaceOutcome outcome;
  try {
    switch (surface) {
      case Surface::kMnl:
        (void)from_mnl(data);
        break;
      case Surface::kFaillogBatch:
        (void)failure_log_from_string(data);
        break;
      case Surface::kStreamRecord:
        (void)parse_stream_record(data, 1);
        break;
      case Surface::kArtifact:
        (void)read_artifact(data, kFuzzArtifactKind, "<fuzz>");
        break;
      case Surface::kJournal: {
        // scan_segment_text never throws: torn/corrupt tails come back as
        // an offset-cited diagnostic with the valid prefix accepted.
        const serve::SegmentScan scan =
            serve::SessionJournal::scan_segment_text("<fuzz>", data);
        if (!scan.diagnostic.empty()) {
          outcome.diagnostic = scan.diagnostic;
          return outcome;
        }
        break;
      }
      case Surface::kConfig: {
        std::istringstream is(data);
        (void)read_train_options(is, {}, "<fuzz>");
        break;
      }
      case Surface::kRegistryName: {
        // Bool surface: no diagnostics by design — directory scans skip
        // non-artifact names instead of reporting them.
        std::string design;
        std::int32_t version = 0;
        if (!registry::ModelRegistry::parse_artifact_filename(data, &design,
                                                              &version)) {
          outcome.diagnostic = "not an artifact filename";
          return outcome;
        }
        break;
      }
    }
  } catch (const Error& e) {
    outcome.diagnostic = e.what();
    if (outcome.diagnostic.empty()) outcome.diagnostic = "(empty Error)";
    return outcome;
  }
  outcome.accepted = true;
  return outcome;
}

}  // namespace m3dfl::fuzz
