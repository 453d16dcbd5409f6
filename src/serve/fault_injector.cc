#include "serve/fault_injector.h"

namespace m3dfl::serve {

const char* seam_name(Seam seam) {
  switch (seam) {
    case Seam::kQueueAdmit: return "queue-admit";
    case Seam::kCacheLookup: return "cache-lookup";
    case Seam::kCacheInsert: return "cache-insert";
    case Seam::kModelPredict: return "model-predict";
    case Seam::kFrameworkLoad: return "framework-load";
    case Seam::kAdmissionLint: return "admission-lint";
    case Seam::kStreamDisconnect: return "stream-disconnect";
    case Seam::kJournalTornWrite: return "journal-torn-write";
    case Seam::kJournalFsync: return "journal-fsync";
    case Seam::kJournalCorrupt: return "journal-corrupt";
    case Seam::kStreamMalformedBytes: return "stream-malformed-bytes";
  }
  return "unknown";
}

void maybe_throw(FaultInjector& injector, Seam seam, const std::string& what) {
  if (!injector.should_fail(seam)) return;
  if (injector.kind<FaultKind>(seam) == FaultKind::kModelUnavailable) {
    throw ModelUnavailableError(what);
  }
  throw TransientError(what);
}

}  // namespace m3dfl::serve
