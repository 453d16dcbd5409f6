// The serving layer's fault-injection seams.
//
// The deterministic trigger machinery (per-seam xoshiro streams, scripted
// nth-call triggers, exact accounting) is util/fault_injector.h's
// FaultInjector, which serve code calls with the Seam enum below.  This
// header names the service's failure seams, the FaultKind that selects
// which typed error maybe_throw() raises (which in turn selects the
// service's response — retry vs degrade), and maybe_throw() itself.
#ifndef M3DFL_SERVE_FAULT_INJECTOR_H_
#define M3DFL_SERVE_FAULT_INJECTOR_H_

#include <string>

#include "serve/status.h"
#include "util/fault_injector.h"

namespace m3dfl::serve {

// The failure seams the service exposes to injection.
enum class Seam : int {
  kQueueAdmit = 0,    // submit-side admission (simulates a flooded queue)
  kCacheLookup = 1,   // cache read on the worker path
  kCacheInsert = 2,   // cache fill after the leader computes
  kModelPredict = 3,  // GNN inference
  kFrameworkLoad = 4, // deserializing the model at construction
  kAdmissionLint = 5, // design-lint admission gate (simulates a design that
                      // failed static analysis at registration)
  // Streaming-session seams (serve/session.h).  These do not throw typed
  // errors; the session layer consults should_fail() and maps a trigger to
  // the corresponding stream failure deterministically:
  kStreamDisconnect = 6,  // tester drops the connection -> session expiry
  // Session-journal seams (serve/journal.h).  Like the stream seams these
  // never throw; the journal maps a trigger to the corresponding storage
  // failure deterministically and the serving request always succeeds:
  kJournalTornWrite = 7,  // crash/full disk mid-frame -> prefix on disk,
                          // event counted lost, segment sealed
  kJournalFsync = 8,      // fsync fails -> degrade to non-durable
  kJournalCorrupt = 9,    // silent media bit-flip -> CRC mismatch at scan
  // Adversarial-input seam: the incoming line is replaced with deterministic
  // malformed bytes (NUL injection, trailing garbage, an over-limit line, a
  // huge numeric field) *before* parsing, so chaos runs exercise the real
  // parser/limit rejection paths -> line-cited record rejection.
  kStreamMalformedBytes = 10,
};

inline constexpr int kNumSeams = 11;

const char* seam_name(Seam seam);

// Which typed error a triggered seam raises.
enum class FaultKind {
  kTransient,         // serve::TransientError  -> retry path
  kModelUnavailable,  // serve::ModelUnavailableError -> degrade path
};

// injector.should_fail(seam), throwing the seam's typed error (by the
// FaultKind it was armed with) when it triggers.
void maybe_throw(FaultInjector& injector, Seam seam, const std::string& what);

}  // namespace m3dfl::serve

#endif  // M3DFL_SERVE_FAULT_INJECTOR_H_
