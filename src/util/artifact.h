// Versioned, checksummed artifact container (format version 2).
//
// Every artifact this library persists — trained models, frameworks, training
// checkpoints — is wrapped in one self-validating envelope:
//
//   m3dfl-artifact 2 <kind>\n       magic, format version, artifact kind
//   payload-bytes <N>\n             exact payload length in bytes
//   <N raw payload bytes>\n         the kind-specific payload
//   crc32 <8 lowercase hex>\n       CRC32 over exactly the payload bytes
//   m3dfl-artifact-end\n            trailer: distinguishes complete from torn
//
// The reader rejects, with errors citing the byte offset and the source
// name: bad magic (expected vs found), future or unknown format versions
// (expected vs found), kind mismatches, truncated payloads (expected vs
// available bytes), CRC mismatches (stored vs computed, plus the checked
// byte range), a missing/garbled trailer, and trailing garbage after the
// trailer.  Together with CRC32 this detects every single-byte flip and
// every truncation of a saved artifact.
//
// Version history: "1" is the pre-container era (bare "m3dfl-model 1" /
// "m3dfl-framework 1" streams).  "2" is this envelope; the payload it carries
// is exactly a version-1 stream.  Every load path accepts only "2": a bare
// format-1 stream fails the magic check with a hint naming
// `m3dfl_tool migrate-artifact`, and migrate_artifact() (core/framework.h)
// is the one place that converts it.
#ifndef M3DFL_UTIL_ARTIFACT_H_
#define M3DFL_UTIL_ARTIFACT_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "util/limits.h"

namespace m3dfl {

inline constexpr int kArtifactVersion = 2;
inline constexpr const char* kArtifactMagic = "m3dfl-artifact";

// Wraps `payload` in the container envelope and writes it to `os`.
void write_artifact(std::ostream& os, const std::string& kind,
                    std::string_view payload);
std::string artifact_to_string(const std::string& kind,
                               std::string_view payload);

// Parses a full container from `text` and returns its payload.  `source`
// names the stream in diagnostics (a file path, or "<stream>").  Throws
// m3dfl::Error on any structural or integrity violation; every message
// cites `source` and the offending byte offset.  `limits` bounds the
// container size and the declared payload length; the declared length is
// validated against both the cap and the remaining input bytes before any
// use, so "payload-bytes 10^18" rejects with a cited diagnostic instead of
// wrapping offsets or touching memory.
std::string read_artifact(std::string_view text, const std::string& kind,
                          const std::string& source,
                          const ParseLimits& limits = {});

// True when `text` starts with the container magic (i.e. is a version >= 2
// artifact rather than a bare format-1 stream).  Used by migrate_artifact()
// to tell the two apart.
bool is_artifact(std::string_view text);

// Reads the remainder of `is` into a string (artifact parsing operates on
// the whole buffer so diagnostics can cite absolute byte offsets).
std::string slurp_stream(std::istream& is);

}  // namespace m3dfl

#endif  // M3DFL_UTIL_ARTIFACT_H_
