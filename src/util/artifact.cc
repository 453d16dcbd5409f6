#include "util/artifact.h"

#include <charconv>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/checksum.h"
#include "util/error.h"

namespace m3dfl {
namespace {

std::string hex32(std::uint32_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(8) << std::setfill('0') << value;
  return os.str();
}

[[noreturn]] void artifact_fail(const std::string& source, std::size_t offset,
                                const std::string& what) {
  throw Error(source + ": artifact byte " + std::to_string(offset) + ": " +
              what);
}

// Cursor over the container text; every consumption step knows its offset.
struct Cursor {
  std::string_view text;
  std::size_t offset = 0;
  const std::string& source;

  // Consumes up to the next '\n' (exclusive) and returns it; the newline
  // itself is required — a final line without one is a truncation.
  std::string_view line(const char* what) {
    const std::size_t nl = text.find('\n', offset);
    if (nl == std::string_view::npos) {
      artifact_fail(source, offset,
                    std::string("truncated: missing newline after ") + what);
    }
    std::string_view result = text.substr(offset, nl - offset);
    offset = nl + 1;
    return result;
  }
};

}  // namespace

void write_artifact(std::ostream& os, const std::string& kind,
                    std::string_view payload) {
  os << kArtifactMagic << " " << kArtifactVersion << " " << kind << "\n";
  os << "payload-bytes " << payload.size() << "\n";
  os << payload << "\n";
  os << "crc32 " << hex32(crc32(payload)) << "\n";
  os << "m3dfl-artifact-end\n";
}

std::string artifact_to_string(const std::string& kind,
                               std::string_view payload) {
  std::ostringstream os;
  write_artifact(os, kind, payload);
  return os.str();
}

bool is_artifact(std::string_view text) {
  const std::string prefix = std::string(kArtifactMagic) + " ";
  return text.substr(0, prefix.size()) == prefix;
}

std::string slurp_stream(std::istream& is) {
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string read_artifact(std::string_view text, const std::string& kind,
                          const std::string& source,
                          const ParseLimits& limits) {
  if (text.size() > limits.max_file_bytes) {
    artifact_fail(source, 0,
                  limit_exceeded("container bytes", text.size(),
                                 limits.max_file_bytes));
  }
  Cursor cur{text, 0, source};

  // Header: "m3dfl-artifact <version> <kind>".
  {
    const std::size_t header_offset = cur.offset;
    std::istringstream hs{std::string(cur.line("the artifact header"))};
    std::string magic;
    hs >> magic;
    if (magic != kArtifactMagic) {
      artifact_fail(source, header_offset,
                    "bad magic: expected '" + std::string(kArtifactMagic) +
                        "', found '" + magic +
                        "' (if this is a format-1 model stream, convert it "
                        "with `m3dfl_tool migrate-artifact`)");
    }
    std::string version;
    hs >> version;
    if (version != std::to_string(kArtifactVersion)) {
      artifact_fail(
          source, header_offset,
          "unsupported artifact format version: expected " +
              std::to_string(kArtifactVersion) + ", found '" + version +
              "'" +
              (version > std::to_string(kArtifactVersion)
                   ? " (produced by a newer writer; upgrade to load it)"
                   : ""));
    }
    std::string found_kind;
    hs >> found_kind;
    if (found_kind != kind) {
      artifact_fail(source, header_offset,
                    "artifact kind mismatch: expected '" + kind +
                        "', found '" + found_kind + "'");
    }
    std::string extra;
    if (hs >> extra) {
      artifact_fail(source, header_offset,
                    "trailing garbage '" + extra + "' in artifact header");
    }
  }

  // "payload-bytes <N>".
  std::size_t payload_size = 0;
  {
    const std::size_t length_offset = cur.offset;
    const std::string_view line = cur.line("the payload-bytes record");
    constexpr std::string_view kPrefix = "payload-bytes ";
    if (line.substr(0, kPrefix.size()) != kPrefix) {
      artifact_fail(source, length_offset,
                    "expected 'payload-bytes <N>', found '" +
                        std::string(line) + "'");
    }
    const std::string_view digits = line.substr(kPrefix.size());
    const auto result = std::from_chars(
        digits.data(), digits.data() + digits.size(), payload_size);
    if (result.ec != std::errc() ||
        result.ptr != digits.data() + digits.size()) {
      artifact_fail(source, length_offset,
                    "bad payload length '" + std::string(digits) + "'");
    }
    // Cap the declared length before it is compared against (or added to)
    // anything: a declared SIZE_MAX would wrap the `payload_size + 1`
    // truncation check below into accepting, then wrap the cursor.
    if (payload_size > limits.max_declared_payload_bytes) {
      artifact_fail(source, length_offset,
                    limit_exceeded("declared payload bytes", payload_size,
                                   limits.max_declared_payload_bytes));
    }
  }

  // Payload: exactly payload_size bytes followed by '\n'.
  const std::size_t payload_offset = cur.offset;
  if (text.size() - cur.offset < payload_size + 1) {
    artifact_fail(source, payload_offset,
                  "truncated payload: expected " +
                      std::to_string(payload_size) + " bytes, only " +
                      std::to_string(text.size() - cur.offset) +
                      " available");
  }
  const std::string_view payload = text.substr(cur.offset, payload_size);
  cur.offset += payload_size;
  if (text[cur.offset] != '\n') {
    artifact_fail(source, cur.offset,
                  "expected newline after the payload (payload-bytes and "
                  "payload disagree)");
  }
  ++cur.offset;

  // "crc32 <hex>".
  {
    const std::size_t crc_offset = cur.offset;
    const std::string_view line = cur.line("the crc32 record");
    constexpr std::string_view kPrefix = "crc32 ";
    if (line.substr(0, kPrefix.size()) != kPrefix) {
      artifact_fail(source, crc_offset,
                    "expected 'crc32 <hex>', found '" + std::string(line) +
                        "'");
    }
    const std::string_view digits = line.substr(kPrefix.size());
    std::uint32_t stored = 0;
    const auto result = std::from_chars(
        digits.data(), digits.data() + digits.size(), stored, 16);
    if (digits.size() != 8 || result.ec != std::errc() ||
        result.ptr != digits.data() + digits.size()) {
      artifact_fail(source, crc_offset,
                    "bad crc32 value '" + std::string(digits) +
                        "' (expected 8 hex digits)");
    }
    const std::uint32_t computed = crc32(payload);
    if (computed != stored) {
      artifact_fail(source, payload_offset,
                    "payload CRC32 mismatch over bytes [" +
                        std::to_string(payload_offset) + ", " +
                        std::to_string(payload_offset + payload_size) +
                        "): stored " + hex32(stored) + ", computed " +
                        hex32(computed));
    }
  }

  // Trailer and end-of-data.
  {
    const std::size_t trailer_offset = cur.offset;
    const std::string_view line = cur.line("the end trailer");
    if (line != "m3dfl-artifact-end") {
      artifact_fail(source, trailer_offset,
                    "expected 'm3dfl-artifact-end' trailer, found '" +
                        std::string(line) + "'");
    }
  }
  if (cur.offset != text.size()) {
    artifact_fail(source, cur.offset,
                  "trailing garbage after the artifact trailer (" +
                      std::to_string(text.size() - cur.offset) + " bytes)");
  }
  return std::string(payload);
}

}  // namespace m3dfl
