// Tiny ordered JSON writer for benchmark result files.
//
// ROADMAP asks every perf-bearing PR to leave a machine-readable trace
// (`BENCH_*.json`) so the performance trajectory stays visible across
// re-anchors.  This is the one writer all benches share: a flat document of
//
//   {
//     "bench": "<name>",
//     "meta":  { ...run-level facts: design, request counts, thread caps... },
//     "rows":  [ { ...one measurement point... }, ... ]
//   }
//
// Every document's meta opens with the facts that make two runs comparable:
// "nproc" (hardware threads), "compiler", "build_type", and "git_sha" (the
// commit the build tree was configured at).
//
// Keys keep insertion order (deterministic output for diffing), values are
// strings, bools, integers, or doubles (doubles rendered with enough digits
// to round-trip; NaN/Inf are not valid JSON and are rendered as null).
// write() goes through the atomic temp-file + rename path, so a killed bench
// never leaves a torn result file behind.
#ifndef M3DFL_UTIL_BENCH_JSON_H_
#define M3DFL_UTIL_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace m3dfl {

// One scalar JSON value.
class JsonValue {
 public:
  JsonValue(const char* v) : kind_(Kind::kString), string_(v) {}
  JsonValue(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  JsonValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(std::size_t v)
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}

  // Renders the value as a JSON token (quoted/escaped for strings).
  std::string to_string() const;

 private:
  enum class Kind { kString, kBool, kInt, kDouble };
  Kind kind_;
  std::string string_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
};

// An insertion-ordered JSON object of scalar fields.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, JsonValue value);
  std::string to_string() const;
  bool empty() const { return fields_.empty(); }

 private:
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

// The whole BENCH_*.json document.
class BenchJson {
 public:
  // Stamps the meta with nproc, compiler, build type and git sha.
  explicit BenchJson(std::string bench_name);

  // Run-level facts (design, scale knobs, host thread count, ...).
  BenchJson& meta(const std::string& key, JsonValue value);
  // Appends one measurement row and returns it for field population.
  JsonObject& add_row();

  std::string to_string() const;
  // Atomic write (util/atomic_file.h) of to_string() to `path`.
  void write(const std::string& path) const;

 private:
  std::string bench_name_;
  JsonObject meta_;
  std::vector<JsonObject> rows_;
};

// Escapes `text` as a JSON string literal, quotes included.
std::string json_escape(const std::string& text);

}  // namespace m3dfl

#endif  // M3DFL_UTIL_BENCH_JSON_H_
