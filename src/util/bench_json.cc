#include "util/bench_json.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "util/atomic_file.h"

namespace m3dfl {

std::string json_escape(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonValue::to_string() const {
  switch (kind_) {
    case Kind::kString:
      return json_escape(string_);
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble: {
      if (!std::isfinite(double_)) return "null";
      // %.17g round-trips every double; trim to the shortest form that still
      // parses back exactly is overkill for bench output.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      return buf;
    }
  }
  return "null";
}

JsonObject& JsonObject::set(const std::string& key, JsonValue value) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(value));
  return *this;
}

std::string JsonObject::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    if (!first) os << ", ";
    first = false;
    os << json_escape(key) << ": " << value.to_string();
  }
  os << "}";
  return os.str();
}

BenchJson::BenchJson(std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  meta("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  meta("compiler", M3DFL_COMPILER);
  meta("build_type", M3DFL_BUILD_TYPE);
  meta("git_sha", M3DFL_GIT_SHA);
}

BenchJson& BenchJson::meta(const std::string& key, JsonValue value) {
  meta_.set(key, std::move(value));
  return *this;
}

JsonObject& BenchJson::add_row() {
  rows_.emplace_back();
  return rows_.back();
}

std::string BenchJson::to_string() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": " << json_escape(bench_name_) << ",\n";
  os << "  \"meta\": " << meta_.to_string() << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    os << "    " << rows_[i].to_string();
    if (i + 1 < rows_.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

void BenchJson::write(const std::string& path) const {
  write_file_atomic(path, to_string());
}

}  // namespace m3dfl
