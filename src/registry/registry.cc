#include "registry/registry.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "lint/lint.h"
#include "util/error.h"
#include "util/limits.h"

#if defined(__unix__) || defined(__APPLE__)
#define M3DFL_REGISTRY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace m3dfl::registry {
namespace {

namespace fs = std::filesystem;

constexpr const char* kArtifactSuffix = ".m3dfl";

bool valid_design_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// Reads a whole file into a string.  On POSIX the read is mmap-backed (one
// copy, no iostream buffering of multi-MB weight text); elsewhere, or when
// mmap fails, falls back to a plain ifstream slurp.
std::string read_file_bytes(const std::string& path) {
#ifdef M3DFL_REGISTRY_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct ::stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const auto size = static_cast<std::size_t>(st.st_size);
      if (size == 0) {
        ::close(fd);
        return std::string();
      }
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        std::string bytes(static_cast<const char*>(map), size);
        ::munmap(map, size);
        ::close(fd);
        return bytes;
      }
    }
    ::close(fd);
  }
#endif
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw Error("m3dfl: registry cannot open artifact '" + path +
                "': " + std::strerror(errno));
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

}  // namespace

std::string sanitize_model_name(const std::string& name) {
  std::string out = name;
  // Sanitize never rejects, so the length policy truncates instead: the
  // result must stay usable inside artifact_filename's 255-byte budget
  // (with room for the "@<version>.m3dfl" tail it gains there).
  const std::size_t cap = ParseLimits::defaults().max_filename_bytes / 2;
  if (out.size() > cap) out.resize(cap);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '-';
  }
  if (out.empty()) out = "design";
  return out;
}

std::string ModelRegistry::artifact_filename(const std::string& design,
                                             std::int32_t version) {
  M3DFL_REQUIRE(valid_design_name(design),
                "registry design name must be non-empty [A-Za-z0-9._-]: '" +
                    design + "'");
  M3DFL_REQUIRE(version > 0, "registry artifact version must be positive");
  std::string filename =
      design + "@" + std::to_string(version) + kArtifactSuffix;
  const std::size_t cap = ParseLimits::defaults().max_filename_bytes;
  if (filename.size() > cap) {
    throw Error("registry artifact filename: " +
                limit_exceeded("filename bytes", filename.size(), cap));
  }
  return filename;
}

bool ModelRegistry::parse_artifact_filename(const std::string& filename,
                                            std::string* design,
                                            std::int32_t* version) {
  // Oversized names are not artifact filenames (the writer cannot produce
  // them: artifact_filename enforces the same cap).  Bool surface: callers
  // skip the entry, they do not diagnose it.
  if (filename.size() > ParseLimits::defaults().max_filename_bytes) {
    return false;
  }
  const std::size_t suffix_len = std::strlen(kArtifactSuffix);
  if (filename.size() <= suffix_len ||
      filename.compare(filename.size() - suffix_len, suffix_len,
                       kArtifactSuffix) != 0) {
    return false;
  }
  const std::string stem = filename.substr(0, filename.size() - suffix_len);
  const std::size_t at = stem.rfind('@');
  if (at == std::string::npos || at == 0 || at + 1 >= stem.size()) {
    return false;
  }
  const std::string name = stem.substr(0, at);
  if (!valid_design_name(name)) return false;
  std::int32_t v = 0;
  const char* first = stem.data() + at + 1;
  const char* last = stem.data() + stem.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last || v <= 0) return false;
  if (design != nullptr) *design = name;
  if (version != nullptr) *version = v;
  return true;
}

ModelRegistry::ModelRegistry(std::string dir, RegistryOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  std::error_code ec;
  M3DFL_REQUIRE(fs::is_directory(dir_, ec),
                "model registry root is not a directory: '" + dir_ + "'");
  std::lock_guard<std::mutex> lock(mu_);
  rescan_locked();
}

void ModelRegistry::rescan() {
  std::lock_guard<std::mutex> lock(mu_);
  rescan_locked();
}

void ModelRegistry::rescan_locked() {
  std::map<std::string, std::map<std::int32_t, std::string>> index;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string design;
    std::int32_t version = 0;
    if (!parse_artifact_filename(entry.path().filename().string(), &design,
                                 &version)) {
      continue;  // not a registry artifact (README, tmp files, ...)
    }
    index[design][version] = entry.path().string();
  }
  if (ec) {
    throw Error("m3dfl: registry scan of '" + dir_ +
                "' failed: " + ec.message());
  }
  index_ = std::move(index);
}

ModelRegistry::FileStamp ModelRegistry::stat_locked(
    const std::string& path) const {
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->should_fail(RegistrySeam::kStat)) {
    throw Error("m3dfl: injected registry stat fault on '" + path + "'");
  }
  std::error_code ec;
  const auto status_size = fs::file_size(path, ec);
  if (ec) {
    throw Error("m3dfl: registry cannot stat artifact '" + path +
                "': " + ec.message());
  }
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) {
    throw Error("m3dfl: registry cannot stat artifact '" + path +
                "': " + ec.message());
  }
  FileStamp stamp;
  stamp.size = static_cast<std::uint64_t>(status_size);
  stamp.mtime_ns = static_cast<std::int64_t>(
      mtime.time_since_epoch().count());
  return stamp;
}

std::shared_ptr<const LoadedModel> ModelRegistry::load_locked(
    const std::string& design, std::int32_t version, const std::string& path) {
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->should_fail(RegistrySeam::kLoad)) {
    throw Error("m3dfl: injected registry load fault on '" + path + "'");
  }
  const std::string bytes = read_file_bytes(path);
  auto model = std::make_shared<LoadedModel>();
  model->design = design;
  model->version = version;
  model->path = path;
  model->resident_bytes = bytes.size();
  // The container checksum/structure checks (and the framework's own shape
  // checks) run inside load(); any violation throws with `path` cited, and a
  // bare format-1 stream is told to run `m3dfl_tool migrate-artifact`.
  std::istringstream is(bytes);
  model->framework.load(is, path);
  if (options_.lint_models) {
    const lint::Report report = lint::lint_model(model->framework, nullptr);
    if (report.has_errors()) {
      throw Error("m3dfl: registry rejected '" + path +
                  "': lint_model found errors:\n" + report.to_string());
    }
  }
  model->generation = ++next_generation_;
  return model;
}

void ModelRegistry::touch_locked(const std::string& key, Resident& entry) {
  lru_.erase(entry.lru_it);
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
}

void ModelRegistry::evict_locked(const std::string& keep_key) {
  if (options_.max_resident_bytes == 0) return;
  while (resident_bytes_ > options_.max_resident_bytes && lru_.size() > 1) {
    auto victim_it = std::prev(lru_.end());
    if (*victim_it == keep_key) {
      // The just-acquired model must stay resident even while over the
      // watermark; evict the next-oldest instead.
      victim_it = std::prev(victim_it);
    }
    const auto it = resident_.find(*victim_it);
    resident_bytes_ -= it->second.model->resident_bytes;
    lru_.erase(victim_it);
    resident_.erase(it);
    ++evictions_;
  }
}

std::shared_ptr<const LoadedModel> ModelRegistry::acquire(
    const std::string& design, std::int32_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto design_it = index_.find(design);
  if (design_it == index_.end() ||
      (version != kLatest &&
       design_it->second.find(version) == design_it->second.end())) {
    // One implicit rescan: a trainer may have just published a new design
    // or version file.
    rescan_locked();
    design_it = index_.find(design);
  }
  if (design_it == index_.end() || design_it->second.empty()) {
    throw Error("m3dfl: registry has no model for design '" + design +
                "' under '" + dir_ + "'");
  }
  std::int32_t resolved = version;
  if (resolved == kLatest) {
    resolved = design_it->second.rbegin()->first;
  }
  const auto version_it = design_it->second.find(resolved);
  if (version_it == design_it->second.end()) {
    throw Error("m3dfl: registry has no version " + std::to_string(resolved) +
                " of design '" + design + "' under '" + dir_ + "'");
  }
  const std::string& path = version_it->second;
  const std::string key = design + "@" + std::to_string(resolved);

  const auto resident_it = resident_.find(key);
  if (resident_it != resident_.end()) {
    Resident& entry = resident_it->second;
    if (options_.reload_check) {
      // A changed (size, mtime) stamp means the artifact file was atomically
      // replaced; reload under a new generation.  Stat or reload failures
      // leave the old model serving.
      try {
        const FileStamp now = stat_locked(path);
        if (!(now == entry.stamp)) {
          auto reloaded = load_locked(design, resolved, path);
          resident_bytes_ -= entry.model->resident_bytes;
          resident_bytes_ += reloaded->resident_bytes;
          entry.model = std::move(reloaded);
          entry.stamp = now;
          ++reloads_;
          touch_locked(key, entry);
          evict_locked(key);
          return resident_.at(key).model;
        }
      } catch (const Error&) {
        ++reload_failures_;
      }
    }
    ++hits_;
    touch_locked(key, entry);
    return entry.model;
  }

  // Cold load.  A first-load failure propagates to the caller — there is no
  // older generation to fall back to.
  const FileStamp stamp = stat_locked(path);
  auto model = load_locked(design, resolved, path);
  ++loads_;  // cold loads only; replacement loads count in reloads_
  Resident entry;
  entry.model = std::move(model);
  entry.stamp = stamp;
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  resident_bytes_ += entry.model->resident_bytes;
  auto inserted = resident_.emplace(key, std::move(entry)).first;
  evict_locked(key);
  return inserted->second.model;
}

std::vector<std::string> ModelRegistry::designs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [design, versions] : index_) out.push_back(design);
  return out;
}

std::vector<std::int32_t> ModelRegistry::versions(
    const std::string& design) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int32_t> out;
  const auto it = index_.find(design);
  if (it == index_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [version, path] : it->second) out.push_back(version);
  return out;
}

bool ModelRegistry::has(const std::string& design, std::int32_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(design);
  if (it == index_.end() || it->second.empty()) return false;
  return version == kLatest ||
         it->second.find(version) != it->second.end();
}

std::int64_t ModelRegistry::loads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loads_;
}
std::int64_t ModelRegistry::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::int64_t ModelRegistry::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}
std::int64_t ModelRegistry::reloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reloads_;
}
std::int64_t ModelRegistry::reload_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reload_failures_;
}
std::uint64_t ModelRegistry::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_generation_;
}
std::size_t ModelRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}
std::size_t ModelRegistry::resident_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_.size();
}

}  // namespace m3dfl::registry
