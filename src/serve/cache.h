// LRU cache for the deterministic per-log prefix of diagnosis
// (DiagnosisPrefix, core/pipeline.h).
//
// Two failure logs with identical content (same design, same failing
// pattern set, same failing bits) back-trace to the same candidate set,
// extract the same subgraph/features, normalize to the same adjacency, and
// produce the same ATPG base report — the entire pre-GNN pipeline is a pure
// function of (design, log).  Retest traffic and systematic defects repeat
// failure signatures constantly in production, so the service memoizes that
// prefix behind an exact key (no hash-collision risk: the key is the
// canonical text serialization of the log).
//
// Entries are immutable and shared: a hit hands out a shared_ptr that stays
// valid after eviction, so readers never block writers beyond the map
// operation itself.
#ifndef M3DFL_SERVE_CACHE_H_
#define M3DFL_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/pipeline.h"
#include "diag/failure_log.h"
#include "serve/metrics.h"

namespace m3dfl::serve {

class DiagnosisCache {
 public:
  // capacity 0 disables caching (every lookup misses, inserts are dropped).
  // When `metrics` is non-null, hit/miss/eviction counters mirror into it.
  explicit DiagnosisCache(std::size_t capacity, Metrics* metrics = nullptr);

  // Exact cache key for one (design, failure log) pair.
  static std::string make_key(std::int32_t design_id, const FailureLog& log);

  // Returns the entry (marking it most recently used) or nullptr.
  std::shared_ptr<const DiagnosisPrefix> lookup(const std::string& key);
  // lookup() without hit/miss accounting: the single-flight re-check in the
  // service must not double-count a request it already counted.
  std::shared_ptr<const DiagnosisPrefix> peek(const std::string& key);
  // Inserts (or refreshes) an entry, evicting the least recently used ones
  // beyond capacity.
  void insert(const std::string& key,
              std::shared_ptr<const DiagnosisPrefix> value);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t evictions() const;

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const DiagnosisPrefix>>>;

  const std::size_t capacity_;
  Metrics* const metrics_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace m3dfl::serve

#endif  // M3DFL_SERVE_CACHE_H_
