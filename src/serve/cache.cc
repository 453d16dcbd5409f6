#include "serve/cache.h"

#include "diag/log_io.h"

namespace m3dfl::serve {

DiagnosisCache::DiagnosisCache(std::size_t capacity, Metrics* metrics)
    : capacity_(capacity), metrics_(metrics) {}

std::string DiagnosisCache::make_key(std::int32_t design_id,
                                     const FailureLog& log) {
  return "design " + std::to_string(design_id) + "\n" +
         failure_log_to_string(log);
}

std::shared_ptr<const DiagnosisPrefix> DiagnosisCache::lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    if (metrics_ != nullptr) {
      metrics_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
    return nullptr;
  }
  ++hits_;
  if (metrics_ != nullptr) {
    metrics_->cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

std::shared_ptr<const DiagnosisPrefix> DiagnosisCache::peek(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void DiagnosisCache::insert(const std::string& key,
                            std::shared_ptr<const DiagnosisPrefix> value) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent workers can race to fill the same key; keep the first
    // entry (the values are identical by construction) but refresh LRU.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
    if (metrics_ != nullptr) {
      metrics_->cache_evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::size_t DiagnosisCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::int64_t DiagnosisCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t DiagnosisCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::int64_t DiagnosisCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace m3dfl::serve
