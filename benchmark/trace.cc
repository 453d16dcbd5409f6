#include "trace.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

#include "util/error.h"

namespace m3dfl::benchmark {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t Tracer::begin(const char* name, std::int32_t log) {
  Span span;
  span.id = static_cast<std::int32_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.log = log;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  // Read the clock last, so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = now_ns();
  return spans_.back().id;
}

void Tracer::end(std::int32_t id) {
  const std::int64_t t = now_ns();
  M3DFL_REQUIRE(!open_.empty() && open_.back() == id,
                "trace spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

void write_trace_json(const std::vector<Span>& spans, std::ostream& os) {
  os << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Span names are fixed identifiers, so they need no JSON escaping.
    os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"name\": \"" << s.name << "\", \"log\": " << s.log
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace m3dfl::benchmark
