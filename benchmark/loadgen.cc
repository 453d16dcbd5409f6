#include "loadgen.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <thread>
#include <utility>

#include "stats.h"

namespace m3dfl::benchmark {
namespace {

using Clock = LoadGenerator::Clock;
using Seconds = std::chrono::duration<double>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return Seconds(b - a).count();
}

bool ready(const std::future<serve::DiagnosisResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

Completion completion_of(const serve::DiagnosisResult& r) {
  Completion c;
  c.queue_s = r.queue_seconds;
  c.busy_s = r.total_seconds - r.queue_seconds;
  c.cache_hit = r.cache_hit;
  return c;
}

// The open-loop generator sleeps until this long before a due time, then
// spins, so oversleeping never makes it late.
constexpr Seconds kSpinMargin{300e-6};
// Finished requests are collected only while this much time remains before
// the next due time.
constexpr Seconds kCollectSlack{100e-6};

}  // namespace

std::vector<double> part_rates(const PhaseResult& closed, double part_s) {
  if (closed.wall_s <= 0.0) return {};
  const auto parts = std::max<std::size_t>(
      1, static_cast<std::size_t>(closed.wall_s / part_s));
  const double len = closed.wall_s / static_cast<double>(parts);
  std::vector<double> rates(parts, 0.0);
  for (const Completion& c : closed.completions) {
    const auto k = static_cast<std::size_t>(c.done_s / len);
    rates[std::min(parts - 1, k)] += 1.0 / len;
  }
  return rates;
}

std::vector<Completion> quiet_requests(const std::vector<PhaseResult>& open,
                                       std::size_t per_part,
                                       std::size_t min_requests) {
  per_part = std::max<std::size_t>(per_part, 1);
  std::vector<std::vector<Completion>> parts;
  std::vector<double> medians;
  std::size_t total = 0;
  for (const PhaseResult& p : open) {
    for (std::size_t i = 0; i < p.completions.size(); i += per_part) {
      const std::size_t end = std::min(p.completions.size(), i + per_part);
      parts.emplace_back(p.completions.begin() + i, p.completions.begin() + end);
      std::vector<double> latency;
      for (const Completion& c : parts.back()) latency.push_back(c.latency_s);
      medians.push_back(percentile(latency, 50));
      total += end - i;
    }
  }
  std::vector<std::size_t> order(parts.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return medians[a] < medians[b];
                   });
  const std::size_t want = std::max(total / 4, min_requests);
  std::vector<Completion> pool;
  for (const std::size_t k : order) {
    if (pool.size() >= want) break;
    pool.insert(pool.end(), parts[k].begin(), parts[k].end());
  }
  return pool;
}

LoadGenerator::LoadGenerator(serve::DiagnosisService& service,
                             const std::vector<std::int32_t>& design_of,
                             const std::vector<const FailureLog*>& logs,
                             ResultFn on_result)
    : service_(service),
      design_of_(design_of),
      logs_(logs),
      on_result_(std::move(on_result)) {}

std::future<serve::DiagnosisResult> LoadGenerator::submit(
    std::int32_t input, double& admission_s) {
  const auto i = static_cast<std::size_t>(input);
  const Clock::time_point t0 = Clock::now();
  std::future<serve::DiagnosisResult> f =
      service_.submit(design_of_[i], *logs_[i]);
  admission_s = seconds_between(t0, Clock::now());
  return f;
}

void LoadGenerator::count_batches(PhaseResult& phase, std::int64_t batches0,
                                  std::int64_t batched0) const {
  const serve::Metrics& m = service_.metrics();
  phase.batches = m.batches.load() - batches0;
  phase.batched_requests = m.batched_requests.load() - batched0;
}

PhaseResult LoadGenerator::closed_loop(const NextFn& next, std::int32_t depth,
                                       Clock::time_point until) {
  struct Slot {
    std::future<serve::DiagnosisResult> future;
    std::int32_t input = -1;  // -1: empty
    Clock::time_point submitted;
    double admission_s = 0.0;
  };
  const std::int64_t batches0 = service_.metrics().batches.load();
  const std::int64_t batched0 = service_.metrics().batched_requests.load();
  PhaseResult phase;
  std::vector<Slot> slots(static_cast<std::size_t>(depth));
  const auto fill = [&](Slot& slot, std::int32_t input) {
    slot.input = input;
    if (input < 0) return;
    slot.submitted = Clock::now();
    slot.future = submit(input, slot.admission_s);
  };

  const Clock::time_point start = Clock::now();
  for (Slot& slot : slots) fill(slot, next());
  Clock::time_point last_done = start;
  bool busy = true;
  while (busy) {
    busy = false;
    bool progressed = false;
    for (Slot& slot : slots) {
      if (slot.input < 0) continue;
      busy = true;
      if (!ready(slot.future)) continue;
      progressed = true;
      const Clock::time_point seen = Clock::now();
      last_done = std::max(last_done, seen);
      serve::DiagnosisResult result = slot.future.get();
      const std::int32_t input = slot.input;
      const Clock::time_point submitted = slot.submitted;
      const double admission_s = slot.admission_s;
      const bool in_window = seen <= until;
      // Refill before recording, so bookkeeping never idles a worker.
      fill(slot, in_window ? next() : -1);
      if (in_window && result.ok()) {
        Completion c = completion_of(result);
        c.latency_s = result.total_seconds;
        c.admission_s = admission_s;
        c.done_s = seconds_between(start, seen);
        if (slot.input >= 0) {
          // The finished request completed total_seconds after its
          // submission; the refill went out at slot.submitted.
          c.lag_s = std::max(0.0, seconds_between(submitted, slot.submitted) -
                                      result.total_seconds);
        }
        phase.completions.push_back(c);
      }
      on_result_(input, std::move(result));
    }
    if (!progressed) std::this_thread::yield();
  }
  phase.wall_s =
      std::max(0.0, seconds_between(start, std::min(until, last_done)));
  count_batches(phase, batches0, batched0);
  return phase;
}

PhaseResult LoadGenerator::open_loop(const NextFn& next, double rate,
                                     double seconds) {
  struct Pending {
    std::future<serve::DiagnosisResult> future;
    std::int32_t input = 0;
    double lag_s = 0.0;
    double admission_s = 0.0;
  };
  const std::int64_t batches0 = service_.metrics().batches.load();
  const std::int64_t batched0 = service_.metrics().batched_requests.load();
  PhaseResult phase;
  std::deque<Pending> pending;
  const auto collect = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    serve::DiagnosisResult result = p.future.get();
    if (result.ok()) {
      Completion c = completion_of(result);
      c.latency_s = p.lag_s + result.total_seconds;
      c.lag_s = p.lag_s;
      c.admission_s = p.admission_s;
      phase.completions.push_back(c);
    }
    on_result_(p.input, std::move(result));
  };

  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(Seconds(seconds));
  for (std::int64_t i = 0;; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    Seconds(static_cast<double>(i) / rate));
    if (due >= end) break;
    const std::int32_t input = next();
    if (input < 0) break;
    while (!pending.empty() && Clock::now() + kCollectSlack < due &&
           ready(pending.front().future)) {
      collect();
    }
    const auto spin_from =
        due - std::chrono::duration_cast<Clock::duration>(kSpinMargin);
    if (Clock::now() < spin_from) std::this_thread::sleep_until(spin_from);
    Clock::time_point now = Clock::now();
    while (now < due) now = Clock::now();
    Pending p;
    p.input = input;
    p.lag_s = seconds_between(due, now);
    p.future = submit(input, p.admission_s);
    pending.push_back(std::move(p));
  }
  while (!pending.empty()) collect();
  phase.wall_s = seconds;
  count_batches(phase, batches0, batched0);
  return phase;
}

}  // namespace m3dfl::benchmark
