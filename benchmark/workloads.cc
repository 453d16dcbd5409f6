#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "chain.h"
#include "diag/metrics.h"
#include "gnn/trainer.h"
#include "inputs.h"
#include "loadgen.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "stats.h"
#include "util/rng.h"

namespace m3dfl::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_until(Clock::time_point t) {
  return std::max(0.0,
                  std::chrono::duration<double>(t - Clock::now()).count());
}

Clock::time_point after(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

// Every service gets all cores but one, unless told otherwise; the load
// generator keeps that one.
std::int32_t worker_count(const RunOptions& o) {
  if (o.workers > 0) return o.workers;
  const auto hw =
      static_cast<std::int32_t>(std::thread::hardware_concurrency());
  return std::max(1, hw - 1);
}

// Share of each block of the timed window given to the closed loop; the
// open loop gets the rest.
constexpr double kClosedShare = 1.0 / 3.0;
// Generation seeds of the fixed input sets: cold_bypass's scored logs and
// retest_hot's signatures.  A set of a few dozen or hundred logs drawn per
// seed would make each seed a different workload (report quality alone
// varies by a third between seeds of retest_hot), and even 1200 drawn logs
// move cold_bypass's mean resolution by 6% between seeds.  So these sets
// are fixed, every seed scores the same reports, and the run's seed draws
// the request sequence over them.
constexpr std::uint64_t kScoredSeed = 0xC01D;
constexpr std::uint64_t kSignatureSeed = 0x4E7E57;
// Closed-loop throughput is taken over parts of this length (see
// throughput()); latency over at least this many requests, so p99 has ten
// beyond it.
constexpr double kRatePartSeconds = 0.5;
constexpr std::size_t kLatencySamples = 1000;

// Sizes of a full run; --smoke shrinks them.
struct Scale {
  std::int32_t setups = 3;  // set-ups per run; setup_s is their median
  std::int32_t blocks = 4;  // blocks of the timed window
  TransferTrainOptions train;
  std::int32_t epochs = 30;
  // cold_bypass
  double cold_rate = 60.0;           // open-loop logs/s
  std::int32_t cold_quality = 1200;  // fixed logs scored for quality
  std::int32_t cold_drawn = 1800;    // logs the seed draws besides them
  std::int32_t cold_reference = 96;
  // retest_hot
  std::int32_t hot_signatures = 64;
  double hot_rate = 2000.0;
};

Scale scale_for(bool smoke) {
  Scale s;
  s.train.samples_syn1 = 60;
  s.train.samples_per_random = 30;
  if (!smoke) return s;
  s.setups = 1;
  s.blocks = 1;
  s.train.samples_syn1 = 8;
  s.train.samples_per_random = 4;
  s.epochs = 3;
  s.cold_quality = 40;
  s.cold_drawn = 260;
  s.cold_reference = 8;
  s.hot_signatures = 8;
  s.hot_rate = 500.0;
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Set-up -----------------------------------------------------------------

struct DesignSpec {
  Profile profile;
  DesignConfig config;
};

struct Deployment {
  std::vector<std::shared_ptr<const Design>> designs;  // by service design id
  std::unique_ptr<serve::DiagnosisService> service;
};

// One entry per set-up.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> build_s;   // Design::build
  std::vector<double> hetero_s;  // the builds' hetero-graph construction
  std::vector<double> load_s;    // service start from the model stream
};

using WarmFn = std::function<void(serve::DiagnosisService&)>;

serve::ServiceOptions service_options(std::int32_t workers) {
  serve::ServiceOptions options;
  options.num_threads = workers;
  return options;
}

// What a deployment pays before its first request: design builds, model
// load, register_design (lint admission), and `warm`.
Deployment deploy(const std::vector<DesignSpec>& specs,
                  const std::string& model,
                  const serve::ServiceOptions& options, const WarmFn& warm,
                  SetupTimes& times) {
  Deployment d;
  const Clock::time_point t0 = Clock::now();
  double hetero_s = 0.0;
  for (const DesignSpec& spec : specs) {
    d.designs.push_back(Design::build(spec.profile, spec.config));
    hetero_s += d.designs.back()->feature_construction_seconds();
  }
  const double build_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  std::istringstream stream(model);
  d.service = std::make_unique<serve::DiagnosisService>(stream, options);
  const double load_s = seconds_since(t1);
  for (const auto& design : d.designs) d.service->register_design(design);
  if (warm) warm(*d.service);
  times.total_s.push_back(seconds_since(t0));
  times.build_s.push_back(build_s);
  times.hetero_s.push_back(hetero_s);
  times.load_s.push_back(load_s);
  return d;
}

// Sets up `n` times and keeps the last deployment; each is torn down before
// the next starts.
Deployment deploy_repeated(std::int32_t n, const std::vector<DesignSpec>& specs,
                           const std::string& model,
                           const serve::ServiceOptions& options,
                           const WarmFn& warm, SetupTimes& times) {
  Deployment d;
  for (std::int32_t i = 0; i < n; ++i) {
    d.service.reset();
    d.designs.clear();
    d = deploy(specs, model, options, warm, times);
  }
  return d;
}

// ---- Serving ----------------------------------------------------------------

// A serving workload's inputs, parallel by input index.
struct Inputs {
  std::vector<Sample> samples;
  std::vector<std::int32_t> design_of;  // service design id
  std::vector<const FailureLog*> logs;  // filled by seal()

  void add(std::int32_t design, Sample sample) {
    samples.push_back(std::move(sample));
    design_of.push_back(design);
  }
  void seal() {
    logs.clear();
    for (const Sample& s : samples) logs.push_back(&s.log);
  }
  std::int32_t size() const {
    return static_cast<std::int32_t>(samples.size());
  }
};

struct Serving {
  Deployment deployment;
  Inputs inputs;
  std::vector<std::int32_t> quality;    // inputs scored for report quality
  std::vector<std::int32_t> reference;  // inputs checked against the chain
  bool cached = false;                  // requests are cache hits
  double expected_hit_rate = 0.0;
};

// The design input `i` was drawn on, as the service under test holds it.
const Design& design_of(const Serving& s, std::int32_t i) {
  const std::int32_t id = s.inputs.design_of[static_cast<std::size_t>(i)];
  return *s.deployment.designs[static_cast<std::size_t>(id)];
}

std::vector<std::int32_t> first_n(std::int32_t n) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// `k` entries of `from`, evenly strided.
std::vector<std::int32_t> stride_sample(const std::vector<std::int32_t>& from,
                                        std::int32_t k) {
  if (static_cast<std::size_t>(k) >= from.size()) return from;
  std::vector<std::int32_t> out;
  for (std::int32_t i = 0; i < k; ++i) {
    out.push_back(from[static_cast<std::size_t>(i) * from.size() /
                       static_cast<std::size_t>(k)]);
  }
  return out;
}

// Checks and keeps what the service returns (runs on the generator thread).
class Sink {
 public:
  Sink(const Serving& s, std::vector<std::string> reference,
       std::vector<char> keep)
      : s_(s),
        reference_(std::move(reference)),
        keep_(std::move(keep)),
        kept_(s.inputs.samples.size()) {}

  void accept(std::int32_t input, serve::DiagnosisResult&& result) {
    const auto i = static_cast<std::size_t>(input);
    ++attempted_;
    if (!result.ok()) {
      fail("input " + std::to_string(input) + ": status " +
           std::string(serve::status_name(result.status)) + " (" +
           result.status_message + ")");
      return;
    }
    if (!reference_[i].empty()) {
      const Netlist& netlist = design_of(s_, input).netlist();
      if (serve::result_to_string(netlist, result) != reference_[i]) {
        fail("input " + std::to_string(input) +
             ": served result differs from the reference chain");
        return;
      }
    }
    if (keep_[i] && kept_[i] == nullptr) {
      kept_[i] = std::make_unique<serve::DiagnosisResult>(std::move(result));
    }
  }

  const serve::DiagnosisResult* kept(std::int32_t input) const {
    return kept_[static_cast<std::size_t>(input)].get();
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  void fail(std::string why) {
    ++failed_;
    if (problems_.size() < 5) problems_.push_back(std::move(why));
  }

  const Serving& s_;
  std::vector<std::string> reference_;  // by input; empty = unchecked
  std::vector<char> keep_;
  std::vector<std::unique_ptr<serve::DiagnosisResult>> kept_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> problems_;
};

struct Quality {
  double resolution = 0.0;
  double fhi = 0.0;
  double accuracy = 0.0;
  double tier_accuracy = 0.0;  // GNN tier == injected tier, gate-fault dies
};

Quality score(const Serving& s, const Sink& sink) {
  QualityStats stats;
  std::int32_t tier_hits = 0;
  std::int32_t tier_total = 0;
  for (const std::int32_t i : s.quality) {
    const serve::DiagnosisResult* r = sink.kept(i);
    if (r == nullptr) continue;  // failed, and counted as such
    const Sample& sample = s.inputs.samples[static_cast<std::size_t>(i)];
    stats.add(evaluate_report(design_of(s, i).context(), r->report, sample));
    if (sample.fault_tier != kMivTier) {
      ++tier_total;
      if (r->prediction.tier == sample.fault_tier) ++tier_hits;
    }
  }
  Quality q;
  q.resolution = stats.resolution.mean();
  q.fhi = stats.fhi.mean();
  q.accuracy = stats.accuracy();
  q.tier_accuracy = tier_total == 0 ? 0.0
                                    : static_cast<double>(tier_hits) /
                                          static_cast<double>(tier_total);
  return q;
}

std::vector<ChainInput> chain_inputs(const Serving& s,
                                     const std::vector<std::int32_t>& subset) {
  std::vector<ChainInput> out;
  for (const std::int32_t i : subset) {
    const auto k = static_cast<std::size_t>(i);
    ChainInput in;
    in.design = &design_of(s, i);
    in.design_id = s.inputs.design_of[k];
    in.log = s.inputs.logs[k];
    in.index = i;
    out.push_back(in);
  }
  return out;
}

// The traced replay: the reference subset through the chain serially, once
// untraced and once traced, so the two walls give the tracing overhead.
struct Replay {
  std::vector<std::string> renders;  // untraced pass, in subset order
  std::vector<Span> spans;
  ChainCounts counts;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::int32_t mismatches = 0;  // traced renderings that differ
};

Replay replay(const DiagnosisFramework& framework,
              const std::vector<ChainInput>& inputs, bool cached) {
  Replay r;
  Clock::time_point t0 = Clock::now();
  r.renders = render_chains(framework, inputs, cached);
  r.untraced_s = seconds_since(t0);
  Tracer tracer;
  t0 = Clock::now();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (run_chain(framework, inputs[i], cached, &tracer, &r.counts) !=
        r.renders[i]) {
      ++r.mismatches;
    }
  }
  r.traced_s = seconds_since(t0);
  r.spans = tracer.spans();
  return r;
}

// Mean TierPredictor::train_step over one pass of `data` on a fresh model.
double train_step_ms(const LabeledDataset& data) {
  const TrainSet set = select_tier_samples(data.graphs);
  if (set.size() == 0) return 0.0;
  TierPredictor model;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < set.size(); ++i) {
    model.train_step(*set.data[i], set.adj[i], set.data[i]->tier_label);
  }
  return 1e3 * seconds_since(t0) / static_cast<double>(set.size());
}

double good_sim_ms(const Design& design) {
  const Clock::time_point t0 = Clock::now();
  LocSimulator sim(design.netlist());
  sim.run(design.patterns());
  return 1e3 * seconds_since(t0);
}

// ---- The timed window -------------------------------------------------------

// The timed window, block by block.
struct Window {
  std::vector<PhaseResult> closed;
  std::vector<PhaseResult> open;
  double rate = 0.0;  // of the open loops, requests/s
};

// The timed window: `blocks` equal blocks, each a closed loop of `depth`
// requests for a third of the block, then an open loop at `rate` for the
// rest.  Interleaving spreads both loops over the whole window, so each sees
// the quiet stretches of a shared host as well as the busy ones.
Window run_window(const RunOptions& o, const Scale& sc, LoadGenerator& gen,
                  const LoadGenerator::NextFn& next, std::int32_t depth,
                  double rate) {
  Window w;
  w.rate = rate;
  const Clock::time_point start = Clock::now();
  for (std::int32_t b = 1; b <= sc.blocks; ++b) {
    const Clock::time_point end = after(start, o.seconds * b / sc.blocks);
    w.closed.push_back(gen.closed_loop(
        next, depth, after(Clock::now(), kClosedShare * seconds_until(end))));
    w.open.push_back(gen.open_loop(next, rate, seconds_until(end)));
  }
  return w;
}

using WindowFn = std::function<Window(LoadGenerator&)>;

// A shared host's neighbours only ever slow the service down, and they do
// so for stretches of seconds to minutes.  So both loops are cut into short
// parts and the metrics come from the quietest parts: there the service is
// measured, elsewhere its neighbours are.

// Closed-loop logs/s: the 90th-percentile rate over every block's parts of
// about kRatePartSeconds.
double throughput(const std::vector<PhaseResult>& closed) {
  std::vector<double> rates;
  for (const PhaseResult& p : closed) {
    const std::vector<double> r = part_rates(p, kRatePartSeconds);
    rates.insert(rates.end(), r.begin(), r.end());
  }
  return percentile(rates, 90);
}

void add(std::vector<Metric>& m, std::string name, double value,
         std::string unit) {
  m.push_back(Metric{std::move(name), value, std::move(unit)});
}

void add_replay_metrics(const Replay& r, std::size_t logs,
                        std::vector<Metric>& m) {
  const std::vector<std::int64_t> self = self_times_ns(r.spans);
  std::map<std::string, std::vector<double>> ms;  // span durations by name
  double request_ns = 0.0;
  double request_self_ns = 0.0;
  double atpg_self_ns = 0.0;  // inside request spans only
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    ms[s.name].push_back(dur / 1e6);
    if (s.name == "request") {
      request_ns += dur;
      request_self_ns += static_cast<double>(self[i]);
    }
    if (s.name == "diagnose_atpg" && s.parent >= 0 &&
        r.spans[static_cast<std::size_t>(s.parent)].name == "request") {
      atpg_self_ns += static_cast<double>(self[i]);
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(logs, 1));
  add(m, "serve.cache_key_us", 1e3 * mean(ms["make_key"]), "us");
  add(m, "graph.backtrace_ms", mean(ms["backtrace_with_support"]), "ms");
  add(m, "graph.subgraph_ms", mean(ms["extract_subgraph"]), "ms");
  add(m, "graph.candidates_mean", static_cast<double>(r.counts.candidates) / n,
      "count");
  add(m, "graph.quarantined_total", static_cast<double>(r.counts.quarantined),
      "count");
  add(m, "diag.atpg_p50_ms", percentile(ms["diagnose_atpg"], 50), "ms");
  add(m, "diag.atpg_mean_ms", mean(ms["diagnose_atpg"]), "ms");
  add(m, "diag.atpg_share", request_ns > 0 ? atpg_self_ns / request_ns : 0.0,
      "ratio");
  add(m, "gnn.adjacency_ms", mean(ms["subgraph_adjacency"]), "ms");
  add(m, "gnn.predict_ms", mean(ms["predict"]), "ms");
  add(m, "gnn.subgraph_nodes_mean",
      static_cast<double>(r.counts.subgraph_nodes) / n, "count");
  add(m, "core.refine_ms", mean(ms["refine_report"]), "ms");
  add(m, "core.confidence_us", 1e3 * mean(ms["diagnosis_confidence"]), "us");
  add(m, "trace.coverage",
      request_ns > 0 ? (request_ns - request_self_ns) / request_ns : 0.0,
      "ratio");
  add(m, "trace.overhead_frac",
      r.untraced_s > 0 ? r.traced_s / r.untraced_s - 1.0 : 0.0, "ratio");
}

// Runs the timed window of a serving workload and assembles its result:
// reference chain, window, untimed serving of scored logs the window did not
// reach, quality, validity, and metrics.  `model` is what the service
// loaded, with what the offline path cost to make it.
RunResult measure(const RunOptions& o, Serving& s, const WindowFn& run,
                  const SetupTimes& setup, const Model& model) {
  RunResult out;
  out.workers = worker_count(o);
  serve::DiagnosisService& service = *s.deployment.service;
  const DiagnosisFramework& framework = service.framework();

  const std::vector<ChainInput> chain = chain_inputs(s, s.reference);
  Replay traced;
  std::vector<std::string> renders;
  if (o.trace) {
    traced = replay(framework, chain, s.cached);
    renders = traced.renders;
    if (traced.mismatches > 0) {
      out.problems.push_back("tracing changed " +
                             std::to_string(traced.mismatches) +
                             " reference renderings");
    }
  } else {
    renders = render_chains(framework, chain, s.cached);
  }
  std::vector<std::string> reference(s.inputs.samples.size());
  for (std::size_t k = 0; k < s.reference.size(); ++k) {
    reference[static_cast<std::size_t>(s.reference[k])] = std::move(renders[k]);
  }
  std::vector<char> keep(s.inputs.samples.size(), 0);
  for (const std::int32_t i : s.quality) keep[static_cast<std::size_t>(i)] = 1;

  Sink sink(s, std::move(reference), std::move(keep));
  LoadGenerator gen(service, s.inputs.design_of, s.inputs.logs,
                    [&](std::int32_t i, serve::DiagnosisResult&& r) {
                      sink.accept(i, std::move(r));
                    });
  const Window w = run(gen);

  std::vector<std::int32_t> missing;
  for (const std::int32_t i : s.quality) {
    if (sink.kept(i) == nullptr) missing.push_back(i);
  }
  std::size_t next_missing = 0;
  gen.closed_loop(
      [&] {
        return next_missing < missing.size() ? missing[next_missing++] : -1;
      },
      2 * out.workers, Clock::time_point::max());
  const Quality q = score(s, sink);

  out.attempted = sink.attempted();
  out.failed = sink.failed();
  for (const std::string& p : sink.problems()) out.problems.push_back(p);

  std::int64_t completions = 0;
  std::int64_t hits = 0;
  std::int64_t batches = 0;
  std::int64_t batched = 0;
  std::vector<double> admission_s;
  for (const auto* phases : {&w.closed, &w.open}) {
    for (const PhaseResult& p : *phases) {
      batches += p.batches;
      batched += p.batched_requests;
      for (const Completion& c : p.completions) {
        ++completions;
        hits += c.cache_hit ? 1 : 0;
        admission_s.push_back(c.admission_s);
      }
    }
  }
  const double hit_rate =
      completions == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(completions);
  std::vector<double> lag_s;
  for (const PhaseResult& p : w.open) {
    for (const Completion& c : p.completions) lag_s.push_back(c.lag_s);
  }
  std::vector<double> latency_s, queue_s;
  // Latency comes from the quietest seconds of the open loops.
  const auto per_second = static_cast<std::size_t>(std::lround(w.rate));
  for (const Completion& c :
       quiet_requests(w.open, per_second, kLatencySamples)) {
    latency_s.push_back(c.latency_s);
    queue_s.push_back(c.queue_s);
  }
  std::size_t closed_logs = 0;
  double closed_s = 0.0;
  double busy_s = 0.0;
  for (const PhaseResult& p : w.closed) {
    closed_logs += p.completions.size();
    closed_s += p.wall_s;
    for (const Completion& c : p.completions) busy_s += c.busy_s;
  }
  const double lag_p99_ms = 1e3 * percentile(lag_s, 99);
  if (hit_rate != s.expected_hit_rate) {
    out.problems.push_back("cache hit rate " + std::to_string(hit_rate) +
                           ", expected " +
                           std::to_string(s.expected_hit_rate));
  }
  const auto samples = static_cast<double>(model.training_set.size());

  const auto note = [&](const char* name, std::size_t n) {
    add(out.notes, name, static_cast<double>(n), "count");
  };
  note("closed_loop_logs", closed_logs);
  note("latency_samples", latency_s.size());
  note("open_loop_logs", lag_s.size());
  note("quality_logs", s.quality.size());
  note("reference_logs", s.reference.size());
  note("untimed_logs", missing.size());
  // At 1 ms or more the open loop measured the generator, not the service;
  // a host stall can cause that, so it is reported rather than failed.
  add(out.notes, "lag_p99_ms", lag_p99_ms, "ms");

  if (!o.trace) {
    add(out.metrics, "setup_s", percentile(setup.total_s, 50), "s");
    add(out.metrics, "throughput_logs_per_s", throughput(w.closed), "logs/s");
    add(out.metrics, "latency_p50_ms", 1e3 * percentile(latency_s, 50), "ms");
    add(out.metrics, "latency_p99_ms", 1e3 * percentile(latency_s, 99), "ms");
    add(out.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    add(out.metrics, "resolution_mean", q.resolution, "candidates");
    add(out.metrics, "fhi_mean", q.fhi, "rank");
    add(out.metrics, "accuracy", q.accuracy, "ratio");
    add(out.metrics, "tier_accuracy", q.tier_accuracy, "ratio");
    return out;
  }

  auto& m = out.metrics;
  add(m, "serve.queue_wait_p50_ms", 1e3 * percentile(queue_s, 50), "ms");
  add(m, "serve.queue_wait_p99_ms", 1e3 * percentile(queue_s, 99), "ms");
  add(m, "serve.worker_busy_frac",
      closed_s > 0 ? busy_s / (closed_s * out.workers) : 0.0, "ratio");
  add(m, "serve.cache_hit_rate", hit_rate, "ratio");
  add(m, "serve.mean_batch",
      batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                  : 0.0,
      "count");
  add(m, "serve.admission_us", 1e6 * mean(admission_s), "us");
  add_replay_metrics(traced, chain.size(), m);
  add(m, "graph.hetero_graph_ms", 1e3 * percentile(setup.hetero_s, 50), "ms");
  add(m, "diag.datagen_ms_per_sample",
      samples > 0 ? 1e3 * model.datagen_s / samples : 0.0, "ms");
  add(m, "gnn.train_step_ms", train_step_ms(model.training_set), "ms");
  add(m, "core.design_build_s", percentile(setup.build_s, 50), "s");
  add(m, "core.train_s", model.train_s, "s");
  add(m, "core.model_load_ms", 1e3 * percentile(setup.load_s, 50), "ms");
  add(m, "sim.good_sim_ms", good_sim_ms(*s.deployment.designs.front()), "ms");
  add(m, "loadgen.lag_p99_ms", lag_p99_ms, "ms");
  out.spans = std::move(traced.spans);
  return out;
}

// ---- Workloads --------------------------------------------------------------

RunResult cold_bypass(const RunOptions& o, const Scale& sc) {
  const std::int32_t workers = worker_count(o);
  const std::unique_ptr<Design> syn1 =
      Design::build(Profile::kAes, DesignConfig::kSyn1);
  const std::unique_ptr<Design> syn2 =
      Design::build(Profile::kAes, DesignConfig::kSyn2);
  const Model model = train_model(Profile::kAes, *syn1, sc.train, sc.epochs);

  // Per design: the fixed scored logs, then logs the seed draws, distinct
  // from them.
  const std::int32_t scored_per_design = sc.cold_quality / 2;
  const std::int32_t drawn_per_design = sc.cold_drawn / 2;
  DataGenOptions gen;
  gen.miv_fault_prob = 0.2;
  std::vector<Sample> scored_a =
      draw_logs(syn1->context(), gen, scored_per_design, kScoredSeed);
  std::vector<Sample> scored_b =
      draw_logs(syn2->context(), gen, scored_per_design, kScoredSeed + 1);
  std::vector<Sample> drawn_a = draw_logs(
      syn1->context(), gen, drawn_per_design, mix_seed(o.seed, 1), scored_a);
  std::vector<Sample> drawn_b = draw_logs(
      syn2->context(), gen, drawn_per_design, mix_seed(o.seed, 2), scored_b);
  Serving s;
  const auto interleave = [&](std::vector<Sample>& a, std::vector<Sample>& b) {
    for (std::size_t k = 0; k < a.size(); ++k) {
      s.inputs.add(0, std::move(a[k]));
      s.inputs.add(1, std::move(b[k]));
    }
  };
  interleave(scored_a, scored_b);
  interleave(drawn_a, drawn_b);
  s.inputs.seal();

  const serve::ServiceOptions options = service_options(workers);
  // A log comes back only after every other log has been submitted, so the
  // LRU cache has long evicted it and every request is a miss.
  M3DFL_REQUIRE(static_cast<std::size_t>(s.inputs.size()) >
                    2 * options.cache_capacity,
                "cold_bypass needs more distinct logs than twice the cache");
  SetupTimes setup;
  s.deployment = deploy_repeated(sc.setups,
                                 {{Profile::kAes, DesignConfig::kSyn1},
                                  {Profile::kAes, DesignConfig::kSyn2}},
                                 model.stream, options, {}, setup);
  const std::int32_t scored = 2 * scored_per_design;
  s.quality = first_n(scored);
  s.reference = stride_sample(s.quality, sc.cold_reference);

  // Logs are submitted in this order, round and round: the scored logs
  // from a seeded starting point in their stratified order, then the drawn
  // logs.
  Rng start(mix_seed(o.seed, 3));
  const auto offset = static_cast<std::int32_t>(
      start.next_below(static_cast<std::uint64_t>(scored)));
  std::vector<std::int32_t> order = first_n(s.inputs.size());
  std::rotate(order.begin(), order.begin() + offset, order.begin() + scored);
  std::size_t cursor = 0;
  const auto next = [&] { return order[cursor++ % order.size()]; };
  const auto window = [&](LoadGenerator& g) {
    return run_window(o, sc, g, next, 2 * workers, sc.cold_rate);
  };
  return measure(o, s, window, setup, model);
}

RunResult retest_hot(const RunOptions& o, const Scale& sc) {
  const std::int32_t workers = worker_count(o);
  const std::unique_ptr<Design> syn1 =
      Design::build(Profile::kAes, DesignConfig::kSyn1);
  const Model model = train_model(Profile::kAes, *syn1, sc.train, sc.epochs);
  DataGenOptions gen;
  gen.compacted = true;
  gen.miv_fault_prob = 0.2;
  Serving s;
  for (Sample& sample : draw_logs(syn1->context(), gen, sc.hot_signatures,
                                  kSignatureSeed)) {
    s.inputs.add(0, std::move(sample));
  }
  s.inputs.seal();

  // The warm-up diagnoses every signature once, so the timed window runs
  // entirely from the cache.
  const WarmFn warm = [&](serve::DiagnosisService& service) {
    std::vector<std::future<serve::DiagnosisResult>> pending;
    for (const FailureLog* log : s.inputs.logs) {
      pending.push_back(service.submit(0, *log));
    }
    for (auto& f : pending) {
      M3DFL_REQUIRE(f.get().ok(), "a cache warm-up request failed");
    }
  };
  SetupTimes setup;
  s.deployment = deploy_repeated(
      sc.setups, {{Profile::kAes, DesignConfig::kSyn1}}, model.stream,
      service_options(workers), warm, setup);
  s.quality = first_n(s.inputs.size());
  s.reference = s.quality;
  s.cached = true;
  s.expected_hit_rate = 1.0;

  Rng redraw(mix_seed(o.seed, 3));
  const auto next = [&] {
    return static_cast<std::int32_t>(
        redraw.next_below(static_cast<std::uint64_t>(s.inputs.size())));
  };
  const auto window = [&](LoadGenerator& g) {
    return run_window(o, sc, g, next, 2 * workers, sc.hot_rate);
  };
  return measure(o, s, window, setup, model);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold_bypass", "retest_hot"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  const Scale scale = scale_for(options.smoke);
  if (options.workload == "cold_bypass") return cold_bypass(options, scale);
  if (options.workload == "retest_hot") return retest_hot(options, scale);
  throw Error("m3dfl: unknown workload '" + options.workload + "'");
}

}  // namespace m3dfl::benchmark
