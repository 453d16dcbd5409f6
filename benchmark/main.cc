// m3dfl_benchmark: runs one workload and reports its metrics.
//
//   m3dfl_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//                   [--smoke] [--workers N] [--out DIR] [--tag T]
//                   [--git-sha SHA]
//
// --workers sets the service's worker threads (default: every core but
// one, which the load generator keeps).
// Prints every metric as `workload metric value unit` (context lines start
// with '#'), and as its last stdout line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics.
// With --out it also writes DIR/<workload>[.T].json (metrics plus the run's
// stamp) and, traced, the spans to DIR/<workload>[.T].trace.json.  Exits 1
// when the run is invalid (a failed or mismatching result, or a broken
// validity rule), 2 on bad usage.
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "trace.h"
#include "util/error.h"
#include "workloads.h"

namespace {

using m3dfl::benchmark::Metric;
using m3dfl::benchmark::RunOptions;
using m3dfl::benchmark::RunResult;

#ifndef M3DFL_BENCHMARK_BUILD_TYPE
#define M3DFL_BENCHMARK_BUILD_TYPE "unknown"
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string result_json(const RunResult& r) {
  return std::string("{\"correct\": ") +
         (r.problems.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics_json(r.metrics) + "}";
}

void write_files(const RunOptions& o, const RunResult& r,
                 const std::string& out_dir, const std::string& tag,
                 const std::string& git_sha) {
  std::filesystem::create_directories(out_dir);
  const std::string stem =
      out_dir + "/" + o.workload + (tag.empty() ? "" : "." + tag);
  std::ostringstream meta;
  meta << "{\"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
       << ", \"seconds\": " << number(o.seconds)
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"smoke\": " << (o.smoke ? "true" : "false")
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"workers\": " << r.workers
       << ", \"compiler\": " << quoted(compiler())
       << ", \"build_type\": " << quoted(M3DFL_BENCHMARK_BUILD_TYPE)
       << ", \"git_sha\": " << quoted(git_sha) << "}";
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i ? ", " : "") + quoted(r.problems[i]);
  }
  std::ofstream json(stem + ".json");
  json << "{\"meta\": " << meta.str() << ",\n \"result\": " << result_json(r)
       << ",\n \"notes\": " << metrics_json(r.notes)
       << ",\n \"problems\": " << problems << "]}\n";
  bool ok = static_cast<bool>(json);
  if (o.trace) {
    std::ofstream trace(stem + ".trace.json");
    m3dfl::benchmark::write_trace_json(r.spans, trace);
    ok = ok && static_cast<bool>(trace);
  }
  if (!ok) throw m3dfl::Error("m3dfl: cannot write " + stem + ".*");
}

int usage(const std::string& why) {
  std::cerr << "m3dfl_benchmark: " << why
            << "\nusage: m3dfl_benchmark --workload W [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--workers N] "
               "[--out DIR] [--tag T] [--git-sha SHA]\nworkloads:";
  for (const std::string& w : m3dfl::benchmark::workload_names()) {
    std::cerr << " " << w;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string out_dir;
  std::string tag;
  std::string git_sha = "unknown";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        o.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--workers") {
        o.workers = std::stoi(value);
        if (o.workers < 1) return usage("--workers must be positive");
      } else if (arg == "--out") {
        out_dir = value;
      } else if (arg == "--tag") {
        tag = value;
      } else if (arg == "--git-sha") {
        git_sha = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (o.workload.empty()) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : m3dfl::benchmark::workload_names()) {
    known = known || w == o.workload;
  }
  if (!known) return usage("unknown workload " + o.workload);

  try {
    RunResult r = m3dfl::benchmark::run_workload(o);
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        r.problems.push_back(m.name + " is not finite");
      }
    }
    for (const Metric& m : r.notes) {
      std::cout << "# " << o.workload << " " << m.name << " " << number(m.value)
                << " " << m.unit << "\n";
    }
    for (const Metric& m : r.metrics) {
      std::cout << o.workload << " " << m.name << " " << number(m.value) << " "
                << m.unit << "\n";
    }
    for (const std::string& p : r.problems) {
      std::cerr << "m3dfl_benchmark: " << o.workload << ": invalid run: " << p
                << "\n";
    }
    if (!out_dir.empty()) write_files(o, r, out_dir, tag, git_sha);
    std::cout << result_json(r) << std::endl;
    return r.problems.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "m3dfl_benchmark: " << e.what() << "\n";
    return 1;
  }
}
