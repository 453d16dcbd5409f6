// In-memory span recorder for the benchmark's traced replay.
//
// The benchmark records spans from its own code, around each public layer
// call it makes; nothing inside the library is instrumented.  Spans are kept
// in memory and written out once, when the run ends, so recording costs two
// clock reads and a vector append per call.
#ifndef M3DFL_BENCHMARK_TRACE_H_
#define M3DFL_BENCHMARK_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace m3dfl::benchmark {

struct Span {
  std::int32_t id = 0;
  std::int32_t parent = -1;  // -1 for a root span
  std::string name;
  std::int32_t log = -1;     // workload input the span worked on
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Single-threaded: a span opened while another is open becomes its child.
class Tracer {
 public:
  std::int32_t begin(const char* name, std::int32_t log);
  // Closes the innermost open span, which must be `id`.
  void end(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Opens a span for its lifetime; does nothing when the tracer is null, which
// is how the untraced reference pass runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int32_t log)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, log) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// Self time of every span (indexed like `spans`): its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may overlap each other or stick out of the parent; only the
// covered part inside the parent counts.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// Writes `spans` as a JSON array of {id, parent, name, log, start_ns,
// end_ns} objects.
void write_trace_json(const std::vector<Span>& spans, std::ostream& os);

}  // namespace m3dfl::benchmark

#endif  // M3DFL_BENCHMARK_TRACE_H_
