#include "chain.h"

#include "graph/backtrace.h"
#include "graph/subgraph.h"
#include "serve/cache.h"
#include "serve/service.h"

namespace m3dfl::benchmark {
namespace {

// The cacheable prefix of one diagnosis (serve::CachedDiagnosis).
struct Prefix {
  BacktraceResult backtrace;
  Subgraph subgraph;
  NormalizedAdjacency adjacency;
  DiagnosisReport base_report;
};

Prefix compute_prefix(const ChainInput& input, const DesignContext& ctx,
                      Tracer* tracer) {
  const Design& design = *input.design;
  Prefix p;
  {
    ScopedSpan span(tracer, "backtrace_with_support", input.index);
    p.backtrace = backtrace_with_support(design.graph(), ctx, *input.log);
  }
  {
    ScopedSpan span(tracer, "extract_subgraph", input.index);
    p.subgraph = extract_subgraph(design.graph(), p.backtrace.candidates);
  }
  {
    ScopedSpan span(tracer, "subgraph_adjacency", input.index);
    p.adjacency = subgraph_adjacency(p.subgraph);
  }
  {
    ScopedSpan span(tracer, "diagnose_atpg", input.index);
    p.base_report = diagnose_atpg(ctx, *input.log);
  }
  return p;
}

}  // namespace

std::string run_chain(const DiagnosisFramework& framework,
                      const ChainInput& input, bool cached, Tracer* tracer,
                      ChainCounts* counts) {
  const Design& design = *input.design;
  const DesignContext ctx = design.context();
  Prefix prefix;
  if (cached) {
    ScopedSpan fill(tracer, "cache_fill", input.index);
    prefix = compute_prefix(input, ctx, tracer);
  }

  serve::DiagnosisResult result;
  result.design = design.name();
  {
    ScopedSpan request(tracer, "request", input.index);
    {
      ScopedSpan span(tracer, "validate_failure_log", input.index);
      const std::string invalid =
          serve::validate_failure_log(design, *input.log);
      M3DFL_REQUIRE(invalid.empty(), "benchmark input rejected: " + invalid);
    }
    {
      // Every request pays for its cache key, hit or miss; the chain itself
      // has no cache to look it up in.
      ScopedSpan span(tracer, "make_key", input.index);
      const std::string key =
          serve::DiagnosisCache::make_key(input.design_id, *input.log);
      static_cast<void>(key);
    }
    if (!cached) prefix = compute_prefix(input, ctx, tracer);
    result.report = prefix.base_report;
    {
      ScopedSpan span(tracer, "predict", input.index);
      result.prediction = framework.predict(prefix.subgraph, prefix.adjacency);
    }
    {
      ScopedSpan span(tracer, "refine_report", input.index);
      result.pruned =
          framework.refine_report(ctx, result.prediction, result.report);
      result.prediction.pruned = !result.pruned.empty();
    }
    {
      ScopedSpan span(tracer, "diagnosis_confidence", input.index);
      result.confidence =
          framework.diagnosis_confidence(prefix.backtrace, &result.prediction);
    }
  }
  if (counts != nullptr) {
    counts->candidates +=
        static_cast<std::int64_t>(prefix.backtrace.candidates.size());
    counts->quarantined +=
        static_cast<std::int64_t>(prefix.backtrace.quarantined.size());
    counts->subgraph_nodes += prefix.subgraph.num_nodes();
  }
  return serve::result_to_string(design.netlist(), result);
}

std::vector<std::string> render_chains(const DiagnosisFramework& framework,
                                       const std::vector<ChainInput>& inputs,
                                       bool cached) {
  std::vector<std::string> out;
  for (const ChainInput& in : inputs) {
    out.push_back(run_chain(framework, in, cached, nullptr, nullptr));
  }
  return out;
}

}  // namespace m3dfl::benchmark
