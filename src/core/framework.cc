#include "core/framework.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "dft/test_points.h"
#include "gnn/serialize.h"
#include "util/artifact.h"

namespace m3dfl {

// ---- Design -----------------------------------------------------------------

std::unique_ptr<Design> Design::build(Profile profile, DesignConfig config) {
  return build_impl(profile, config, /*random_partition=*/false, 0);
}

std::unique_ptr<Design> Design::build_random_partition(
    Profile profile, std::uint64_t partition_seed) {
  return build_impl(profile, DesignConfig::kSyn1, /*random_partition=*/true,
                    partition_seed);
}

std::unique_ptr<Design> Design::build_impl(Profile profile,
                                           DesignConfig config,
                                           bool random_partition,
                                           std::uint64_t partition_seed) {
  const ProfileSpec spec = profile_spec(profile);
  auto design = std::unique_ptr<Design>(new Design());
  design->name_ =
      spec.name + "/" +
      (random_partition ? "Rand-" + std::to_string(partition_seed)
                        : config_name(config));

  design->netlist_ = generate_netlist(generator_for(spec, config));
  if (config == DesignConfig::kTpi) {
    insert_test_points(design->netlist_, spec.tpi);
  }

  PartitionOptions part = partition_for(spec, config);
  if (random_partition) {
    part.method = PartitionMethod::kRandom;
    part.seed = partition_seed;
  }
  design->tiers_ = partition_tiers(design->netlist_, part);
  design->mivs_ = MivMap(design->netlist_, design->tiers_);
  design->scan_ = ScanChains(design->netlist_, spec.num_chains, spec.scan_seed);
  design->compactor_ = XorCompactor(design->scan_, spec.chains_per_channel);

  design->fail_memory_patterns_ = spec.fail_memory_patterns;
  design->atpg_ = generate_tdf_patterns(design->netlist_, spec.atpg);
  design->good_ = std::make_unique<LocSimulator>(design->netlist_);
  design->good_->run(design->atpg_.patterns);

  const auto t0 = std::chrono::steady_clock::now();
  design->graph_ = HeteroGraph(design->netlist_, design->tiers_, design->mivs_);
  design->feature_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return design;
}

DesignContext Design::context() const {
  DesignContext ctx;
  ctx.netlist = &netlist_;
  ctx.tiers = &tiers_;
  ctx.mivs = &mivs_;
  ctx.scan = &scan_;
  ctx.compactor = &compactor_;
  ctx.patterns = &atpg_.patterns;
  ctx.good = good_.get();
  ctx.graph = &graph_;
  ctx.fail_memory_patterns = fail_memory_patterns_;
  return ctx;
}

// ---- DiagnosisFramework ------------------------------------------------------

DiagnosisFramework::DiagnosisFramework(const FrameworkOptions& options)
    : options_(options),
      tier_predictor_(std::make_unique<TierPredictor>(options.model)),
      miv_pinpointer_(std::make_unique<MivPinpointer>(options.model)) {}

void DiagnosisFramework::train(std::span<const Subgraph> graphs) {
  Trainer trainer(*this);
  trainer.train(graphs);
}

FrameworkPrediction DiagnosisFramework::predict(
    const Subgraph& sg, const NormalizedAdjacency& adj) const {
  M3DFL_REQUIRE(trained_, "framework must be trained before prediction");
  FrameworkPrediction p;
  p.tier = tier_predictor_->predicted_tier(sg, adj, &p.confidence, &p.margin);
  p.high_confidence = p.confidence >= tp_threshold_;
  p.faulty_mivs =
      miv_pinpointer_->predict_faulty(sg, adj, options_.miv_threshold);
  if (p.high_confidence) {
    p.prune_prob = classifier_->predict_prune_prob(sg, adj);
  }
  return p;
}

DiagnosisConfidence DiagnosisFramework::diagnosis_confidence(
    const BacktraceResult& backtrace,
    const FrameworkPrediction* prediction) const {
  return calibrate_confidence(
      backtrace.min_support(), backtrace.relaxed,
      static_cast<std::int32_t>(backtrace.quarantined.size()),
      prediction != nullptr ? prediction->margin : -1.0, tp_threshold_);
}

std::vector<Candidate> DiagnosisFramework::refine_report(
    const DesignContext& design, const FrameworkPrediction& prediction,
    DiagnosisReport& report) const {
  std::vector<Candidate> pruned;
  if (report.candidates.empty()) return pruned;

  // Candidates equivalent to a predicted-faulty MIV are protected and will
  // be placed on top last (so they end up first).
  const auto matches_faulty_miv = [&](const Candidate& c) {
    for (MivId miv : prediction.faulty_mivs) {
      if (c.fault.is_miv() && c.fault.miv == miv) return true;
      if (!c.fault.is_miv() &&
          design.netlist->pin_net(c.fault.pin) == design.mivs->miv(miv).net) {
        return true;
      }
    }
    return false;
  };

  const bool do_prune =
      prediction.high_confidence && prediction.prune_prob >= 0.5;
  if (do_prune) {
    // Remove candidates in the tier predicted fault-free; MIV candidates
    // belong to no tier and survive, as do MIV-pinpointer hits.
    const int fault_free = 1 - prediction.tier;
    pruned = prune_candidates(report, [&](const Candidate& c) {
      if (matches_faulty_miv(c)) return false;
      return candidate_tier(design, c) == fault_free;
    });
    // Pruning everything would leave PFA with nothing; restore in that case
    // (the backup dictionary would be consulted immediately anyway).
    if (report.candidates.empty()) {
      report.candidates = pruned;
      pruned.clear();
    }
  } else {
    // Low confidence (or classifier says reorder): predicted-faulty tier to
    // the top.
    move_to_top(report, [&](const Candidate& c) {
      return candidate_tier(design, c) == prediction.tier;
    });
  }
  // MIV-pinpointer hits always end up first (paper Fig. 8: prioritize MIV
  // faults for PFA).
  move_to_top(report, matches_faulty_miv);
  return pruned;
}

void DiagnosisFramework::save(std::ostream& os) const {
  M3DFL_REQUIRE(trained_, "cannot save an untrained framework");
  // The container payload is the version-1 framework stream (bare model
  // sections, no nested containers).
  std::ostringstream payload;
  payload << "m3dfl-framework 1\n";
  payload << "tp_threshold " << std::hexfloat << tp_threshold_
          << std::defaultfloat << "\n";
  tier_predictor_->save(payload);
  miv_pinpointer_->save(payload);
  classifier_->save(payload);
  // Trailer: lets the inner parser distinguish a complete stream from one
  // truncated inside the final parameter payload (a partial hex-float token
  // would otherwise still parse).
  payload << "m3dfl-framework-end\n";
  write_artifact(os, kFrameworkKind, payload.str());
}

void DiagnosisFramework::load(std::istream& is, const std::string& source) {
  std::istringstream inner(
      read_artifact(slurp_stream(is), kFrameworkKind, source));

  std::string token;
  inner >> token;
  M3DFL_REQUIRE(token == "m3dfl-framework",
                source + ": not a framework stream: expected "
                         "'m3dfl-framework', found '" + token + "'");
  inner >> token;
  M3DFL_REQUIRE(token == "1",
                source + ": unsupported framework version: expected 1, "
                         "found '" + token + "'");
  inner >> token;
  M3DFL_REQUIRE(token == "tp_threshold",
                source + ": framework stream: missing T_P");
  inner >> token;
  tp_threshold_ = std::strtod(token.c_str(), nullptr);
  tier_predictor_ = std::make_unique<TierPredictor>(
      read_tier_predictor_payload(inner, source));
  miv_pinpointer_ = std::make_unique<MivPinpointer>(
      read_miv_pinpointer_payload(inner, source));
  classifier_ = std::make_unique<PruneClassifier>(
      read_prune_classifier_payload(inner, *tier_predictor_, source));
  inner >> token;
  M3DFL_REQUIRE(token == "m3dfl-framework-end",
                source + ": framework stream: truncated (missing end "
                         "trailer)");
  trained_ = true;
}

RefinedDiagnosis DiagnosisFramework::diagnose(
    const DesignContext& design, const DiagnosisPrefix& prefix) const {
  RefinedDiagnosis d;
  d.prediction = predict(prefix.subgraph, prefix.adjacency);
  d.report = prefix.base_report;
  d.pruned = refine_report(design, d.prediction, d.report);
  d.prediction.pruned = !d.pruned.empty();
  d.confidence = diagnosis_confidence(prefix.backtrace, &d.prediction);
  return d;
}

// ---- Format-1 migration -------------------------------------------------------

MigratedArtifact migrate_artifact(const std::string& bytes,
                                  const std::string& source) {
  MigratedArtifact result;
  result.converted = !is_artifact(bytes);
  // "m3dfl-artifact 2 <kind>", "m3dfl-framework 1" or "m3dfl-model 1 <kind>".
  std::istringstream header(bytes.substr(0, bytes.find('\n')));
  std::string magic;
  std::string version;
  header >> magic >> version >> result.kind;
  if (result.converted) {
    if (magic == "m3dfl-framework") {
      result.kind = kFrameworkKind;
    } else if (magic != "m3dfl-model") {
      throw Error("'" + source +
                  "' is neither a format-2 artifact nor a format-1 model "
                  "stream (expected m3dfl-artifact, m3dfl-framework or "
                  "m3dfl-model magic)");
    } else if (result.kind == kPruneClassifierKind) {
      throw Error("a bare prune-classifier stream cannot be migrated "
                  "standalone (it needs its host encoder); migrate the "
                  "enclosing framework artifact instead");
    }
  }
  // A format-1 stream is exactly the container's payload: wrap it, then
  // load and re-save so the output is what save() writes.  A container is
  // validated end to end (structure, CRC, payload parse) and kept as is.
  const std::string container =
      result.converted ? artifact_to_string(result.kind, bytes) : bytes;
  std::istringstream is(container);
  std::ostringstream os;
  if (result.kind == kFrameworkKind) {
    DiagnosisFramework framework;
    framework.load(is, source);
    framework.save(os);
  } else if (result.kind == kTierPredictorKind) {
    save_model(os, load_tier_predictor(is, source));
  } else if (result.kind == kMivPinpointerKind) {
    save_model(os, load_miv_pinpointer(is, source));
  } else if (result.converted) {
    throw Error("unknown format-1 model kind '" + result.kind + "' in '" +
                source + "'");
  } else {
    // Other kinds (a prune classifier needs its host encoder to parse):
    // the container structure and CRC only.
    (void)read_artifact(container, result.kind, source);
  }
  result.bytes = result.converted ? os.str() : bytes;
  return result;
}

}  // namespace m3dfl
