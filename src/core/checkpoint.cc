#include "core/checkpoint.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include <unordered_map>

#include "gnn/oversample.h"
#include "gnn/serialize.h"
#include "lint/lint.h"
#include "sta/collapse.h"
#include "util/artifact.h"
#include "util/atomic_file.h"

namespace m3dfl {
namespace {

constexpr int kDonePhase = 3;

// STA preflight: reject labeled samples whose ground-truth faults are
// untestable (see TrainerOptions::sta_design).  Throws citing each offending
// (sample, fault site) pair, capped so a systematically poisoned dataset
// still produces a readable error.
void sta_preflight(const DesignContext& design,
                   std::span<const Sample> samples,
                   const sta::StaOptions& sta_options) {
  const Netlist& nl = *design.netlist;
  const sta::TimingAnalysis analysis(nl, design.tiers, design.mivs,
                                     sta_options);
  const std::vector<sta::UntestableFault> untestable =
      analysis.untestable_faults();
  if (untestable.empty()) return;

  // Key: TDF index (2*pin + dir) for pin faults, offset by the pin universe
  // for MIVs; static faults are outside the delay-fault universe.
  const auto key_of = [&](const Fault& f) -> std::int64_t {
    if (f.is_miv()) return 2LL * nl.num_pins() + f.miv;
    if (f.is_static()) return -1;
    return sta::tdf_fault_index(f);
  };
  std::unordered_map<std::int64_t, const sta::UntestableFault*> by_key;
  by_key.reserve(untestable.size());
  for (const sta::UntestableFault& u : untestable) {
    by_key.emplace(key_of(u.fault), &u);
  }

  std::string cited;
  std::int32_t hits = 0;
  constexpr std::int32_t kMaxCited = 8;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (const Fault& f : samples[i].faults) {
      const std::int64_t key = key_of(f);
      if (key < 0) continue;
      const auto it = by_key.find(key);
      if (it == by_key.end()) continue;
      ++hits;
      if (hits <= kMaxCited) {
        if (!cited.empty()) cited += "; ";
        cited += "sample " + std::to_string(i) + ": " +
                 fault_to_string(nl, f) + " (" +
                 sta::untestable_reason_name(it->second->reason) + ")";
      }
    }
  }
  if (hits == 0) return;
  if (hits > kMaxCited) {
    cited += "; and " + std::to_string(hits - kMaxCited) + " more";
  }
  throw Error("training preflight failed: " + std::to_string(hits) +
              " label(s) reference untestable delay faults: " + cited);
}

std::string adam_to_string(const Adam& adam) {
  std::ostringstream os;
  adam.save(os);
  return os.str();
}

// Loads one bare model payload ("m3dfl-model 1 <kind>" + config + weights)
// into an *existing* model.  Rollback must not replace the model object: the
// optimizer's parameter pointers refer into it.  The payload was produced by
// this very model an epoch ago, so only the kind token is sanity-checked;
// the weight loaders still enforce shapes.
template <typename Model>
void load_payload_in_place(const std::string& payload, Model& model,
                           const char* kind) {
  std::istringstream is(payload);
  std::string token;
  is >> token;  // magic
  M3DFL_ASSERT(token == "m3dfl-model");
  is >> token;  // version
  is >> token;  // kind
  M3DFL_ASSERT(token == kind);
  is >> token;  // "config"
  std::uint64_t field = 0;
  for (int i = 0; i < 5; ++i) is >> field;
  M3DFL_ASSERT(!is.fail());
  model.load(is);
}

template <typename Model>
std::string model_to_string(const Model& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

}  // namespace

const char* train_seam_name(TrainSeam seam) {
  switch (seam) {
    case TrainSeam::kEpochEnd:
      return "epoch_end";
    case TrainSeam::kCheckpointSave:
      return "checkpoint_save";
    case TrainSeam::kNanLoss:
      return "nan_loss";
  }
  return "unknown";
}

Trainer::Trainer(DiagnosisFramework& framework, const TrainerOptions& options)
    : fw_(framework), options_(options) {
  M3DFL_REQUIRE(options_.checkpoint_interval >= 1,
                "checkpoint_interval must be >= 1");
  M3DFL_REQUIRE(options_.max_rollbacks >= 0, "max_rollbacks must be >= 0");
}

std::string Trainer::checkpoint_path() const {
  return options_.checkpoint_dir + "/" + kCheckpointFileName;
}

bool Trainer::has_checkpoint(const std::string& dir) {
  if (dir.empty()) return false;
  std::error_code ec;
  return std::filesystem::exists(dir + "/" + kCheckpointFileName, ec);
}

// ---- Checkpoint format ------------------------------------------------------
//
// Payload (inside a "train-checkpoint" artifact container):
//
//   m3dfl-checkpoint 1
//   phase <p> mid <0|1>
//   lr_scale <hexfloat>
//   rollbacks <n>
//   tp_threshold <hexfloat>
//   models <2|3>
//   <bare model payloads: tier predictor, MIV pinpointer[, classifier]>
//   loop <next_epoch> <stale> <done>        (mid-phase only)
//   loop_loss <hexfloat best> <hexfloat last>
//   rng <w0> <w1> <w2> <w3>
//   <adam payload>
//   m3dfl-checkpoint-end
//
// The optimizer section comes last: at resume time it cannot be parsed until
// the phase's parameters are registered, so resume() stores the raw tail and
// run_loop() replays it once the optimizer exists.

std::string Trainer::checkpoint_payload() const {
  const bool mid = current_adam_ != nullptr;
  std::ostringstream os;
  os << "m3dfl-checkpoint 1\n";
  os << "phase " << phase_ << " mid " << (mid ? 1 : 0) << "\n";
  os << "lr_scale " << std::hexfloat << lr_scale_ << std::defaultfloat
     << "\n";
  os << "rollbacks " << rollbacks_ << "\n";
  os << "tp_threshold " << std::hexfloat << fw_.tp_threshold_
     << std::defaultfloat << "\n";
  os << "models " << (fw_.classifier_ ? 3 : 2) << "\n";
  fw_.tier_predictor_->save(os);
  fw_.miv_pinpointer_->save(os);
  if (fw_.classifier_) fw_.classifier_->save(os);
  if (mid) {
    os << "loop " << state_.next_epoch << " " << state_.stale << " "
       << (state_.done ? 1 : 0) << "\n";
    os << "loop_loss " << std::hexfloat << state_.best_loss << " "
       << state_.last_loss << std::defaultfloat << "\n";
    const std::array<std::uint64_t, 4> words = state_.rng.state();
    os << "rng " << words[0] << " " << words[1] << " " << words[2] << " "
       << words[3] << "\n";
    current_adam_->save(os);
  }
  os << "m3dfl-checkpoint-end\n";
  return os.str();
}

void Trainer::save_checkpoint() {
  M3DFL_REQUIRE(checkpointing(),
                "save_checkpoint requires a checkpoint directory");
  const std::string path = checkpoint_path();
  if (injector_ != nullptr &&
      injector_->should_fail(TrainSeam::kCheckpointSave)) {
    // Stands in for dying mid-write.  Thrown before the atomic rename, which
    // is exactly the guarantee write_file_atomic gives a real crash: the
    // previous checkpoint file survives untouched.
    throw SimulatedCrash("m3dfl: injected crash during checkpoint write to '" +
                         path + "'");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.checkpoint_dir, ec);
  M3DFL_REQUIRE(!ec, "cannot create checkpoint directory '" +
                         options_.checkpoint_dir + "': " + ec.message());
  write_file_atomic(path,
                    artifact_to_string(kCheckpointKind, checkpoint_payload()));
}

bool Trainer::resume() {
  M3DFL_REQUIRE(checkpointing(), "resume requires a checkpoint directory");
  const std::string path = checkpoint_path();
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string payload =
      read_artifact(slurp_stream(in), kCheckpointKind, path);
  std::istringstream is(payload);

  const auto expect = [&](const char* label) {
    std::string token;
    is >> token;
    M3DFL_REQUIRE(token == label, path + ": checkpoint: expected '" +
                                      std::string(label) + "', found '" +
                                      token + "'");
  };
  const auto read_hexfloat = [&](const char* label) {
    expect(label);
    std::string token;
    is >> token;
    M3DFL_REQUIRE(!token.empty(), path + ": checkpoint: truncated " +
                                      std::string(label));
    return std::strtod(token.c_str(), nullptr);
  };

  expect("m3dfl-checkpoint");
  std::string version;
  is >> version;
  M3DFL_REQUIRE(version == "1",
                path + ": unsupported checkpoint version: expected 1, "
                       "found '" + version + "'");
  expect("phase");
  int phase = 0;
  is >> phase;
  M3DFL_REQUIRE(!is.fail() && phase >= 0 && phase <= kDonePhase,
                path + ": checkpoint: phase out of range");
  expect("mid");
  int mid = 0;
  is >> mid;
  M3DFL_REQUIRE(!is.fail() && (mid == 0 || mid == 1),
                path + ": checkpoint: bad mid flag");
  const double lr_scale = read_hexfloat("lr_scale");
  expect("rollbacks");
  std::int32_t rollbacks = 0;
  is >> rollbacks;
  M3DFL_REQUIRE(!is.fail() && rollbacks >= 0,
                path + ": checkpoint: bad rollback count");
  const double tp_threshold = read_hexfloat("tp_threshold");
  expect("models");
  int num_models = 0;
  is >> num_models;
  M3DFL_REQUIRE(num_models == 2 || num_models == 3,
                path + ": checkpoint: bad model count");

  auto tier = std::make_unique<TierPredictor>(
      read_tier_predictor_payload(is, path));
  auto miv = std::make_unique<MivPinpointer>(
      read_miv_pinpointer_payload(is, path));
  std::unique_ptr<PruneClassifier> classifier;
  if (num_models == 3) {
    classifier = std::make_unique<PruneClassifier>(
        read_prune_classifier_payload(is, *tier, path));
  }

  if (mid == 1) {
    expect("loop");
    EpochLoopState state;
    int done = 0;
    is >> state.next_epoch >> state.stale >> done;
    M3DFL_REQUIRE(!is.fail() && state.next_epoch >= 0 && state.stale >= 0 &&
                      (done == 0 || done == 1),
                  path + ": checkpoint: bad loop state");
    state.done = done == 1;
    state.best_loss = read_hexfloat("loop_loss");
    {
      std::string token;
      is >> token;
      M3DFL_REQUIRE(!token.empty(),
                    path + ": checkpoint: truncated loop_loss");
      state.last_loss = std::strtod(token.c_str(), nullptr);
    }
    expect("rng");
    std::array<std::uint64_t, 4> words{};
    is >> words[0] >> words[1] >> words[2] >> words[3];
    M3DFL_REQUIRE(!is.fail(), path + ": checkpoint: bad rng state");
    state.rng.set_state(words);

    // The raw tail (optimizer payload + trailer) is replayed at phase entry,
    // once the phase's parameters are registered.
    std::string tail(std::istreambuf_iterator<char>(is), {});
    M3DFL_REQUIRE(tail.ends_with("m3dfl-checkpoint-end\n"),
                  path + ": checkpoint: truncated (missing end trailer)");
    state_ = state;
    resume_adam_ = std::move(tail);
    mid_phase_ = true;
  } else {
    expect("m3dfl-checkpoint-end");
    state_ = EpochLoopState{};
    resume_adam_.clear();
    mid_phase_ = false;
  }

  fw_.tier_predictor_ = std::move(tier);
  fw_.miv_pinpointer_ = std::move(miv);
  fw_.classifier_ = std::move(classifier);
  fw_.tp_threshold_ = tp_threshold;
  fw_.trained_ = false;
  phase_ = phase;
  lr_scale_ = lr_scale;
  rollbacks_ = rollbacks;
  return true;
}

// ---- Training pipeline ------------------------------------------------------

void Trainer::train(std::span<const Subgraph> graphs) {
  M3DFL_REQUIRE(!graphs.empty(), "cannot train on an empty dataset");
  if (options_.preflight && phase_ == 0) {
    if (options_.sta_design != nullptr && !options_.sta_samples.empty()) {
      sta_preflight(*options_.sta_design, options_.sta_samples,
                    options_.sta_options);
    }
    const lint::Report report = lint::lint_training_set(graphs);
    if (report.has_errors()) {
      throw Error("training preflight failed: " + report.summary() +
                  "; first: " + report.diagnostics().front().to_string());
    }
  }
  while (phase_ < kDonePhase) {
    switch (phase_) {
      case 0:
        run_tier_phase(graphs);
        break;
      case 1:
        run_miv_phase(graphs);
        break;
      default:
        run_classifier_phase(graphs);
        break;
    }
    ++phase_;
    if (checkpointing()) save_checkpoint();
  }
  fw_.trained_ = true;
}

void Trainer::run_loop(std::size_t dataset_size, Adam& adam,
                       const ModelIo& io, const TrainStepFn& step) {
  const TrainOptions& topt = fw_.options_.training;
  if (mid_phase_) {
    // Resumed mid-phase: the loop state was restored by resume(); replay the
    // optimizer payload now that the parameters are registered.
    std::istringstream is(resume_adam_);
    adam.load(is);
    resume_adam_.clear();
    mid_phase_ = false;
  } else {
    state_ = EpochLoopState{};
    state_.rng.reseed(topt.seed);
  }
  snapshot_ = Snapshot{io.save(), adam_to_string(adam), state_};
  current_adam_ = &adam;
  try {
    run_epoch_loop(dataset_size, topt, adam, state_, step,
                   [&](EpochLoopState&) { return epoch_hook(adam, io); });
  } catch (...) {
    current_adam_ = nullptr;
    throw;
  }
  current_adam_ = nullptr;
}

bool Trainer::epoch_hook(Adam& adam, const ModelIo& io) {
  if (injector_ != nullptr &&
      injector_->should_fail(TrainSeam::kNanLoss)) {
    state_.last_loss = std::numeric_limits<double>::quiet_NaN();
  }
  if (!std::isfinite(state_.last_loss) || !adam.all_finite()) {
    roll_back(adam, io);
    return true;  // retry from the restored state
  }
  // This epoch is good: refresh the rollback snapshot before anything can
  // fail.
  snapshot_ = Snapshot{io.save(), adam_to_string(adam), state_};
  if (checkpointing() && (state_.next_epoch % options_.checkpoint_interval ==
                              0 ||
                          state_.done)) {
    save_checkpoint();
  }
  if (injector_ != nullptr &&
      injector_->should_fail(TrainSeam::kEpochEnd)) {
    throw SimulatedCrash("m3dfl: injected crash at epoch boundary: phase " +
                         std::to_string(phase_) + ", epoch " +
                         std::to_string(state_.next_epoch));
  }
  return true;
}

void Trainer::roll_back(Adam& adam, const ModelIo& io) {
  M3DFL_REQUIRE(rollbacks_ < options_.max_rollbacks,
                "training diverged in phase " + std::to_string(phase_) +
                    ": non-finite loss or parameters persisted after " +
                    std::to_string(rollbacks_) + " rollbacks");
  ++rollbacks_;
  lr_scale_ *= 0.5;
  io.restore(snapshot_.model);
  std::istringstream is(snapshot_.adam);
  adam.load(is);
  state_ = snapshot_.state;
  adam.set_lr(fw_.options_.training.lr * lr_scale_);
}

// ---- Phases -----------------------------------------------------------------

void Trainer::run_tier_phase(std::span<const Subgraph> graphs) {
  const TrainSet set = select_tier_samples(graphs);
  TierPredictor& model = *fw_.tier_predictor_;
  Adam adam(AdamOptions{.lr = fw_.options_.training.lr * lr_scale_});
  model.register_params(adam);
  const ModelIo io{
      [&] { return model_to_string(model); },
      [&](const std::string& payload) {
        load_payload_in_place(payload, model, kTierPredictorKind);
      }};
  run_loop(set.size(), adam, io, [&](std::size_t i) {
    return model.train_step(*set.data[i], set.adj[i],
                            set.data[i]->tier_label);
  });
}

void Trainer::run_miv_phase(std::span<const Subgraph> graphs) {
  const TrainSet set = select_miv_samples(graphs);
  MivPinpointer& model = *fw_.miv_pinpointer_;
  Adam adam(AdamOptions{.lr = fw_.options_.training.lr * lr_scale_});
  model.register_params(adam);
  const ModelIo io{
      [&] { return model_to_string(model); },
      [&](const std::string& payload) {
        load_payload_in_place(payload, model, kMivPinpointerKind);
      }};
  run_loop(set.size(), adam, io, [&](std::size_t i) {
    return model.train_step(*set.data[i], set.adj[i]);
  });
}

void Trainer::run_classifier_phase(std::span<const Subgraph> graphs) {
  // One frozen-tier-predictor verdict per tier-labeled graph, shared by the
  // PR curve and the Predicted-Positive selection below.
  std::vector<const Subgraph*> labeled;
  std::vector<PrSample> verdicts;
  for (const Subgraph& g : graphs) {
    if (g.empty() || (g.tier_label != 0 && g.tier_label != 1)) continue;
    double confidence = 0.0;
    const int tier = fw_.tier_predictor_->predicted_tier(
        g, subgraph_adjacency(g), &confidence);
    labeled.push_back(&g);
    verdicts.push_back(PrSample{confidence, tier == g.tier_label});
  }

  if (!mid_phase_) {
    // PR curve over the training set -> T_P (paper Sec. V-B).  On a
    // mid-phase resume T_P comes from the checkpoint instead; recomputing
    // would give the same value (the tier predictor is frozen by now) but
    // the restored one is authoritative.
    fw_.tp_threshold_ =
        select_threshold(pr_curve(verdicts), fw_.options_.pr_min_precision);
  }

  // Classifier training set: Predicted Positive samples, labeled by whether
  // the tier prediction was correct (true positive -> prune is safe).
  // Deterministically derived from the frozen tier predictor, T_P, and a
  // fixed oversampling seed, so it is recomputed at (re-)entry rather than
  // checkpointed.
  std::vector<Subgraph> cls_graphs;
  std::vector<int> cls_labels;
  for (std::size_t i = 0; i < labeled.size(); ++i) {
    if (verdicts[i].confidence < fw_.tp_threshold_) continue;
    cls_graphs.push_back(*labeled[i]);
    cls_labels.push_back(verdicts[i].correct ? 1 : 0);
  }
  if (!cls_graphs.empty()) {
    Rng rng(fw_.options_.training.seed ^ 0xB0FFE2);
    balance_with_buffers(cls_graphs, cls_labels, rng);
  }

  if (!fw_.classifier_) {
    fw_.classifier_ = std::make_unique<PruneClassifier>(
        *fw_.tier_predictor_, fw_.options_.model);
  }
  PruneClassifier& model = *fw_.classifier_;
  const LabeledTrainSet set =
      select_classifier_samples(cls_graphs, cls_labels);
  Adam adam(AdamOptions{.lr = fw_.options_.training.lr * lr_scale_});
  model.register_params(adam);
  const ModelIo io{
      [&] { return model_to_string(model); },
      [&](const std::string& payload) {
        load_payload_in_place(payload, model, kPruneClassifierKind);
      }};
  run_loop(set.set.size(), adam, io, [&](std::size_t i) {
    return model.train_step(*set.set.data[i], set.set.adj[i],
                            set.labels[i]);
  });
}

}  // namespace m3dfl
