// Crash-safe training: checkpoint/resume with divergence guard rails.
//
// Training the three-model framework takes the longest wall-clock time of
// anything in this library, and a crash mid-run used to throw all of it
// away.  The Trainer runs the same four-phase pipeline DiagnosisFramework::
// train() always ran — tier predictor, MIV pinpointer, T_P selection +
// classifier, done — but around an explicit, serializable state:
//
//   * after every checkpoint_interval epochs (and at every phase boundary)
//     it persists {model weights, Adam moments, RNG state, phase, epoch,
//     early-stop counters, T_P, lr scale} to checkpoint_dir, through the
//     checksummed artifact container and an atomic rename, so the file on
//     disk is always a complete, verified checkpoint;
//   * resume() restores that state and continues the exact variate-for-
//     variate sequence the interrupted run would have produced — a resumed
//     run's final model is byte-identical to an uninterrupted one (the
//     kill–resume chaos harness in tests/train_chaos_test.cc asserts this);
//   * guard rails: after each epoch the trainer checks the epoch loss and
//     every parameter for non-finite values; on divergence it rolls back to
//     the last good in-memory snapshot, halves the learning rate, and
//     retries, giving up after max_rollbacks.
//
// The classifier phase's derived inputs (the Predicted-Positive subset and
// its dummy-buffer oversampling) are *recomputed* at phase entry rather than
// checkpointed: they are pure functions of the frozen tier predictor, the
// restored T_P, and a fixed seed, so recomputation is cheaper than
// persisting whole subgraphs and provably equivalent.
#ifndef M3DFL_CORE_CHECKPOINT_H_
#define M3DFL_CORE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "core/framework.h"
#include "diag/datagen.h"
#include "sta/sta.h"
#include "util/fault_injector.h"

namespace m3dfl {

// Artifact kind of a persisted training checkpoint.
inline constexpr const char* kCheckpointKind = "train-checkpoint";
// Checkpoint file name inside TrainerOptions::checkpoint_dir.
inline constexpr const char* kCheckpointFileName = "checkpoint.m3dfl";

// Failure seams of the training pipeline, for the kill–resume chaos harness
// (seams of util/fault_injector.h's FaultInjector).
enum class TrainSeam : int {
  kEpochEnd = 0,        // crash at an epoch boundary (after any checkpoint)
  kCheckpointSave = 1,  // crash during a checkpoint write (old file survives)
  kNanLoss = 2,         // corrupt the epoch loss to NaN (guard-rail test)
};
inline constexpr int kNumTrainSeams = 3;
const char* train_seam_name(TrainSeam seam);

// Thrown when an armed kEpochEnd / kCheckpointSave seam fires: stands in for
// SIGKILL in-process so the harness can catch it and restart training from
// the on-disk checkpoint.
class SimulatedCrash : public Error {
 public:
  explicit SimulatedCrash(const std::string& what) : Error(what) {}
};

struct TrainerOptions {
  // Directory for checkpoint files; empty disables checkpointing (plain
  // in-memory training, still guard-railed).
  std::string checkpoint_dir;
  // Epochs between periodic checkpoint writes (must be >= 1).
  std::int32_t checkpoint_interval = 1;
  // Divergence rollbacks tolerated before training gives up.
  std::int32_t max_rollbacks = 4;
  // Lint preflight: reject datasets with malformed feature matrices (wrong
  // width, non-finite values, out-of-range codes) before any epoch runs.
  // The check is one pass over the features — far cheaper than discovering
  // a poisoned sample as NaN weights after hours of training.
  bool preflight = true;
  // STA preflight (runs under the same `preflight` switch): when the design
  // and the labeled samples behind `graphs` are supplied, a static timing &
  // testability analysis rejects samples whose ground-truth faults are
  // untestable (unobservable cones, slack margin beyond sta_options.
  // max_defect_ps) before epoch 0, citing the fault sites.  An untestable
  // label can never match its failure log, so it would train the model on
  // contradictory evidence.  Both non-owning; null/empty skips the check.
  const DesignContext* sta_design = nullptr;
  std::span<const Sample> sta_samples;
  sta::StaOptions sta_options;
};

// Drives DiagnosisFramework training with checkpoint/resume and guard
// rails.  DiagnosisFramework::train() itself delegates here (with
// checkpointing disabled), so checkpointed and plain training are the same
// computation by construction.
class Trainer {
 public:
  explicit Trainer(DiagnosisFramework& framework,
                   const TrainerOptions& options = {});

  // Optional chaos injector; seams indexed by TrainSeam.  Not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Runs the pipeline from the trainer's current state (the beginning, or
  // wherever resume() left it) to completion, then marks the framework
  // trained.  Throws SimulatedCrash when an armed crash seam fires.
  void train(std::span<const Subgraph> graphs);

  // Loads the checkpoint from checkpoint_dir into the trainer and the
  // framework.  Returns false when no checkpoint exists; throws m3dfl::Error
  // (citing the file path) when the file is truncated, corrupt, or from an
  // unknown format version.
  bool resume();

  // Persists the current training state.  Called automatically every
  // checkpoint_interval epochs and at phase boundaries.
  void save_checkpoint();

  static bool has_checkpoint(const std::string& dir);
  std::string checkpoint_path() const;

  // Pipeline phase: 0 = tier predictor, 1 = MIV pinpointer, 2 = classifier
  // (T_P selection + transfer learning), 3 = done.
  int phase() const { return phase_; }
  std::int32_t rollbacks() const { return rollbacks_; }
  double lr_scale() const { return lr_scale_; }

 private:
  // Last-good in-memory state for divergence rollback: the current phase's
  // model payload, optimizer payload, and loop state.
  struct Snapshot {
    std::string model;
    std::string adam;
    EpochLoopState state;
  };
  // Serialization hooks for the phase's trainable model (rollback must load
  // weights into the *existing* object: the optimizer holds parameter
  // pointers into it).
  struct ModelIo {
    std::function<std::string()> save;
    std::function<void(const std::string&)> restore;
  };

  bool checkpointing() const { return !options_.checkpoint_dir.empty(); }

  void run_tier_phase(std::span<const Subgraph> graphs);
  void run_miv_phase(std::span<const Subgraph> graphs);
  void run_classifier_phase(std::span<const Subgraph> graphs);
  // Shared epoch-loop driver: construct/restore the optimizer, then run with
  // the guard-rail + checkpoint + crash-seam hook.
  void run_loop(std::size_t dataset_size, Adam& adam, const ModelIo& io,
                const TrainStepFn& step);
  bool epoch_hook(Adam& adam, const ModelIo& io);
  void roll_back(Adam& adam, const ModelIo& io);

  std::string checkpoint_payload() const;

  DiagnosisFramework& fw_;
  TrainerOptions options_;
  FaultInjector* injector_ = nullptr;

  int phase_ = 0;
  double lr_scale_ = 1.0;
  std::int32_t rollbacks_ = 0;
  EpochLoopState state_;
  Snapshot snapshot_;

  // Mid-phase resume hand-off: resume() parses the checkpoint before the
  // phase's optimizer exists, so the Adam payload is replayed at phase entry.
  bool mid_phase_ = false;
  std::string resume_adam_;

  // Set while run_loop is active so save_checkpoint() knows whether to
  // include the mid-phase (loop + optimizer) section.
  const Adam* current_adam_ = nullptr;
};

}  // namespace m3dfl

#endif  // M3DFL_CORE_CHECKPOINT_H_
