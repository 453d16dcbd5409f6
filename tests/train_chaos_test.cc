// Kill–resume chaos harness for crash-safe training (core/checkpoint.h).
//
// The contract under test: a training run that is killed at any epoch
// boundary and resumed from its on-disk checkpoint produces a final
// framework that is *byte-identical* to an uninterrupted run — and any
// corruption of the checkpoint file is detected at resume, never silently
// trained on.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/framework.h"
#include "scratch_dir.h"
#include "util/artifact.h"
#include "util/atomic_file.h"
#include "util/fault_injector.h"

namespace m3dfl {
namespace {

namespace fs = std::filesystem;

Subgraph toy_graph(Rng& rng, int label) {
  Subgraph sg;
  const std::int32_t n = 5;
  sg.features = Matrix(n, kNumNodeFeatures);
  for (std::int32_t i = 0; i < n; ++i) {
    sg.nodes.push_back(i);
    for (std::int32_t j = 0; j < kNumNodeFeatures; ++j) {
      sg.features.at(i, j) = static_cast<float>(rng.next_double());
    }
    // Columns 3/5/6 are exclusive-coded (tier code, binary flags); keep
    // them on-contract so the training preflight lint accepts the set.
    sg.features.at(i, 3) = label == 1 ? 1.0f : 0.0f;
    sg.features.at(i, 5) = rng.next_double() < 0.5 ? 0.0f : 1.0f;
    sg.features.at(i, 6) = rng.next_double() < 0.5 ? 0.0f : 1.0f;
    if (i > 0) {
      sg.edge_u.push_back(i - 1);
      sg.edge_v.push_back(i);
    }
  }
  sg.tier_label = label;
  sg.miv_local = {2};
  sg.miv_ids = {0};
  sg.miv_label = {static_cast<std::int8_t>(label)};
  return sg;
}

std::vector<Subgraph> toy_dataset() {
  Rng rng(41);
  std::vector<Subgraph> graphs;
  for (int i = 0; i < 20; ++i) graphs.push_back(toy_graph(rng, i % 2));
  return graphs;
}

FrameworkOptions small_options() {
  FrameworkOptions options;
  options.model.hidden = 8;
  options.model.num_layers = 2;
  options.training.epochs = 8;
  return options;
}

std::string framework_bytes(const DiagnosisFramework& framework) {
  std::ostringstream os;
  framework.save(os);
  return os.str();
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = testing::scratch_dir(name);
  fs::create_directories(dir);
  return dir.string();
}

// Uninterrupted run through the checkpointing trainer; also reports how many
// epoch boundaries (kEpochEnd seam calls) the full run crosses.
std::string reference_run(const std::vector<Subgraph>& graphs,
                          std::int64_t* num_epoch_ends = nullptr,
                          std::int32_t interval = 1) {
  const std::string dir = fresh_dir("ref-ckpt");
  DiagnosisFramework framework(small_options());
  TrainerOptions topt;
  topt.checkpoint_dir = dir;
  topt.checkpoint_interval = interval;
  Trainer trainer(framework, topt);
  FaultInjector injector(kNumTrainSeams);  // armed with nothing: pure counter
  trainer.set_fault_injector(&injector);
  trainer.train(graphs);
  if (num_epoch_ends != nullptr) {
    *num_epoch_ends =
        injector.calls(TrainSeam::kEpochEnd);
  }
  return framework_bytes(framework);
}

// ---- Plain vs checkpointed equivalence --------------------------------------

TEST(TrainChaosTest, CheckpointedTrainingMatchesPlainTraining) {
  const std::vector<Subgraph> graphs = toy_dataset();
  DiagnosisFramework plain(small_options());
  plain.train(graphs);
  EXPECT_EQ(framework_bytes(plain), reference_run(graphs));
}

// ---- Kill–resume ------------------------------------------------------------

// Kill the run at every single epoch boundary in turn; each resumed run must
// finish byte-identical to the uninterrupted reference.
TEST(TrainChaosTest, KillAtEveryEpochBoundaryResumesByteIdentical) {
  const std::vector<Subgraph> graphs = toy_dataset();
  std::int64_t num_epoch_ends = 0;
  const std::string want = reference_run(graphs, &num_epoch_ends);
  ASSERT_GT(num_epoch_ends, 0);

  for (std::int64_t kill = 1; kill <= num_epoch_ends; ++kill) {
    const std::string dir = fresh_dir("kill-ckpt");
    TrainerOptions topt;
    topt.checkpoint_dir = dir;
    {
      DiagnosisFramework victim(small_options());
      Trainer trainer(victim, topt);
      FaultInjector injector(kNumTrainSeams);
      injector.arm_nth(TrainSeam::kEpochEnd,
                       {static_cast<std::uint64_t>(kill)});
      trainer.set_fault_injector(&injector);
      EXPECT_THROW(trainer.train(graphs), SimulatedCrash)
          << "kill point " << kill;
      EXPECT_FALSE(victim.trained());
      ASSERT_TRUE(Trainer::has_checkpoint(dir)) << "kill point " << kill;
    }
    // "Restart the process": a fresh framework and trainer, resumed from
    // disk.
    DiagnosisFramework survivor(small_options());
    Trainer trainer(survivor, topt);
    ASSERT_TRUE(trainer.resume()) << "kill point " << kill;
    trainer.train(graphs);
    EXPECT_TRUE(survivor.trained());
    EXPECT_EQ(framework_bytes(survivor), want)
        << "resumed run diverged after kill point " << kill;
  }
}

// With a sparser checkpoint cadence the resumed run replays the epochs since
// the last checkpoint — and still lands on identical bytes.
TEST(TrainChaosTest, ResumeReplaysEpochsSinceLastCheckpoint) {
  const std::vector<Subgraph> graphs = toy_dataset();
  const std::string want = reference_run(graphs);

  const std::string dir = fresh_dir("sparse-ckpt");
  TrainerOptions topt;
  topt.checkpoint_dir = dir;
  topt.checkpoint_interval = 3;
  {
    DiagnosisFramework victim(small_options());
    Trainer trainer(victim, topt);
    FaultInjector injector(kNumTrainSeams);
    injector.arm_nth(TrainSeam::kEpochEnd, {5});
    trainer.set_fault_injector(&injector);
    EXPECT_THROW(trainer.train(graphs), SimulatedCrash);
  }
  DiagnosisFramework survivor(small_options());
  Trainer trainer(survivor, topt);
  ASSERT_TRUE(trainer.resume());
  trainer.train(graphs);
  EXPECT_EQ(framework_bytes(survivor), want);
}

// A crash during the checkpoint write itself must leave the previous
// checkpoint intact and usable (the atomic-rename guarantee).
TEST(TrainChaosTest, CrashDuringCheckpointWriteLeavesOldCheckpointUsable) {
  const std::vector<Subgraph> graphs = toy_dataset();
  const std::string want = reference_run(graphs);

  const std::string dir = fresh_dir("torn-ckpt");
  TrainerOptions topt;
  topt.checkpoint_dir = dir;
  {
    DiagnosisFramework victim(small_options());
    Trainer trainer(victim, topt);
    FaultInjector injector(kNumTrainSeams);
    injector.arm_nth(TrainSeam::kCheckpointSave, {3});
    trainer.set_fault_injector(&injector);
    EXPECT_THROW(trainer.train(graphs), SimulatedCrash);
    ASSERT_TRUE(Trainer::has_checkpoint(dir));
  }
  DiagnosisFramework survivor(small_options());
  Trainer trainer(survivor, topt);
  ASSERT_TRUE(trainer.resume());
  trainer.train(graphs);
  EXPECT_EQ(framework_bytes(survivor), want);
}

TEST(TrainChaosTest, ResumeWithoutCheckpointReturnsFalse) {
  const std::string dir = fresh_dir("empty-ckpt");
  EXPECT_FALSE(Trainer::has_checkpoint(dir));
  DiagnosisFramework framework(small_options());
  TrainerOptions topt;
  topt.checkpoint_dir = dir;
  Trainer trainer(framework, topt);
  EXPECT_FALSE(trainer.resume());
  // And training from scratch still works.
  trainer.train(toy_dataset());
  EXPECT_TRUE(framework.trained());
}

// ---- Guard rails ------------------------------------------------------------

TEST(TrainChaosTest, NanLossRollsBackAndRecovers) {
  const std::vector<Subgraph> graphs = toy_dataset();
  DiagnosisFramework framework(small_options());
  Trainer trainer(framework);
  FaultInjector injector(kNumTrainSeams);
  injector.arm_nth(TrainSeam::kNanLoss, {3});
  trainer.set_fault_injector(&injector);
  trainer.train(graphs);
  EXPECT_TRUE(framework.trained());
  EXPECT_EQ(trainer.rollbacks(), 1);
  EXPECT_DOUBLE_EQ(trainer.lr_scale(), 0.5);
  // The rolled-back-and-retrained model must still be healthy.
  for (const Subgraph& g : graphs) {
    const FrameworkPrediction p = framework.predict(g, subgraph_adjacency(g));
    EXPECT_TRUE(std::isfinite(p.confidence));
  }
}

TEST(TrainChaosTest, PersistentDivergenceGivesUpAfterMaxRollbacks) {
  const std::vector<Subgraph> graphs = toy_dataset();
  DiagnosisFramework framework(small_options());
  TrainerOptions topt;
  topt.max_rollbacks = 2;
  Trainer trainer(framework, topt);
  FaultInjector injector(kNumTrainSeams);
  injector.arm(TrainSeam::kNanLoss, 1.0);  // every epoch
  trainer.set_fault_injector(&injector);
  try {
    trainer.train(graphs);
    FAIL() << "persistent divergence not reported";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(trainer.rollbacks(), 2);
}

// ---- Corrupt-checkpoint corpus ----------------------------------------------

// Produces a mid-phase checkpoint file (models + optimizer + loop state) by
// killing a run at epoch boundary `kill`.
std::string make_checkpoint(const std::vector<Subgraph>& graphs,
                            const std::string& dir, std::uint64_t kill) {
  TrainerOptions topt;
  topt.checkpoint_dir = dir;
  DiagnosisFramework victim(small_options());
  Trainer trainer(victim, topt);
  FaultInjector injector(kNumTrainSeams);
  injector.arm_nth(TrainSeam::kEpochEnd, {kill});
  trainer.set_fault_injector(&injector);
  EXPECT_THROW(trainer.train(graphs), SimulatedCrash);
  return trainer.checkpoint_path();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

bool resume_rejects(const std::string& dir) {
  DiagnosisFramework framework(small_options());
  TrainerOptions topt;
  topt.checkpoint_dir = dir;
  Trainer trainer(framework, topt);
  try {
    trainer.resume();
    return false;
  } catch (const Error&) {
    return true;
  }
}

// Every sampled single-byte flip of the checkpoint file must make resume()
// throw — never load garbage weights.  Early bytes (container header) and
// late bytes (CRC + trailer) are covered exhaustively, the payload in
// stride.
TEST(TrainChaosTest, CorruptedCheckpointBytesAreRejected) {
  const std::vector<Subgraph> graphs = toy_dataset();
  const std::string dir = fresh_dir("corrupt-ckpt");
  const std::string path = make_checkpoint(graphs, dir, 10);
  const std::string good = read_file(path);
  ASSERT_TRUE(is_artifact(good));

  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < good.size() && i < 120; ++i) {
    offsets.push_back(i);
  }
  for (std::size_t i = 120; i + 80 < good.size(); i += 7) {
    offsets.push_back(i);
  }
  for (std::size_t i = good.size() >= 80 ? good.size() - 80 : 0;
       i < good.size(); ++i) {
    offsets.push_back(i);
  }
  for (const std::size_t i : offsets) {
    std::string bad = good;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0x01);
    write_file(path, bad);
    EXPECT_TRUE(resume_rejects(dir)) << "flip at byte " << i << " accepted";
  }

  // Sanity: the pristine file still resumes.
  write_file(path, good);
  DiagnosisFramework framework(small_options());
  TrainerOptions topt;
  topt.checkpoint_dir = dir;
  Trainer trainer(framework, topt);
  EXPECT_TRUE(trainer.resume());
}

TEST(TrainChaosTest, TruncatedCheckpointIsRejected) {
  const std::vector<Subgraph> graphs = toy_dataset();
  const std::string dir = fresh_dir("trunc-ckpt");
  const std::string path = make_checkpoint(graphs, dir, 4);
  const std::string good = read_file(path);

  for (std::size_t len = 0; len < good.size();
       len += (len < 60 ? 1 : 139)) {
    write_file(path, good.substr(0, len));
    EXPECT_TRUE(resume_rejects(dir)) << "truncation to " << len << " bytes";
  }
  // Dropping just the final newline must also be caught.
  write_file(path, good.substr(0, good.size() - 1));
  EXPECT_TRUE(resume_rejects(dir));
}

// ---- Atomic replacement -----------------------------------------------------

TEST(TrainChaosTest, AtomicWriteReplacesCompletely) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/artifact.txt";
  write_file_atomic(path, "first contents\n");
  EXPECT_EQ(read_file(path), "first contents\n");
  write_file_atomic(path, "second\n");
  EXPECT_EQ(read_file(path), "second\n");
  // No temporary files left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(TrainChaosTest, AtomicWriteToMissingDirectoryThrows) {
  const std::string dir = fresh_dir("atomic-missing");
  fs::remove_all(dir);
  try {
    write_file_atomic(dir + "/x/y.txt", "data");
    FAIL() << "write into a missing directory succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("y.txt"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace m3dfl
