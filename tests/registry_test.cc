// registry::ModelRegistry: filename scheme, lazy loading, versioned lookup,
// byte-watermark LRU eviction (epoch-style: never invalidates a live
// reader), atomic hot reload with corrupt-replacement rejection, and the
// format-1 migration gate.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "registry/registry.h"
#include "util/limits.h"
#include "util/artifact.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace m3dfl {
namespace {

namespace fs = std::filesystem;
using registry::ModelRegistry;
using registry::RegistryOptions;

class RegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A small but genuinely trained framework: registry loads run the full
    // artifact + framework parse path, so the payload must be real.
    const auto design = Design::build(Profile::kAes, DesignConfig::kSyn1);
    TransferTrainOptions train;
    train.samples_syn1 = 12;
    train.samples_per_random = 6;
    const LabeledDataset data =
        build_transfer_training_set(Profile::kAes, *design, train);
    FrameworkOptions options;
    options.training.epochs = 5;
    DiagnosisFramework framework(options);
    framework.train(data.graphs);
    std::ostringstream os;
    framework.save(os);
    artifact_ = new std::string(os.str());
  }
  static void TearDownTestSuite() {
    delete artifact_;
    artifact_ = nullptr;
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("m3dfl_registry_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path_for(const std::string& design, std::int32_t version) const {
    return (dir_ / ModelRegistry::artifact_filename(design, version)).string();
  }
  void publish(const std::string& design, std::int32_t version,
               const std::string& bytes) const {
    write_file_atomic(path_for(design, version), bytes);
  }

  // A byte-identical-format artifact whose payload differs (tp_threshold
  // replaced), picking a hexfloat long enough that the file size changes —
  // the registry's freshness stamp is (size, mtime), and mtime granularity
  // alone is not a reliable edge under fast test turnaround.
  static std::string variant_artifact(double threshold) {
    std::string payload =
        read_artifact(*artifact_, kFrameworkKind, "<test>");
    const std::size_t at = payload.find("tp_threshold ");
    const std::size_t eol = payload.find('\n', at);
    std::ostringstream value;
    value << std::hexfloat << threshold;
    payload = payload.substr(0, at + 13) + value.str() + payload.substr(eol);
    return artifact_to_string(kFrameworkKind, payload);
  }

  // Flips one payload byte inside the container without fixing the CRC.
  static std::string corrupt_artifact(const std::string& artifact) {
    std::string bad = artifact;
    const std::size_t at = bad.find("tp_threshold");
    bad[at] = 'T';
    return bad;
  }

  static std::string* artifact_;
  fs::path dir_;
};

std::string* RegistryTest::artifact_ = nullptr;

TEST_F(RegistryTest, FilenameRoundTripsAndRejectsGarbage) {
  EXPECT_EQ(ModelRegistry::artifact_filename("AES-Syn-1", 3),
            "AES-Syn-1@3.m3dfl");
  std::string design;
  std::int32_t version = 0;
  ASSERT_TRUE(ModelRegistry::parse_artifact_filename("AES-Syn-1@3.m3dfl",
                                                     &design, &version));
  EXPECT_EQ(design, "AES-Syn-1");
  EXPECT_EQ(version, 3);
  EXPECT_FALSE(ModelRegistry::parse_artifact_filename("README.md", nullptr,
                                                      nullptr));
  EXPECT_FALSE(
      ModelRegistry::parse_artifact_filename("noversion.m3dfl", nullptr,
                                             nullptr));
  EXPECT_FALSE(
      ModelRegistry::parse_artifact_filename("a@0.m3dfl", nullptr, nullptr));
  EXPECT_FALSE(
      ModelRegistry::parse_artifact_filename("a@x.m3dfl", nullptr, nullptr));
  EXPECT_FALSE(
      ModelRegistry::parse_artifact_filename("@3.m3dfl", nullptr, nullptr));
  EXPECT_THROW(ModelRegistry::artifact_filename("has/slash", 1), Error);
  EXPECT_EQ(registry::sanitize_model_name("AES/Syn-1"), "AES-Syn-1");
  EXPECT_EQ(registry::sanitize_model_name("ok_name.v2"), "ok_name.v2");
}

// ParseLimits guardrails: registry filenames come from directory listings
// (untrusted once an attacker can drop files in the registry dir) and from
// design names (untrusted via the serving API).  Both directions are capped
// at max_filename_bytes so no filesystem ever sees an over-long name.
TEST_F(RegistryTest, FilenameLimitsAreEnforcedBothWays) {
  const std::size_t cap = ParseLimits::defaults().max_filename_bytes;
  // Listing direction: a filename over the cap is filtered, not parsed.
  const std::string overlong = std::string(cap, 'a') + "@1.m3dfl";
  EXPECT_FALSE(
      ModelRegistry::parse_artifact_filename(overlong, nullptr, nullptr));
  // Composing direction: a design name that cannot fit with "@V.m3dfl"
  // attached throws a cited Error instead of emitting a bad filename.
  try {
    ModelRegistry::artifact_filename(std::string(cap, 'a'), 1);
    FAIL() << "over-long design name accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("registry artifact filename"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("limit exceeded: filename bytes"), std::string::npos)
        << msg;
  }
  // sanitize_model_name bounds its output so sanitized names always compose.
  const std::string sanitized =
      registry::sanitize_model_name(std::string(1000, 'x'));
  EXPECT_LE(sanitized.size(), cap / 2);
  EXPECT_EQ(ModelRegistry::artifact_filename(sanitized, 1),
            sanitized + "@1.m3dfl");
  // Path separators never survive into a filename, so a traversal attempt
  // stays a flat (if ugly) name inside the registry directory.
  EXPECT_EQ(registry::sanitize_model_name("../../etc/passwd"),
            "..-..-etc-passwd");
}

TEST_F(RegistryTest, LazyLoadThenResidentHits) {
  publish("aes", 1, *artifact_);
  publish("tate", 1, *artifact_);
  ModelRegistry registry(dir_.string());
  EXPECT_EQ(registry.designs().size(), 2u);
  EXPECT_EQ(registry.loads(), 0);  // index only; nothing read yet
  EXPECT_EQ(registry.resident_count(), 0u);

  const auto model = registry.acquire("aes");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->design, "aes");
  EXPECT_EQ(model->version, 1);
  EXPECT_EQ(model->generation, 1u);
  EXPECT_TRUE(model->framework.trained());
  EXPECT_EQ(registry.loads(), 1);
  EXPECT_EQ(registry.resident_count(), 1u);
  EXPECT_EQ(registry.resident_bytes(), artifact_->size());

  const auto again = registry.acquire("aes");
  EXPECT_EQ(again.get(), model.get());  // same resident instance
  EXPECT_EQ(registry.loads(), 1);
  EXPECT_EQ(registry.hits(), 1);
}

TEST_F(RegistryTest, LatestVersusPinnedVersion) {
  const std::string v2 = variant_artifact(0.75);
  publish("aes", 1, *artifact_);
  publish("aes", 3, v2);
  ModelRegistry registry(dir_.string());
  EXPECT_EQ(registry.versions("aes"), (std::vector<std::int32_t>{1, 3}));
  EXPECT_TRUE(registry.has("aes", 3));
  EXPECT_FALSE(registry.has("aes", 2));

  EXPECT_EQ(registry.acquire("aes")->version, 3);  // latest
  EXPECT_EQ(registry.acquire("aes", 1)->version, 1);
  EXPECT_THROW(registry.acquire("aes", 2), Error);
  EXPECT_THROW(registry.acquire("unknown"), Error);
}

TEST_F(RegistryTest, ImplicitRescanFindsNewlyPublishedModels) {
  publish("aes", 1, *artifact_);
  ModelRegistry registry(dir_.string());
  EXPECT_THROW(registry.acquire("tate"), Error);
  publish("tate", 1, *artifact_);
  EXPECT_EQ(registry.acquire("tate")->design, "tate");  // rescan on miss
  publish("aes", 2, variant_artifact(0.75));
  EXPECT_EQ(registry.acquire("aes", 2)->version, 2);
}

TEST_F(RegistryTest, ByteWatermarkEvictionNeverInvalidatesLiveReaders) {
  publish("a", 1, *artifact_);
  publish("b", 1, *artifact_);
  publish("c", 1, *artifact_);
  RegistryOptions options;
  // Room for two resident models, not three.
  options.max_resident_bytes = artifact_->size() * 2 + artifact_->size() / 2;
  ModelRegistry registry(dir_.string(), options);

  const auto a = registry.acquire("a");
  const auto b = registry.acquire("b");
  EXPECT_EQ(registry.resident_count(), 2u);
  const auto c = registry.acquire("c");  // evicts "a" (LRU)
  EXPECT_EQ(registry.evictions(), 1);
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_LE(registry.resident_bytes(), options.max_resident_bytes);

  // The evicted model stays fully usable through the reader's shared_ptr.
  EXPECT_TRUE(a->framework.trained());
  EXPECT_EQ(a->design, "a");

  // Re-acquiring the evicted model is a fresh load under a new generation.
  const auto a2 = registry.acquire("a");
  EXPECT_NE(a2.get(), a.get());
  EXPECT_GT(a2->generation, c->generation);
  EXPECT_EQ(registry.loads(), 4);
}

TEST_F(RegistryTest, EvictionKeepsTheJustAcquiredModel) {
  publish("a", 1, *artifact_);
  publish("b", 1, *artifact_);
  RegistryOptions options;
  options.max_resident_bytes = 1;  // below even a single artifact
  ModelRegistry registry(dir_.string(), options);
  const auto a = registry.acquire("a");
  EXPECT_EQ(registry.resident_count(), 1u);  // keep_key survives over-budget
  const auto b = registry.acquire("b");
  EXPECT_EQ(b->design, "b");
  EXPECT_EQ(registry.resident_count(), 1u);  // "a" evicted, "b" kept
  EXPECT_EQ(registry.evictions(), 1);
  EXPECT_TRUE(a->framework.trained());
}

TEST_F(RegistryTest, AtomicReplacementHotReloadsUnderNewGeneration) {
  publish("aes", 1, *artifact_);
  ModelRegistry registry(dir_.string());
  const auto before = registry.acquire("aes");
  EXPECT_EQ(before->generation, 1u);

  publish("aes", 1, variant_artifact(0.75));  // atomic rename-replace
  const auto after = registry.acquire("aes");
  EXPECT_EQ(after->generation, 2u);
  EXPECT_NE(after.get(), before.get());
  EXPECT_DOUBLE_EQ(after->framework.tp_threshold(), 0.75);
  EXPECT_EQ(registry.reloads(), 1);
  // The displaced model is still alive for its in-flight readers.
  EXPECT_TRUE(before->framework.trained());
}

TEST_F(RegistryTest, CorruptReplacementIsRejectedAndOldModelKeepsServing) {
  publish("aes", 1, *artifact_);
  ModelRegistry registry(dir_.string());
  const auto before = registry.acquire("aes");

  publish("aes", 1, corrupt_artifact(variant_artifact(0.75)));
  const auto after = registry.acquire("aes");
  EXPECT_EQ(after.get(), before.get());  // old generation keeps serving
  EXPECT_EQ(after->generation, 1u);
  EXPECT_EQ(registry.reload_failures(), 1);
  EXPECT_EQ(registry.reloads(), 0);
  EXPECT_EQ(registry.generation(), 1u);  // corrupt loads never take a gen

  // Publishing a good artifact afterwards recovers on the next acquire.
  publish("aes", 1, variant_artifact(0.5));
  EXPECT_EQ(registry.acquire("aes")->generation, 2u);
  EXPECT_EQ(registry.reloads(), 1);
}

TEST_F(RegistryTest, CorruptFirstLoadThrows) {
  publish("aes", 1, corrupt_artifact(*artifact_));
  ModelRegistry registry(dir_.string());
  EXPECT_THROW(registry.acquire("aes"), Error);
  EXPECT_EQ(registry.loads(), 0);
  EXPECT_EQ(registry.generation(), 0u);
}

TEST_F(RegistryTest, LegacyFormat1FilesAreRejectedWithMigrationHint) {
  // A bare version-1 stream is exactly the container's payload.
  publish("aes", 1, read_artifact(*artifact_, kFrameworkKind, "<test>"));
  ModelRegistry registry(dir_.string());
  try {
    registry.acquire("aes");
    FAIL() << "expected format-1 rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("migrate-artifact"),
              std::string::npos)
        << e.what();
  }
  // The migrated form (what `m3dfl_tool migrate-artifact` writes) is
  // accepted.
  publish("aes", 1,
          migrate_artifact(read_artifact(*artifact_, kFrameworkKind, "<test>"),
                           "<legacy>")
              .bytes);
  EXPECT_EQ(registry.acquire("aes")->generation, 1u);
}

TEST_F(RegistryTest, InjectedLoadFaultFailsReloadButNotTheOldModel) {
  publish("aes", 1, *artifact_);
  RegistryOptions options;
  options.fault_injector =
      std::make_shared<FaultInjector>(registry::kNumRegistrySeams, 0xF00D);
  // Exactly the second load call (the reload) fails.
  options.fault_injector->arm_nth(
      registry::RegistrySeam::kLoad, {2});
  ModelRegistry registry(dir_.string(), options);
  const auto before = registry.acquire("aes");
  publish("aes", 1, variant_artifact(0.75));
  EXPECT_EQ(registry.acquire("aes").get(), before.get());  // injected fail
  EXPECT_EQ(registry.reload_failures(), 1);
  EXPECT_EQ(registry.acquire("aes")->generation, 2u);  // next acquire heals
}

TEST_F(RegistryTest, ConcurrentAcquireAndReloadStaysConsistent) {
  publish("aes", 1, *artifact_);
  publish("tate", 1, *artifact_);
  ModelRegistry registry(dir_.string());
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> observed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::string design = (t % 2 == 0) ? "aes" : "tate";
      while (!stop.load(std::memory_order_relaxed)) {
        const auto model = registry.acquire(design);
        if (model->framework.trained()) {
          observed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Replace both artifacts a few times while readers hammer acquire().
  for (const double threshold : {0.75, 0.5, 0.75}) {
    publish("aes", 1, variant_artifact(threshold));
    publish("tate", 1, variant_artifact(threshold));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(observed.load(), 0);
  EXPECT_GE(registry.reloads(), 2);
  EXPECT_EQ(registry.reload_failures(), 0);
  EXPECT_EQ(registry.generation(),
            static_cast<std::uint64_t>(registry.loads() + registry.reloads()));
}

}  // namespace
}  // namespace m3dfl
