#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "gnn/serialize.h"
#include "gnn/trainer.h"
#include "util/artifact.h"

namespace m3dfl {
namespace {

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
  if (n > 2) {
    sg.miv_local = {2};
    sg.miv_ids = {0};
    sg.miv_label = {static_cast<std::int8_t>(label)};
  }
  return sg;
}

GcnModelConfig small_config() {
  GcnModelConfig config;
  config.hidden = 8;
  config.num_layers = 2;
  return config;
}

TEST(SerializeTest, MatrixRoundTripIsExact) {
  Rng rng(3);
  Matrix m(4, 7);
  for (float& x : m.data()) x = static_cast<float>(rng.next_gaussian());
  std::stringstream ss;
  save_matrix(ss, m);
  const Matrix back = load_matrix(ss);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (std::int32_t i = 0; i < m.rows(); ++i) {
    for (std::int32_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(back.at(i, j), m.at(i, j));  // bit-exact via hexfloat
    }
  }
}

TEST(SerializeTest, TierPredictorRoundTripPreservesPredictions) {
  Rng rng(5);
  std::vector<Subgraph> train;
  for (int i = 0; i < 20; ++i) train.push_back(toy_graph(rng, i % 2));
  TierPredictor model(small_config());
  TrainOptions opt;
  opt.epochs = 30;
  train_tier_predictor(model, train, opt);

  const TierPredictor restored =
      tier_predictor_from_string(tier_predictor_to_string(model));
  for (const Subgraph& g : train) {
    const NormalizedAdjacency adj = subgraph_adjacency(g);
    const auto a = model.predict(g, adj);
    const auto b = restored.predict(g, adj);
    EXPECT_DOUBLE_EQ(a[0], b[0]);
    EXPECT_DOUBLE_EQ(a[1], b[1]);
  }
}

TEST(SerializeTest, MivPinpointerRoundTrip) {
  Rng rng(6);
  std::vector<Subgraph> train;
  for (int i = 0; i < 20; ++i) train.push_back(toy_graph(rng, i % 2));
  MivPinpointer model(small_config());
  TrainOptions opt;
  opt.epochs = 30;
  train_miv_pinpointer(model, train, opt);

  std::stringstream ss;
  save_model(ss, model);
  const MivPinpointer restored = load_miv_pinpointer(ss);
  for (const Subgraph& g : train) {
    const NormalizedAdjacency adj = subgraph_adjacency(g);
    const auto a = model.predict(g, adj);
    const auto b = restored.predict(g, adj);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(SerializeTest, PruneClassifierRoundTrip) {
  Rng rng(7);
  std::vector<Subgraph> graphs;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    graphs.push_back(toy_graph(rng, i % 2));
    labels.push_back(i % 2);
  }
  TierPredictor pretrained(small_config());
  TrainOptions opt;
  opt.epochs = 20;
  train_tier_predictor(pretrained, graphs, opt);
  PruneClassifier classifier(pretrained, small_config());
  train_prune_classifier(classifier, graphs, labels, opt);

  std::stringstream ss;
  save_model(ss, classifier);
  const PruneClassifier restored = load_prune_classifier(ss, pretrained);
  for (const Subgraph& g : graphs) {
    const NormalizedAdjacency adj = subgraph_adjacency(g);
    EXPECT_DOUBLE_EQ(classifier.predict_prune_prob(g, adj),
                     restored.predict_prune_prob(g, adj));
  }
}

TEST(SerializeTest, FrameworkRoundTripPreservesBehaviour) {
  Rng rng(9);
  std::vector<Subgraph> train;
  for (int i = 0; i < 30; ++i) train.push_back(toy_graph(rng, i % 2));
  FrameworkOptions options;
  options.model = small_config();
  options.training.epochs = 30;
  DiagnosisFramework framework(options);
  framework.train(train);

  std::stringstream ss;
  framework.save(ss);
  DiagnosisFramework restored(options);
  restored.load(ss);
  EXPECT_TRUE(restored.trained());
  EXPECT_DOUBLE_EQ(restored.tp_threshold(), framework.tp_threshold());
  for (const Subgraph& g : train) {
    const NormalizedAdjacency adj = subgraph_adjacency(g);
    const FrameworkPrediction a = framework.predict(g, adj);
    const FrameworkPrediction b = restored.predict(g, adj);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_DOUBLE_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.high_confidence, b.high_confidence);
    EXPECT_EQ(a.faulty_mivs, b.faulty_mivs);
  }
}

TEST(SerializeTest, UntrainedFrameworkRefusesToSave) {
  DiagnosisFramework framework;
  std::stringstream ss;
  EXPECT_THROW(framework.save(ss), Error);
}

TEST(SerializeTest, RejectsWrongModelType) {
  Rng rng(8);
  TierPredictor model(small_config());
  std::stringstream ss;
  save_model(ss, model);
  EXPECT_THROW(load_miv_pinpointer(ss), Error);
}

TEST(SerializeTest, RejectsTruncatedStream) {
  TierPredictor model(small_config());
  std::string text = tier_predictor_to_string(model);
  text.resize(text.size() / 2);
  EXPECT_THROW(tier_predictor_from_string(text), Error);
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_THROW(tier_predictor_from_string("not a model"), Error);
}

// ---- Container property tests -----------------------------------------------

template <typename SaveFn>
std::string saved_string(const SaveFn& save) {
  std::ostringstream os;
  save(os);
  return os.str();
}

// save -> load -> save must be byte-identical: the artifact *is* the model,
// so any drift through a round trip would silently fork the two.
TEST(SerializeTest, TierPredictorSaveLoadSaveIsByteIdentical) {
  TierPredictor model(small_config());
  const std::string first = tier_predictor_to_string(model);
  const std::string second =
      tier_predictor_to_string(tier_predictor_from_string(first));
  EXPECT_EQ(first, second);
}

TEST(SerializeTest, MivPinpointerSaveLoadSaveIsByteIdentical) {
  MivPinpointer model(small_config());
  const std::string first =
      saved_string([&](std::ostream& os) { save_model(os, model); });
  std::istringstream is(first);
  const MivPinpointer restored = load_miv_pinpointer(is);
  const std::string second =
      saved_string([&](std::ostream& os) { save_model(os, restored); });
  EXPECT_EQ(first, second);
}

TEST(SerializeTest, PruneClassifierSaveLoadSaveIsByteIdentical) {
  TierPredictor host(small_config());
  PruneClassifier model(host, small_config());
  const std::string first =
      saved_string([&](std::ostream& os) { save_model(os, model); });
  std::istringstream is(first);
  const PruneClassifier restored = load_prune_classifier(is, host);
  const std::string second =
      saved_string([&](std::ostream& os) { save_model(os, restored); });
  EXPECT_EQ(first, second);
}

// Every single-byte corruption of a saved artifact must be rejected:
// exhaustively over every byte offset (header and trailer bytes fail
// structurally, payload bytes fail the CRC), and with several corruption
// values per offset sampled deterministically.
TEST(SerializeTest, EverySingleByteCorruptionIsDetected) {
  TierPredictor model(small_config());
  const std::string good = tier_predictor_to_string(model);
  ASSERT_TRUE(is_artifact(good));
  Rng rng(0xC0DE);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    // A flip to an arbitrary different value plus the classic single-bit
    // flip at this offset.
    const char flip = static_cast<char>(
        static_cast<unsigned char>(bad[i]) ^
        static_cast<unsigned char>(1 + rng.next_below(255)));
    bad[i] = flip;
    EXPECT_THROW(tier_predictor_from_string(bad), Error)
        << "corruption at byte " << i << " was not detected";
    std::string bit = good;
    bit[i] = static_cast<char>(static_cast<unsigned char>(bit[i]) ^ 0x01);
    EXPECT_THROW(tier_predictor_from_string(bit), Error)
        << "bit flip at byte " << i << " was not detected";
  }
}

// Every proper prefix of an artifact is a truncation and must be rejected —
// including dropping only the final newline.
TEST(SerializeTest, EveryTruncationIsDetected) {
  TierPredictor model(small_config());
  const std::string good = tier_predictor_to_string(model);
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(tier_predictor_from_string(good.substr(0, len)), Error)
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST(SerializeTest, RejectsTrailingGarbageAfterTrailer) {
  TierPredictor model(small_config());
  const std::string good = tier_predictor_to_string(model);
  EXPECT_THROW(tier_predictor_from_string(good + "x"), Error);
  EXPECT_THROW(tier_predictor_from_string(good + "\n"), Error);
}

DiagnosisFramework trained_framework(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Subgraph> train;
  for (int i = 0; i < 20; ++i) train.push_back(toy_graph(rng, i % 2));
  FrameworkOptions options;
  options.model = small_config();
  options.training.epochs = 10;
  DiagnosisFramework framework(options);
  framework.train(train);
  return framework;
}

std::string framework_to_string(const DiagnosisFramework& framework) {
  std::ostringstream os;
  framework.save(os);
  return os.str();
}

// Format 1 is the container's bare payload, from before the container.
std::string format1(const std::string& container, const std::string& kind) {
  return read_artifact(container, kind, "<test>");
}

// The load path knows only the container; a bare format-1 stream is
// rejected with a hint naming the migration command.
TEST(SerializeTest, FormatOneStreamsAreRejectedWithMigrationHint) {
  const auto expect_hint = [](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "format-1 stream accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("m3dfl_tool migrate-artifact"),
                std::string::npos)
          << e.what();
    }
  };
  TierPredictor tier(small_config());
  const std::string tier_text =
      format1(tier_predictor_to_string(tier), kTierPredictorKind);
  ASSERT_EQ(tier_text.rfind("m3dfl-model 1 tier-predictor", 0), 0u);
  expect_hint([&] { tier_predictor_from_string(tier_text); });

  std::ostringstream miv;
  save_model(miv, MivPinpointer(small_config()));
  expect_hint([&] {
    std::istringstream is(format1(miv.str(), kMivPinpointerKind));
    load_miv_pinpointer(is);
  });

  std::ostringstream prune;
  save_model(prune, PruneClassifier(tier, small_config()));
  expect_hint([&] {
    std::istringstream is(format1(prune.str(), kPruneClassifierKind));
    load_prune_classifier(is, tier);
  });

  const std::string framework = format1(
      framework_to_string(trained_framework(11)), kFrameworkKind);
  ASSERT_EQ(framework.rfind("m3dfl-framework 1", 0), 0u);
  expect_hint([&] {
    std::istringstream is(framework);
    DiagnosisFramework restored;
    restored.load(is);
  });
}

// migrate_artifact converts every standalone format-1 kind into exactly the
// container save() writes, so the migrated file loads and re-saves
// byte-identically.
TEST(SerializeTest, MigrateArtifactConvertsFormatOneStreams) {
  TierPredictor tier(small_config());
  std::ostringstream miv;
  save_model(miv, MivPinpointer(small_config()));
  const std::vector<std::pair<std::string, std::string>> containers = {
      {kFrameworkKind, framework_to_string(trained_framework(11))},
      {kTierPredictorKind, tier_predictor_to_string(tier)},
      {kMivPinpointerKind, miv.str()},
  };
  for (const auto& [kind, container] : containers) {
    const MigratedArtifact migrated =
        migrate_artifact(format1(container, kind), "<legacy>");
    EXPECT_TRUE(migrated.converted) << kind;
    EXPECT_EQ(migrated.kind, kind);
    EXPECT_EQ(migrated.bytes, container) << kind;
  }
  std::istringstream is(
      migrate_artifact(format1(containers[0].second, kFrameworkKind), "<x>")
          .bytes);
  DiagnosisFramework restored;
  restored.load(is);
  EXPECT_EQ(framework_to_string(restored), containers[0].second);
}

TEST(SerializeTest, MigrateArtifactValidatesAndCopiesContainers) {
  TierPredictor tier(small_config());
  const std::string framework = framework_to_string(trained_framework(12));
  for (const std::string& container :
       {framework, tier_predictor_to_string(tier)}) {
    const MigratedArtifact copied = migrate_artifact(container, "<x>");
    EXPECT_FALSE(copied.converted);
    EXPECT_EQ(copied.bytes, container);
  }
  std::ostringstream prune;
  save_model(prune, PruneClassifier(tier, small_config()));
  EXPECT_EQ(migrate_artifact(prune.str(), "<x>").kind, kPruneClassifierKind);

  // A torn or bit-rotted container is rejected, not copied.
  std::string flipped = framework;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_THROW(migrate_artifact(flipped, "<x>"), Error);
  EXPECT_THROW(migrate_artifact(framework.substr(0, 100), "<x>"), Error);
  // A bare prune classifier needs its host encoder; unknown bytes are
  // neither format.
  EXPECT_THROW(
      migrate_artifact(format1(prune.str(), kPruneClassifierKind), "<x>"),
      Error);
  EXPECT_THROW(migrate_artifact("m3dfl-model 1 widget\n", "<x>"), Error);
  EXPECT_THROW(migrate_artifact("hello\n", "<x>"), Error);
}

TEST(SerializeTest, FrameworkSaveLoadSaveIsByteIdentical) {
  Rng rng(12);
  std::vector<Subgraph> train;
  for (int i = 0; i < 20; ++i) train.push_back(toy_graph(rng, i % 2));
  FrameworkOptions options;
  options.model = small_config();
  options.training.epochs = 10;
  DiagnosisFramework framework(options);
  framework.train(train);

  std::ostringstream first;
  framework.save(first);
  std::istringstream is(first.str());
  DiagnosisFramework restored(options);
  restored.load(is);
  std::ostringstream second;
  restored.save(second);
  EXPECT_EQ(first.str(), second.str());
}

// Error messages must identify the source and what went wrong, so a bad
// artifact in production names itself.
TEST(SerializeTest, ErrorsCiteSourceAndVersions) {
  TierPredictor model(small_config());
  std::string text = tier_predictor_to_string(model);
  const auto pos = text.find(" 2 ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = '7';  // future format version
  std::istringstream is(text);
  try {
    load_tier_predictor(is, "model.m3dfl");
    FAIL() << "future version accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("model.m3dfl"), std::string::npos) << what;
    EXPECT_NE(what.find("2"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;
  }
}

// ---- ParseLimits guardrails (util/limits.h) ---------------------------------

std::string artifact_error(std::string_view text, const std::string& kind,
                           const ParseLimits& limits = {}) {
  try {
    read_artifact(text, kind, "<test>", limits);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "adversarial artifact accepted";
  return {};
}

// A declared matrix shape is adversarial input: "matrix 60000 60000" is
// 14 GB of floats.  The loader must reject at the policy cap before sizing
// the Matrix — under ASan in CI an accidental revert OOMs instead of failing
// this string match.
TEST(SerializeLimitsTest, MatrixShapeBombRejectsBeforeAllocating) {
  TierPredictor model(small_config());
  std::string bare =
      read_artifact(tier_predictor_to_string(model), kTierPredictorKind,
                    "<test>");
  const auto pos = bare.find("matrix ");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = bare.find('\n', pos);
  bare.replace(pos, eol - pos, "matrix 60000 60000");
  try {
    // Re-wrapped, so the container CRC holds and the shape reaches the
    // payload parser.
    tier_predictor_from_string(artifact_to_string(kTierPredictorKind, bare));
    FAIL() << "matrix shape bomb accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("matrix shape 60000 x 60000"), std::string::npos)
        << what;
    EXPECT_NE(what.find("limit exceeded: matrix cells"), std::string::npos)
        << what;
  }
}

// The container reader must validate the declared payload length against the
// cap and the remaining bytes *before* using it in any offset arithmetic —
// 2^64-1 would otherwise wrap `payload_size + 1` to zero and pass the
// bounds check it was supposed to fail.
TEST(SerializeLimitsTest, DeclaredPayloadBytesCapCited) {
  for (const char* declared :
       {"999999999999999999", "18446744073709551615"}) {
    std::string text = artifact_to_string("fuzz-blob", "hello");
    const auto pos = text.find("payload-bytes 5");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("payload-bytes 5").size(),
                 std::string("payload-bytes ") + declared);
    const std::string msg = artifact_error(text, "fuzz-blob");
    EXPECT_NE(msg.find("<test>: artifact byte"), std::string::npos) << msg;
    EXPECT_NE(msg.find("limit exceeded: declared payload bytes"),
              std::string::npos)
        << msg;
  }
}

TEST(SerializeLimitsTest, ContainerByteCapCited) {
  ParseLimits limits;
  limits.max_file_bytes = 16;
  const std::string text = artifact_to_string("fuzz-blob", "payload payload");
  ASSERT_GT(text.size(), limits.max_file_bytes);
  const std::string msg = artifact_error(text, "fuzz-blob", limits);
  EXPECT_NE(msg.find("<test>: artifact byte 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("limit exceeded: container bytes"), std::string::npos)
      << msg;
}

// Satellite of the fuzzing subsystem: every truncation of a well-formed
// container must reject with an offset-cited Error — never crash, read out
// of bounds, or fail through any other exception type.
TEST(SerializeLimitsTest, ArtifactTruncationAtEveryByteIsCited) {
  const std::string good = artifact_to_string("fuzz-blob", "the payload");
  for (std::size_t len = 0; len < good.size(); ++len) {
    try {
      read_artifact(good.substr(0, len), "fuzz-blob", "<test>");
      ADD_FAILURE() << "truncation to " << len << " bytes accepted";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("<test>: artifact byte"), std::string::npos)
          << "truncation to " << len << " bytes: " << msg;
    }
  }
}

}  // namespace
}  // namespace m3dfl
