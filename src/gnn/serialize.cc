#include "gnn/serialize.h"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/artifact.h"
#include "util/error.h"
#include "util/limits.h"

namespace m3dfl {
namespace {

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  M3DFL_REQUIRE(token == expected, "model stream: expected '" + expected +
                                       "', got '" + token + "'");
}

void save_config(std::ostream& os, const GcnModelConfig& config) {
  os << "config " << config.in_dim << " " << config.hidden << " "
     << config.num_layers << " " << config.classes << " " << config.seed
     << "\n";
}

GcnModelConfig load_config(std::istream& is) {
  expect_token(is, "config");
  GcnModelConfig config;
  is >> config.in_dim >> config.hidden >> config.num_layers >>
      config.classes >> config.seed;
  M3DFL_REQUIRE(is.good(), "model stream: truncated config");
  return config;
}

}  // namespace

void save_matrix(std::ostream& os, const Matrix& m) {
  os << "matrix " << m.rows() << " " << m.cols() << "\n" << std::hexfloat;
  for (std::int32_t i = 0; i < m.rows(); ++i) {
    for (std::int32_t j = 0; j < m.cols(); ++j) {
      os << (j ? " " : "") << m.at(i, j);
    }
    os << "\n";
  }
  os << std::defaultfloat;
}

Matrix load_matrix(std::istream& is) {
  expect_token(is, "matrix");
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  is >> rows >> cols;
  M3DFL_REQUIRE(is.good() && rows >= 0 && cols >= 0,
                "model stream: bad matrix shape");
  // The declared shape sizes the allocation below, so it is validated
  // against the policy cap first: "matrix 60000 60000" is 14 GB of floats.
  const std::int64_t cells =
      static_cast<std::int64_t>(rows) * static_cast<std::int64_t>(cols);
  const std::int64_t cap = ParseLimits::defaults().max_matrix_cells;
  if (cells > cap) {
    throw Error("model stream: matrix shape " + std::to_string(rows) + " x " +
                std::to_string(cols) + ": " +
                limit_exceeded("matrix cells",
                               static_cast<unsigned long long>(cells),
                               static_cast<unsigned long long>(cap)));
  }
  Matrix m(rows, cols);
  is >> std::hexfloat;
  for (std::int32_t i = 0; i < rows; ++i) {
    for (std::int32_t j = 0; j < cols; ++j) {
      // libstdc++ does not parse hexfloat via operator>>; read the token and
      // convert explicitly for exact round trips.
      std::string token;
      is >> token;
      M3DFL_REQUIRE(!token.empty(), "model stream: truncated matrix");
      m.at(i, j) = std::strtof(token.c_str(), nullptr);
    }
  }
  M3DFL_REQUIRE(!is.fail(), "model stream: truncated matrix payload");
  return m;
}

// ---- Layer payloads (members of the layer classes) --------------------------

void GcnLayer::save(std::ostream& os) const {
  save_matrix(os, weight_);
  save_matrix(os, bias_);
}

void GcnLayer::load(std::istream& is) {
  const Matrix w = load_matrix(is);
  const Matrix b = load_matrix(is);
  M3DFL_REQUIRE(w.rows() == weight_.rows() && w.cols() == weight_.cols() &&
                    b.cols() == bias_.cols(),
                "model stream: GCN layer shape mismatch");
  weight_ = w;
  bias_ = b;
}

void DenseLayer::save(std::ostream& os) const {
  save_matrix(os, weight_);
  save_matrix(os, bias_);
}

void DenseLayer::load(std::istream& is) {
  const Matrix w = load_matrix(is);
  const Matrix b = load_matrix(is);
  M3DFL_REQUIRE(w.rows() == weight_.rows() && w.cols() == weight_.cols() &&
                    b.cols() == bias_.cols(),
                "model stream: dense layer shape mismatch");
  weight_ = w;
  bias_ = b;
}

void GcnEncoder::save(std::ostream& os) const {
  os << "encoder " << layers_.size() << "\n";
  for (const GcnLayer& layer : layers_) layer.save(os);
}

void GcnEncoder::load(std::istream& is) {
  expect_token(is, "encoder");
  std::size_t count = 0;
  is >> count;
  M3DFL_REQUIRE(count == layers_.size(),
                "model stream: encoder depth mismatch");
  for (GcnLayer& layer : layers_) layer.load(is);
}

void TierPredictor::save(std::ostream& os) const {
  os << "m3dfl-model 1 tier-predictor\n";
  save_config(os, config_);
  encoder_.save(os);
  head_.save(os);
}

void TierPredictor::load(std::istream& is) {
  encoder_.load(is);
  head_.load(is);
}

void MivPinpointer::save(std::ostream& os) const {
  os << "m3dfl-model 1 miv-pinpointer\n";
  save_config(os, config_);
  encoder_.save(os);
  head_.save(os);
}

void MivPinpointer::load(std::istream& is) {
  encoder_.load(is);
  head_.load(is);
}

void PruneClassifier::save(std::ostream& os) const {
  os << "m3dfl-model 1 prune-classifier\n";
  save_config(os, config_);
  encoder_.save(os);
  hidden_.save(os);
  head_.save(os);
}

void PruneClassifier::load(std::istream& is) {
  encoder_.load(is);
  hidden_.load(is);
  head_.load(is);
}

// ---- Container-level API -----------------------------------------------------

namespace {

GcnModelConfig read_header(std::istream& is, const std::string& type,
                           const std::string& source) {
  std::string token;
  is >> token;
  M3DFL_REQUIRE(token == "m3dfl-model",
                source + ": not a model stream: expected 'm3dfl-model', "
                         "found '" + token + "'");
  is >> token;
  M3DFL_REQUIRE(token == "1",
                source + ": unsupported model format version: expected 1, "
                         "found '" + token + "'");
  is >> token;
  M3DFL_REQUIRE(token == type, source + ": model kind mismatch: expected '" +
                                   type + "', found '" + token + "'");
  return load_config(is);
}

}  // namespace

TierPredictor read_tier_predictor_payload(std::istream& is,
                                          const std::string& source) {
  TierPredictor model(read_header(is, kTierPredictorKind, source));
  model.load(is);
  return model;
}

MivPinpointer read_miv_pinpointer_payload(std::istream& is,
                                          const std::string& source) {
  MivPinpointer model(read_header(is, kMivPinpointerKind, source));
  model.load(is);
  return model;
}

PruneClassifier read_prune_classifier_payload(std::istream& is,
                                              const TierPredictor& host,
                                              const std::string& source) {
  const GcnModelConfig config =
      read_header(is, kPruneClassifierKind, source);
  PruneClassifier model(host, config);
  model.load(is);
  return model;
}

void save_model(std::ostream& os, const TierPredictor& model) {
  std::ostringstream payload;
  model.save(payload);
  write_artifact(os, kTierPredictorKind, payload.str());
}
void save_model(std::ostream& os, const MivPinpointer& model) {
  std::ostringstream payload;
  model.save(payload);
  write_artifact(os, kMivPinpointerKind, payload.str());
}
void save_model(std::ostream& os, const PruneClassifier& model) {
  std::ostringstream payload;
  model.save(payload);
  write_artifact(os, kPruneClassifierKind, payload.str());
}

TierPredictor load_tier_predictor(std::istream& is,
                                  const std::string& source) {
  std::istringstream payload(
      read_artifact(slurp_stream(is), kTierPredictorKind, source));
  return read_tier_predictor_payload(payload, source);
}

MivPinpointer load_miv_pinpointer(std::istream& is,
                                  const std::string& source) {
  std::istringstream payload(
      read_artifact(slurp_stream(is), kMivPinpointerKind, source));
  return read_miv_pinpointer_payload(payload, source);
}

PruneClassifier load_prune_classifier(std::istream& is,
                                      const TierPredictor& host,
                                      const std::string& source) {
  std::istringstream payload(
      read_artifact(slurp_stream(is), kPruneClassifierKind, source));
  return read_prune_classifier_payload(payload, host, source);
}

std::string tier_predictor_to_string(const TierPredictor& model) {
  std::ostringstream os;
  save_model(os, model);
  return os.str();
}

TierPredictor tier_predictor_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_tier_predictor(is);
}

}  // namespace m3dfl
