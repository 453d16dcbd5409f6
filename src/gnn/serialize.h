// Model persistence.
//
// A trained framework is the asset the paper's flow reuses across netlists
// ("reusing pretrained models on new netlists significantly reduces the
// runtime for diagnosis"), so it must survive a process restart — and a torn
// or bit-rotted artifact must be *detected*, not silently served.  Two
// layers:
//
//   * the payload: a line-oriented text stream ("m3dfl-model 1 <kind>") with
//     hex-float parameters, giving byte-exact round trips without binary
//     portability concerns;
//   * the container: the versioned, CRC32-checksummed envelope of
//     util/artifact.h that save_model() wraps the payload in.
//
// load_* accepts only the container and throws m3dfl::Error with
// offset-cited diagnostics on truncation, corruption, or version/kind
// mismatches.  A bare pre-container payload (format 1) is rejected with a
// hint naming `m3dfl_tool migrate-artifact` (core/framework.h
// migrate_artifact), which wraps it.
#ifndef M3DFL_GNN_SERIALIZE_H_
#define M3DFL_GNN_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "gnn/matrix.h"
#include "gnn/model.h"

namespace m3dfl {

// Artifact kinds for the three model containers.
inline constexpr const char* kTierPredictorKind = "tier-predictor";
inline constexpr const char* kMivPinpointerKind = "miv-pinpointer";
inline constexpr const char* kPruneClassifierKind = "prune-classifier";

// Matrix payloads (shape header + hex-float values).
void save_matrix(std::ostream& os, const Matrix& m);
Matrix load_matrix(std::istream& is);

// Container-wrapped model artifacts; load_* throws m3dfl::Error on a
// checksum, version, kind, or shape mismatch.  `source` names the stream in
// diagnostics (pass the file path when loading from a file).
void save_model(std::ostream& os, const TierPredictor& model);
void save_model(std::ostream& os, const MivPinpointer& model);
void save_model(std::ostream& os, const PruneClassifier& model);
TierPredictor load_tier_predictor(std::istream& is,
                                  const std::string& source = "<stream>");
MivPinpointer load_miv_pinpointer(std::istream& is,
                                  const std::string& source = "<stream>");
// The classifier embeds its own frozen encoder copy, so loading does not
// need the original TierPredictor weights — only a shape-compatible host.
PruneClassifier load_prune_classifier(std::istream& is,
                                      const TierPredictor& host,
                                      const std::string& source = "<stream>");

// Bare-payload readers ("m3dfl-model 1 <kind>" onward), used for model
// sections embedded inside a larger artifact (frameworks, checkpoints).
// They consume exactly one model from the stream.
TierPredictor read_tier_predictor_payload(std::istream& is,
                                          const std::string& source);
MivPinpointer read_miv_pinpointer_payload(std::istream& is,
                                          const std::string& source);
PruneClassifier read_prune_classifier_payload(std::istream& is,
                                              const TierPredictor& host,
                                              const std::string& source);

// Convenience string round trips (used by tests and the examples).
std::string tier_predictor_to_string(const TierPredictor& model);
TierPredictor tier_predictor_from_string(const std::string& text);

}  // namespace m3dfl

#endif  // M3DFL_GNN_SERIALIZE_H_
