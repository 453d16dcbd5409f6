// m3dfl::lint — whole-pipeline static analysis.
//
// Convenience entry points over the check engine (lint/checks.h) for the
// artifact bundles the pipeline actually passes around: a prepared Design,
// a (design, failure log) pair, a trained framework, training subgraphs, and
// raw MNL netlist text.  Each returns a Report of diagnostics; an empty
// report (or one with only warnings/notes, depending on the caller's
// threshold) means the artifact is fit for the next pipeline stage.
//
// These are the functions the three surfacings call:
//  * `m3dfl_tool lint`          — CLI, human or JSON output;
//  * training preflight         — core/checkpoint.h rejects poisoned
//                                 datasets before the expensive phases;
//  * serve admission            — serve/service.h rejects broken designs
//                                 with StatusCode::kLintRejected.
#ifndef M3DFL_LINT_LINT_H_
#define M3DFL_LINT_LINT_H_

#include <span>
#include <string>

#include "lint/checks.h"
#include "lint/diagnostic.h"

namespace m3dfl {
class Design;
class DiagnosisFramework;
}  // namespace m3dfl

namespace m3dfl::lint {

// Lints every artifact of a prepared design: netlist structure, tier
// assignment, MIV map, scan/compaction architecture, and the heterogeneous
// graph (including the Topedge recomputation cross-check).
Report lint_design(const Design& design);

// Lints a failure log against the design it claims to describe (modes,
// ranges, observation-point existence, duplicates).  Subsumes the historical
// serve::validate_failure_log.
Report lint_failure_log(const Design& design, const FailureLog& log);

// Lints a trained framework for internal consistency; with a design,
// additionally checks model/design compatibility.
Report lint_model(const DiagnosisFramework& model,
                  const Design* design = nullptr);

// Lints one subgraph's feature matrix.  `scope` prefixes locations (e.g.
// "sample 12, ") so dataset-level reports cite the poisoned element.
Report lint_subgraph(const Subgraph& subgraph, std::string scope = {});

// Lints every sample of a training set (the train preflight).
Report lint_training_set(std::span<const Subgraph> graphs);

// Scans MNL text with read_mnl()'s scanner and limits, and lints the
// netlist structure.  Unlike read_mnl(), this diagnoses *all* defects (bad
// lines, multi-driver, undriven, arity, loops) with file:line locations
// instead of throwing on the first; it never throws.
Report lint_mnl(const std::string& text, const std::string& source);

}  // namespace m3dfl::lint

#endif  // M3DFL_LINT_LINT_H_
