// m3dfl command-line tool.
//
//   m3dfl_tool generate  <profile> <out.mnl>        elaborate a benchmark netlist
//   m3dfl_tool verilog   <profile> <out.v>          export structural Verilog
//   m3dfl_tool stats     <profile> [config]         design/M3D/DfT statistics
//   m3dfl_tool train     <profile> <model.m3dfl>    train + persist a framework
//                        [--checkpoint-dir=D] [--checkpoint-interval=N]
//                        [--resume] [--train-config=F]
//   m3dfl_tool lint      <profile|file.mnl> [config] static analysis of a
//                        [--log=F] [--model=F]       design, netlist file,
//                        [--json]                    failure log, and/or
//                        [--fail-on=warn|error]      trained model
//   m3dfl_tool analyze   <profile|file.mnl> [config] static timing &
//                        [--json] [--clock-ps=P]     testability analysis:
//                        [--k-paths=N]               slack/WNS/TNS, K longest
//                        [--max-defect-ps=D]         paths, untestable delay
//                                                   faults, fault collapsing,
//                                                   and the timing lint pass
//   m3dfl_tool diagnose  <profile> <model.m3dfl> <die.flog> [config]
//                                                   diagnose one failure log
//   m3dfl_tool inject    <profile> <out.flog>       make a demo failure log
//   m3dfl_tool serve     <profile> <model.m3dfl> <logs> [config] [threads]
//                        [--deadline-ms=N] [--max-retries=N] [--no-degraded]
//                        [--journal-dir=D]           batch-diagnose a directory
//                                                   (or manifest) of logs
//                                                   through the concurrent
//                                                   serving runtime; with a
//                                                   journal dir, requests are
//                                                   crash-safe sessions
//   m3dfl_tool fleet     <registry-dir> <manifest>  multi-tenant serving: route
//                        [--threads=N]              manifest requests to per-
//                        [--max-inflight=N]         design shards over a model
//                        [--version=N]              registry (docs/REGISTRY.md)
//                        [--max-resident-mb=N]
//                        [--journal-dir=D]
//   m3dfl_tool journal   <dir> [--verify|--compact] inspect / verify / compact
//                        [--lifetime-ms=N]          a write-ahead session
//                                                   journal (docs/SERVING.md)
//   m3dfl_tool migrate-artifact <in> <out>          legacy format-1 stream ->
//                                                   checksummed format-2
//                                                   registry artifact
//
// Profiles: aes | tate | netcard | leon3mp.  Configs: syn1|tpi|syn2|par.
//
// Every artifact this tool writes (netlists, failure logs, trained models)
// goes through an atomic temp-file + rename, so a killed run never leaves a
// torn file behind; trained models are additionally wrapped in the
// checksummed artifact container (docs/ARTIFACTS.md).
//
// serve failure semantics: every request resolves with a serve::StatusCode
// (printed per report and totalled at the end); a missing/corrupt model
// stream degrades the whole run to ATPG-only ranking (reports marked
// degraded) instead of aborting.  Exit 0 iff every request ended kOk.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "diag/log_io.h"
#include "diag/noise.h"
#include "diag/stream_backtrace.h"
#include "gnn/serialize.h"
#include "graph/backtrace.h"
#include "lint/lint.h"
#include "netlist/verilog_io.h"
#include "lint/checks.h"
#include "registry/registry.h"
#include "serve/fleet.h"
#include "serve/service.h"
#include "serve/session.h"
#include "sta/collapse.h"
#include "sta/lint_bridge.h"
#include "sta/sta.h"
#include "util/artifact.h"
#include "util/atomic_file.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace m3dfl;

namespace {

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  M3DFL_REQUIRE(is.good(), "cannot open '" + path + "' for reading");
  return is;
}

int cmd_generate(const std::string& profile, const std::string& path) {
  const auto design = Design::build(parse_profile(profile),
                                    DesignConfig::kSyn1);
  write_file_atomic(path, to_mnl(design->netlist()));
  std::cout << "wrote " << design->netlist().num_gates() << " gates to "
            << path << "\n";
  return 0;
}

int cmd_verilog(const std::string& profile, const std::string& path) {
  const auto design = Design::build(parse_profile(profile),
                                    DesignConfig::kSyn1);
  write_file_atomic(path, to_verilog(design->netlist()));
  std::cout << "wrote structural Verilog to " << path << "\n";
  return 0;
}

int cmd_stats(const std::string& profile, const std::string& config) {
  const auto design =
      Design::build(parse_profile(profile), parse_config(config));
  TablePrinter table({"metric", "value"});
  table.add_row({"design", design->name()});
  table.add_row({"logic gates",
                 std::to_string(design->netlist().num_logic_gates())});
  table.add_row({"fault sites (pins)",
                 std::to_string(design->netlist().num_pins())});
  table.add_row({"MIVs", std::to_string(design->mivs().num_mivs())});
  const auto counts = design->tiers().tier_gate_counts(design->netlist());
  table.add_row({"tier balance (bottom/top)", std::to_string(counts[0]) +
                                                  " / " +
                                                  std::to_string(counts[1])});
  table.add_row({"scan chains",
                 std::to_string(design->scan().num_chains())});
  table.add_row({"compactor channels",
                 std::to_string(design->compactor().num_channels())});
  table.add_row({"TDF patterns",
                 std::to_string(design->patterns().num_patterns)});
  table.add_row({"TDF coverage (generation)",
                 TablePrinter::pct(design->atpg().coverage())});
  table.add_row({"graph nodes", std::to_string(design->graph().num_nodes())});
  table.add_row({"graph edges", std::to_string(design->graph().num_edges())});
  table.add_row({"Topnodes", std::to_string(design->graph().num_topnodes())});
  table.print();
  return 0;
}

// Flags accepted by `train`.
struct TrainFlags {
  std::string checkpoint_dir;
  std::int32_t checkpoint_interval = 1;
  bool resume = false;
  std::string train_config;  // key-value TrainOptions file
};

TrainFlags parse_train_flags(const std::vector<std::string>& flags) {
  TrainFlags parsed;
  for (const std::string& flag : flags) {
    const auto eq = flag.find('=');
    const std::string key = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    try {
      if (key == "--checkpoint-dir") {
        parsed.checkpoint_dir = value;
      } else if (key == "--checkpoint-interval") {
        parsed.checkpoint_interval = std::stoi(value);
      } else if (key == "--resume") {
        parsed.resume = true;
      } else if (key == "--train-config") {
        parsed.train_config = value;
      } else {
        throw Error("unknown train flag '" + flag + "'");
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      throw Error("bad value in train flag '" + flag + "'");
    }
  }
  if (parsed.resume && parsed.checkpoint_dir.empty()) {
    throw Error("--resume requires --checkpoint-dir");
  }
  return parsed;
}

int cmd_train(const std::string& profile, const std::string& path,
              const TrainFlags& flags) {
  const Profile p = parse_profile(profile);
  // Validate the training config before the (expensive) dataset build so a
  // typo is reported in milliseconds, not minutes.
  FrameworkOptions options;
  if (!flags.train_config.empty()) {
    auto is = open_in(flags.train_config);
    options.training =
        read_train_options(is, options.training, flags.train_config);
  }
  const auto design = Design::build(p, DesignConfig::kSyn1);
  // Mandatory design preflight: reject a design the lint engine can fault
  // before the expensive dataset build (the Trainer separately lints every
  // generated feature matrix).
  {
    const lint::Report report = lint::lint_design(*design);
    if (report.has_errors()) {
      std::cerr << report.to_string();
      throw Error("design '" + design->name() +
                  "' failed lint preflight (" + report.summary() +
                  "); fix the design before training");
    }
  }
  std::cout << "generating training data (Syn-1 + 2 random partitions)...\n";
  const LabeledDataset train =
      build_transfer_training_set(p, *design, TransferTrainOptions{});
  std::cout << "training on " << train.size() << " failure logs...\n";

  DiagnosisFramework framework(options);
  TrainerOptions trainer_options;
  trainer_options.checkpoint_dir = flags.checkpoint_dir;
  trainer_options.checkpoint_interval = flags.checkpoint_interval;
  // STA preflight: reject labels on untestable delay-fault sites before
  // epoch 0 (the transfer set's random partitions share this netlist, and
  // structural untestability is tier-independent).
  const DesignContext ctx = design->context();
  trainer_options.sta_design = &ctx;
  trainer_options.sta_samples = train.samples;
  Trainer trainer(framework, trainer_options);
  if (flags.resume) {
    if (trainer.resume()) {
      std::cout << "resumed from " << trainer.checkpoint_path() << " (phase "
                << trainer.phase() << ")\n";
    } else {
      std::cout << "no checkpoint in '" << flags.checkpoint_dir
                << "'; training from scratch\n";
    }
  }
  trainer.train(train.graphs);

  std::ostringstream os;
  framework.save(os);
  write_file_atomic(path, os.str());
  std::cout << "saved trained framework (T_P = " << framework.tp_threshold()
            << ") to " << path << "\n";
  return 0;
}

// Flags accepted by `lint`.
struct LintFlags {
  std::string log_path;    // failure log to lint against the design
  std::string model_path;  // trained framework to lint against the design
  bool json = false;
  lint::Severity fail_on = lint::Severity::kError;
};

LintFlags parse_lint_flags(const std::vector<std::string>& flags) {
  LintFlags parsed;
  for (const std::string& flag : flags) {
    const auto eq = flag.find('=');
    const std::string key = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    if (key == "--log") {
      parsed.log_path = value;
    } else if (key == "--model") {
      parsed.model_path = value;
    } else if (key == "--json") {
      parsed.json = true;
    } else if (key == "--fail-on") {
      try {
        parsed.fail_on = lint::parse_severity(value);
      } catch (const Error& e) {
        // Cite the flag as written so a typo in a CI pipeline is findable.
        throw Error("in '" + flag + "': " + e.what());
      }
    } else {
      throw Error("unknown lint flag '" + flag + "'");
    }
  }
  return parsed;
}

// `m3dfl_tool lint <design> [config] [--log=F] [--model=F] [--json]
//                  [--fail-on=warn|error]`
// <design> is a benchmark profile (aes|tate|netcard|leon3mp) or a path to an
// MNL netlist file.  Exit 0 when no diagnostic at/above the --fail-on
// severity fired, 1 otherwise.
int cmd_lint(const std::string& target, const std::string& config,
             const LintFlags& flags) {
  lint::Report report;
  std::unique_ptr<Design> design;
  if (std::filesystem::is_regular_file(target)) {
    M3DFL_REQUIRE(flags.log_path.empty() && flags.model_path.empty(),
                  "--log/--model need a built design; lint a profile, not "
                  "an .mnl file, to use them");
    std::ostringstream text;
    text << open_in(target).rdbuf();
    report = lint::lint_mnl(text.str(), target);
  } else if (target.size() > 4 &&
             target.compare(target.size() - 4, 4, ".mnl") == 0) {
    // Looks like a netlist path, not a profile; don't let the missing file
    // fall through to an "unknown profile" message.
    throw Error("cannot open netlist file '" + target + "'");
  } else {
    design = Design::build(parse_profile(target), parse_config(config));
    report = lint::lint_design(*design);
    if (!flags.model_path.empty()) {
      DiagnosisFramework framework;
      auto is = open_in(flags.model_path);
      framework.load(is, flags.model_path);
      report.merge(lint::lint_model(framework, design.get()));
    }
    if (!flags.log_path.empty()) {
      auto is = open_in(flags.log_path);
      report.merge(lint::lint_failure_log(*design, read_failure_log(is)));
    }
  }
  if (flags.json) {
    std::cout << report.to_json() << "\n";
  } else {
    std::cout << report.to_string();
  }
  const bool fail = !report.empty() && report.worst() >= flags.fail_on;
  return fail ? 1 : 0;
}

// Flags accepted by `analyze`.
struct AnalyzeFlags {
  bool json = false;
  double clock_ps = 0.0;       // 0 = auto (guard band over the critical path)
  std::int32_t k_paths = 5;
  double max_defect_ps = 0.0;  // 0 = no slack-margin untestability
};

AnalyzeFlags parse_analyze_flags(const std::vector<std::string>& flags) {
  AnalyzeFlags parsed;
  for (const std::string& flag : flags) {
    const auto eq = flag.find('=');
    const std::string key = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    try {
      if (key == "--json") {
        parsed.json = true;
      } else if (key == "--clock-ps") {
        parsed.clock_ps = std::stod(value);
      } else if (key == "--k-paths") {
        parsed.k_paths = std::stoi(value);
      } else if (key == "--max-defect-ps") {
        parsed.max_defect_ps = std::stod(value);
      } else {
        throw Error("unknown analyze flag '" + flag + "'");
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      throw Error("bad value in analyze flag '" + flag + "'");
    }
  }
  return parsed;
}

// Pin chain of a timing path; long paths keep both ends and elide the middle.
std::string path_to_string(const Netlist& nl, const sta::TimingPath& path) {
  constexpr std::size_t kHead = 6;
  constexpr std::size_t kTail = 6;
  std::string out;
  const std::size_t n = path.pins.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > kHead + kTail + 1 && i == kHead) {
      out += " -> ...(" + std::to_string(n - kHead - kTail) + " pins)...";
      i = n - kTail - 1;
      continue;
    }
    if (!out.empty()) out += " -> ";
    out += nl.pin_name(path.pins[i]);
  }
  return out;
}

// `m3dfl_tool analyze <design> [config] [--json] [--clock-ps=P]
//                     [--k-paths=N] [--max-defect-ps=D]`
// Static timing & testability analysis (docs/ANALYSIS.md): slack/WNS/TNS,
// the K longest paths, untestable delay faults, fault collapsing, and the
// timing lint pass.  <design> is a benchmark profile or an MNL netlist file
// (a bare netlist carries no tier assignment, so MIV effects are off).
// Exit 0 when the timing lint pass finds no errors, 1 otherwise.
int cmd_analyze(const std::string& target, const std::string& config,
                const AnalyzeFlags& flags) {
  std::unique_ptr<Design> design;
  Netlist file_netlist;
  const Netlist* nl = nullptr;
  const TierAssignment* tiers = nullptr;
  const MivMap* mivs = nullptr;
  if (std::filesystem::is_regular_file(target)) {
    std::ostringstream text;
    text << open_in(target).rdbuf();
    file_netlist = from_mnl(text.str());
    nl = &file_netlist;
  } else {
    design = Design::build(parse_profile(target), parse_config(config));
    nl = &design->netlist();
    tiers = &design->tiers();
    mivs = &design->mivs();
  }

  sta::StaOptions sta_options;
  sta_options.clock_ps = flags.clock_ps;
  sta_options.max_defect_ps = flags.max_defect_ps;
  const sta::TimingAnalysis analysis(*nl, tiers, mivs, sta_options);
  const sta::CollapsedFaults collapsed = sta::collapse_tdf_faults(*nl);
  const std::vector<sta::TimingPath> paths =
      analysis.k_longest_paths(flags.k_paths);
  const std::vector<sta::UntestableFault> untestable =
      analysis.untestable_faults();
  std::int64_t n_unobservable = 0;
  std::int64_t n_slack_margin = 0;
  for (const sta::UntestableFault& u : untestable) {
    if (u.reason == sta::UntestableReason::kSlackMargin) {
      ++n_slack_margin;
    } else {
      ++n_unobservable;
    }
  }

  const lint::TimingFacts facts =
      sta::timing_lint_facts(*nl, analysis, mivs, &collapsed);
  lint::Subject subject;
  subject.timing = &facts;
  lint::Report report;
  lint::run_timing_checks(subject, report);

  if (flags.json) {
    std::string out = "{\n  \"design\": " + json_escape(nl->name()) +
                      ",\n  \"clock_ps\": " +
                      TablePrinter::fmt(analysis.clock_ps(), 3) +
                      ",\n  \"critical_delay_ps\": " +
                      TablePrinter::fmt(analysis.critical_delay_ps(), 3) +
                      ",\n  \"wns_ps\": " +
                      TablePrinter::fmt(analysis.wns_ps(), 3) +
                      ",\n  \"tns_ps\": " +
                      TablePrinter::fmt(analysis.tns_ps(), 3) +
                      ",\n  \"endpoints\": " +
                      std::to_string(analysis.endpoints().size()) +
                      ",\n  \"untestable_unobservable\": " +
                      std::to_string(n_unobservable) +
                      ",\n  \"untestable_slack_margin\": " +
                      std::to_string(n_slack_margin) +
                      ",\n  \"collapse_faults\": " +
                      std::to_string(collapsed.full.size()) +
                      ",\n  \"collapse_classes\": " +
                      std::to_string(collapsed.num_classes()) +
                      ",\n  \"collapse_dominated\": " +
                      std::to_string(collapsed.num_dominated()) +
                      ",\n  \"paths\": [";
    for (std::size_t i = 0; i < paths.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"delay_ps\": " + TablePrinter::fmt(paths[i].delay_ps, 3) +
             ", \"slack_ps\": " + TablePrinter::fmt(paths[i].slack_ps, 3) +
             ", \"pins\": [";
      for (std::size_t j = 0; j < paths[i].pins.size(); ++j) {
        if (j > 0) out += ", ";
        out += json_escape(nl->pin_name(paths[i].pins[j]));
      }
      out += "]}";
    }
    out += "\n  ],\n  \"lint\": " + report.to_json() + "}\n";
    std::cout << out;
  } else {
    TablePrinter table({"metric", "value"});
    table.add_row({"design", nl->name()});
    table.add_row({"clock (ps)", TablePrinter::fmt(analysis.clock_ps(), 1)});
    table.add_row({"critical delay (ps)",
                   TablePrinter::fmt(analysis.critical_delay_ps(), 1)});
    table.add_row({"WNS (ps)", TablePrinter::fmt(analysis.wns_ps(), 1)});
    table.add_row({"TNS (ps)", TablePrinter::fmt(analysis.tns_ps(), 1)});
    table.add_row({"capture endpoints",
                   std::to_string(analysis.endpoints().size())});
    table.add_row({"untestable TDFs (unobservable)",
                   std::to_string(n_unobservable)});
    table.add_row({"untestable TDFs (slack margin)",
                   std::to_string(n_slack_margin)});
    table.add_row({"TDF faults", std::to_string(collapsed.full.size())});
    table.add_row({"collapsed classes",
                   std::to_string(collapsed.num_classes())});
    table.add_row({"collapse ratio",
                   TablePrinter::fmt(collapsed.collapse_ratio(), 2)});
    table.add_row({"dominated faults",
                   std::to_string(collapsed.num_dominated())});
    if (mivs != nullptr) {
      table.add_row({"MIVs", std::to_string(mivs->num_mivs())});
    }
    table.print();
    std::cout << "\n" << paths.size() << " longest path(s):\n";
    for (const sta::TimingPath& p : paths) {
      std::cout << "  " << TablePrinter::fmt(p.delay_ps, 1) << " ps (slack "
                << TablePrinter::fmt(p.slack_ps, 1) << "): "
                << path_to_string(*nl, p) << "\n";
    }
    std::cout << "\n" << report.to_string();
  }
  return report.has_errors() ? 1 : 0;
}

int cmd_inject(const std::string& profile, const std::string& path) {
  const auto design = Design::build(parse_profile(profile),
                                    DesignConfig::kSyn1);
  DataGenOptions gen;
  gen.num_samples = 1;
  gen.seed = 0xD1E;
  const LabeledDataset one = build_dataset(*design, gen);
  write_file_atomic(path, failure_log_to_string(one.samples[0].log));
  std::cout << "injected " << fault_to_string(design->netlist(),
                                              one.samples[0].faults[0])
            << " (tier " << one.samples[0].fault_tier << "); wrote "
            << one.samples[0].log.num_failing_bits() << " failing bits to "
            << path << "\n";
  return 0;
}

// Flags accepted by `diagnose` and `perturb-log` (diag/noise.h): a seeded
// tester-noise perturbation applied to the input log, so noisy runs are
// reproducible from the recorded (kind, rate, seed) triple.
struct NoiseFlags {
  NoiseOptions noise;
};

NoiseFlags parse_noise_flags(const std::vector<std::string>& flags) {
  NoiseFlags parsed;
  for (const std::string& flag : flags) {
    const auto eq = flag.find('=');
    const std::string key = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    try {
      if (key == "--noise-kind") {
        parsed.noise.kind = parse_noise_kind(value);
      } else if (key == "--noise-rate") {
        parsed.noise.rate = std::stod(value);
      } else if (key == "--noise-seed") {
        parsed.noise.seed = std::stoull(value);
      } else if (key == "--noise-depth") {
        parsed.noise.store_depth = std::stoi(value);
      } else {
        throw Error("unknown noise flag '" + flag + "'");
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      throw Error("bad value in noise flag '" + flag + "'");
    }
  }
  return parsed;
}

// Applies the flagged perturbation (if any) and narrates what it did.
FailureLog apply_noise(const DesignContext& ctx, const FailureLog& log,
                       const NoiseOptions& noise) {
  if (noise.kind == NoiseKind::kNone) return log;
  NoiseSummary summary;
  FailureLog noisy = perturb_failure_log(log, ctx, noise, &summary);
  std::cout << "noise: kind=" << noise_kind_name(noise.kind)
            << " rate=" << noise.rate << " seed=" << noise.seed
            << " -> dropped " << summary.dropped << ", injected "
            << summary.injected << ", flipped " << summary.flipped
            << ", truncated " << summary.truncated << " ("
            << log.num_failing_bits() << " -> " << noisy.num_failing_bits()
            << " failing bits)\n";
  return noisy;
}

// Flags accepted by `diagnose`: the noise perturbation plus --stream, which
// replays the (possibly perturbed) log record-by-record through
// diag::StreamingBacktrace, printing the confidence trajectory and stopping
// at the early-exit point instead of waiting for the complete log.
struct DiagnoseFlags {
  NoiseOptions noise;
  bool stream = false;
};

DiagnoseFlags parse_diagnose_flags(const std::vector<std::string>& flags) {
  DiagnoseFlags parsed;
  std::vector<std::string> noise_flags;
  for (const std::string& flag : flags) {
    if (flag == "--stream") {
      parsed.stream = true;
    } else {
      noise_flags.push_back(flag);
    }
  }
  parsed.noise = parse_noise_flags(noise_flags).noise;
  return parsed;
}

int cmd_diagnose(const std::string& profile, const std::string& model_path,
                 const std::string& log_path, const std::string& config,
                 const DiagnoseFlags& flags) {
  const auto design =
      Design::build(parse_profile(profile), parse_config(config));
  DiagnosisFramework framework;
  {
    auto is = open_in(model_path);
    framework.load(is, model_path);
  }
  FailureLog log;
  {
    auto is = open_in(log_path);
    log = read_failure_log(is);
  }

  const DesignContext ctx = design->context();
  log = apply_noise(ctx, log, flags.noise);

  std::optional<BacktraceResult> streamed;
  if (flags.stream) {
    // Replay the log as a live feed: one record per line, trajectory after
    // each accepted response, early exit once the candidate set is stable
    // and the confidence clears the T_P-derived cut.  Everything downstream
    // then diagnoses the prefix actually consumed.
    StreamingOptions stream_options;
    stream_options.tp_threshold = framework.tp_threshold();
    StreamingBacktrace stream(design->graph(), ctx, stream_options);
    std::istringstream feed(failure_log_to_string(log));
    std::string line;
    std::getline(feed, line);  // "m3dfl-faillog 1" header
    int line_no = 1;
    bool early_exit = false;
    std::cout << "streaming " << log.num_failing_bits()
              << " failing bits as a live feed:\n";
    while (std::getline(feed, line)) {
      ++line_no;
      const StreamRecord record = parse_stream_record(line, line_no);
      if (stream.add(record) != StreamAccept::kAccepted) continue;
      const StreamSnapshot& snap = stream.snapshot();
      std::cout << "  response " << stream.num_responses() << ": candidates="
                << snap.backtrace.candidates.size() << " confidence="
                << snap.confidence.combined;
      if (!snap.backtrace.quarantined.empty()) {
        std::cout << " quarantined=" << snap.backtrace.quarantined.size();
      }
      if (snap.rehabilitations > 0) {
        std::cout << " rehabilitated=" << snap.rehabilitations;
      }
      if (snap.stable) std::cout << " [stable]";
      std::cout << "\n";
      if (snap.stable) {
        early_exit = true;
        break;
      }
    }
    if (early_exit) {
      std::cout << "early exit after "
                << stream.snapshot().early_exit_at << " of "
                << log.num_failing_bits()
                << " responses (stable candidate set)\n";
    } else {
      std::cout << "no early exit: consumed the full feed ("
                << stream.num_responses() << " responses)\n";
    }
    streamed = stream.finalize();
    log = stream.log();
  }

  DiagnosisPrefix prefix =
      backtrace_prefix(*design, log, streamed ? &*streamed : nullptr);
  prefix.base_report = diagnose_atpg(ctx, log);
  std::cout << "ATPG "
            << report_to_string(design->netlist(), prefix.base_report);

  const RefinedDiagnosis refined = framework.diagnose(ctx, prefix);
  std::cout << "\n";
  serve::write_verdict(std::cout, &refined.prediction, refined.confidence);
  std::cout << "\nrefined "
            << report_to_string(design->netlist(), refined.report);
  return 0;
}

// Writes a seeded perturbation of a failure log (via the atomic-write path,
// so a crash never leaves a half-written log behind).
int cmd_perturb_log(const std::string& profile, const std::string& in_path,
                    const std::string& out_path, const std::string& config,
                    const NoiseFlags& flags) {
  M3DFL_REQUIRE(flags.noise.kind != NoiseKind::kNone,
                "perturb-log needs --noise-kind=drop|spurious|flip|truncate");
  const auto design =
      Design::build(parse_profile(profile), parse_config(config));
  FailureLog log;
  {
    auto is = open_in(in_path);
    log = read_failure_log(is);
  }
  const DesignContext ctx = design->context();
  const FailureLog noisy = apply_noise(ctx, log, flags.noise);
  write_file_atomic(out_path, failure_log_to_string(noisy));
  std::cout << "wrote " << noisy.num_failing_bits() << " failing bits to "
            << out_path << "\n";
  return 0;
}

// Failure-log inputs for `serve`: a directory (all *.flog files, sorted) or
// a manifest text file with one log path per line ('#' comments allowed).
std::vector<std::filesystem::path> collect_log_paths(const std::string& arg) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  if (fs::is_directory(arg)) {
    for (const auto& entry : fs::directory_iterator(arg)) {
      if (entry.is_regular_file() && entry.path().extension() == ".flog") {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
  } else {
    auto is = open_in(arg);
    const fs::path base = fs::path(arg).parent_path();
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      fs::path p(line);
      paths.push_back(p.is_absolute() ? p : base / p);
    }
  }
  M3DFL_REQUIRE(!paths.empty(),
                "no failure logs found in '" + arg +
                    "' (directory of *.flog files or manifest)");
  return paths;
}

// Flags accepted by `serve` (may appear anywhere after the command).
struct ServeFlags {
  double deadline_ms = 0.0;
  std::int32_t max_retries = 2;
  bool degraded_fallback = true;
  // Non-empty: route every log through a journaled streaming session
  // (write-ahead journal in this directory; docs/SERVING.md "Crash
  // recovery") and recover sessions a previous killed run left behind.
  std::string journal_dir;
};

ServeFlags parse_serve_flags(const std::vector<std::string>& flags) {
  ServeFlags parsed;
  for (const std::string& flag : flags) {
    const auto eq = flag.find('=');
    const std::string key = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    try {
      if (key == "--deadline-ms") {
        parsed.deadline_ms = std::stod(value);
      } else if (key == "--max-retries") {
        parsed.max_retries = std::stoi(value);
      } else if (key == "--no-degraded") {
        parsed.degraded_fallback = false;
      } else if (key == "--journal-dir") {
        M3DFL_REQUIRE(!value.empty(), "--journal-dir needs a directory");
        parsed.journal_dir = value;
      } else {
        throw Error("unknown serve flag '" + flag + "'");
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      throw Error("bad value in serve flag '" + flag + "'");
    }
  }
  return parsed;
}

// --journal-dir plumbing shared by `serve` and `fleet`: report what
// recover() rebuilt from a previous killed run, then finalize the rebuilt
// sessions (a batch CLI has no live feed to resume them) so their results
// — byte-identical to what the uninterrupted run would have printed — are
// delivered instead of lost.
void report_recovery(serve::SessionManager& manager, const Netlist& netlist,
                     const serve::RecoveryStats& stats) {
  if (stats.segments > 0) {
    std::cerr << "journal recovery: " << stats.recovered << " recovered, "
              << stats.expired << " expired, " << stats.discarded
              << " discarded (" << stats.records_scanned << " record(s) in "
              << stats.segments << " segment(s), " << stats.lines_replayed
              << " line(s) replayed)\n";
    for (const std::string& d : stats.diagnostics) {
      std::cerr << "  " << d << "\n";
    }
  }
  for (const std::uint64_t id : stats.recovered_ids) {
    const serve::DiagnosisResult result = manager.finalize(id).get();
    std::cout << "==== recovered session " << id << "\n"
              << result_to_string(netlist, result) << "\n";
  }
}

// Feeds one failure log through a journaled streaming session: every
// accepted record reaches the write-ahead journal before the call returns,
// so a kill mid-file is recoverable up to the last acknowledged line.
std::future<serve::DiagnosisResult> submit_via_session(
    serve::SessionManager& manager, std::int32_t design_id,
    std::istream& is) {
  // Same header gate as read_failure_log, *before* a session exists: a
  // headerless or garbage file must report as a parse failure, not open a
  // session, swallow its first body line, and print a bogus diagnosis.
  // Bounded reads throughout: an adversarial unterminated line must reject
  // at the cap (util/limits.h), not accumulate here before the session
  // layer ever sees it.
  const ParseLimits& limits = ParseLimits::defaults();
  std::string line;
  const BoundedLine header = bounded_getline(is, line, limits.max_line_bytes);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  M3DFL_REQUIRE(header.ok() && line == "m3dfl-faillog 1",
                "failure log line 1: missing 'm3dfl-faillog 1' header");
  const serve::SessionTicket ticket = manager.begin_diagnosis(design_id);
  if (!ticket.admitted()) {
    std::promise<serve::DiagnosisResult> shed;
    serve::DiagnosisResult result;
    result.status = ticket.status;
    result.status_message = ticket.message;
    shed.set_value(std::move(result));
    return shed.get_future();
  }
  int line_no = 1;
  for (;;) {
    const BoundedLine bl = bounded_getline(is, line, limits.max_line_bytes);
    if (bl.too_long()) {
      // The session survives this file's abort and is finalized on what it
      // accepted so far, same as any mid-feed disconnect.
      std::cerr << "failure log line " << (line_no + 1) << ": "
                << limit_exceeded_over("line bytes", limits.max_line_bytes)
                << "; abandoning the feed\n";
      break;
    }
    if (!bl.ok()) break;
    ++line_no;
    manager.add_response(ticket.session_id, line);
  }
  return manager.finalize(ticket.session_id);
}

int cmd_serve(const std::string& profile, const std::string& model_path,
              const std::string& logs_arg, const std::string& config,
              const std::string& threads_str, const ServeFlags& flags) {
  serve::ServiceOptions options;
  try {
    options.num_threads = std::stoi(threads_str);
  } catch (const std::exception&) {
    throw Error("m3dfl: invalid thread count '" + threads_str + "'");
  }
  options.default_deadline_ms = flags.deadline_ms;
  options.max_retries = flags.max_retries;
  options.degraded_fallback = flags.degraded_fallback;

  std::shared_ptr<const Design> design =
      Design::build(parse_profile(profile), parse_config(config));
  auto model_is = open_in(model_path);
  serve::DiagnosisService service(model_is, options);
  if (service.degraded()) {
    std::cerr << "warning: model unusable; serving in degraded ATPG-only "
                 "mode (reports carry no GNN verdict)\n";
  }
  const std::int32_t design_id = service.register_design(design);

  // Journaled mode: logs flow through streaming sessions so every accepted
  // record is durable before it is acknowledged, and sessions a previous
  // killed run left in the journal are recovered and finalized first.
  std::unique_ptr<serve::SessionManager> manager;
  if (!flags.journal_dir.empty()) {
    serve::SessionManagerOptions mgr_options;
    mgr_options.journal_dir = flags.journal_dir;
    manager = std::make_unique<serve::SessionManager>(service, mgr_options);
    report_recovery(*manager, design->netlist(), manager->recover());
  }

  const auto paths = collect_log_paths(logs_arg);
  std::cerr << "serving " << paths.size() << " failure logs on "
            << design->name() << " with " << options.num_threads
            << " worker thread(s)...\n";

  // A log that fails to open or parse becomes an immediate kInvalidInput
  // slot rather than aborting the batch: the tester keeps getting answers
  // for the dies whose logs are fine.
  std::vector<std::future<serve::DiagnosisResult>> futures;
  std::vector<std::string> parse_failures(paths.size());
  futures.reserve(paths.size());
  for (const auto& path : paths) {
    try {
      auto is = open_in(path.string());
      futures.push_back(manager != nullptr
                            ? submit_via_session(*manager, design_id, is)
                            : service.submit(design_id, read_failure_log(is)));
    } catch (const Error& e) {
      parse_failures[futures.size()] = e.what();
      futures.emplace_back();  // invalid slot, reported below
    }
  }

  std::size_t num_ok = 0;
  std::size_t num_degraded = 0;
  std::size_t num_failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    std::cout << "==== " << paths[i].filename().string();
    if (!futures[i].valid()) {
      ++num_failed;
      std::cout << "\nstatus: " << serve::status_name(
                       serve::StatusCode::kInvalidInput)
                << " (" << parse_failures[i] << ")\n\n";
      continue;
    }
    const serve::DiagnosisResult result = futures[i].get();
    if (result.ok()) {
      ++num_ok;
      num_degraded += result.degraded ? 1 : 0;
    } else {
      ++num_failed;
    }
    if (result.cache_hit) std::cout << " (cache hit)";
    if (result.degraded) std::cout << " (degraded)";
    if (!result.ok()) {
      std::cout << " [" << serve::status_name(result.status) << "]";
    }
    std::cout << "\n" << result_to_string(design->netlist(), result) << "\n";
  }
  service.shutdown();
  if (manager != nullptr && manager->journal() != nullptr &&
      !manager->journal()->durable()) {
    std::cerr << "warning: journal degraded to non-durable (append "
                 "failure); a crash may lose events\n";
  }
  std::cout << "==== serving metrics ====\n" << service.metrics().report();
  std::cout << "==== " << num_ok << " ok (" << num_degraded << " degraded), "
            << num_failed << " failed of " << futures.size()
            << " requests ====\n";
  return num_failed == 0 ? 0 : 1;
}

// `m3dfl_tool migrate-artifact <in> <out>`: converts a format-1 stream into
// the checksummed format-2 container the model registry ingests, or
// validates a container and copies it through (core/framework.h
// migrate_artifact).  Always writes atomically.
int cmd_migrate_artifact(const std::string& in_path,
                         const std::string& out_path) {
  std::string bytes;
  {
    auto is = open_in(in_path);
    bytes = slurp_stream(is);
  }
  const MigratedArtifact migrated = migrate_artifact(bytes, in_path);
  write_file_atomic(out_path, migrated.bytes);
  if (migrated.converted) {
    std::cout << "migrated format-1 " << migrated.kind
              << " stream to format-" << kArtifactVersion
              << " container: " << out_path << "\n";
  } else {
    std::cout << "'" << in_path << "' is already a format-"
              << kArtifactVersion << " " << migrated.kind
              << " artifact; validated and copied to " << out_path << "\n";
  }
  return 0;
}

// Flags accepted by `fleet`.
struct FleetFlags {
  std::int32_t threads = 2;        // worker threads per tenant shard
  std::uint64_t max_inflight = 0;  // per-tenant quota; 0 = unlimited
  std::int32_t version = registry::ModelRegistry::kLatest;
  std::size_t max_resident_mb = 0;  // registry eviction watermark
  // Non-empty: per-tenant write-ahead journals under <dir>/<model-name>,
  // with startup recovery (docs/SERVING.md "Crash recovery").
  std::string journal_dir;
};

FleetFlags parse_fleet_flags(const std::vector<std::string>& flags) {
  FleetFlags parsed;
  for (const std::string& flag : flags) {
    const auto eq = flag.find('=');
    const std::string key = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    try {
      if (key == "--threads") {
        parsed.threads = std::stoi(value);
      } else if (key == "--max-inflight") {
        parsed.max_inflight = std::stoull(value);
      } else if (key == "--version") {
        parsed.version = std::stoi(value);
      } else if (key == "--max-resident-mb") {
        parsed.max_resident_mb = std::stoull(value);
      } else if (key == "--journal-dir") {
        M3DFL_REQUIRE(!value.empty(), "--journal-dir needs a directory");
        parsed.journal_dir = value;
      } else {
        throw Error("unknown fleet flag '" + flag + "'");
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      throw Error("bad value in fleet flag '" + flag + "'");
    }
  }
  return parsed;
}

// `m3dfl_tool fleet <registry-dir> <manifest> [flags]`: multi-tenant batch
// serving.  The manifest has one request per line:
//
//   <profile> <die.flog> [config]       # e.g.  aes logs/die1.flog syn1
//
// Each distinct (profile, config) becomes one fleet tenant; its registry
// model name is the sanitized design name (e.g. "AES-Syn-1"), resolved
// `latest` unless --version pins one.  Models must already be published in
// the registry as <model>@<version>.m3dfl (train + migrate-artifact).
int cmd_fleet(const std::string& registry_dir, const std::string& manifest,
              const FleetFlags& flags) {
  registry::RegistryOptions reg_options;
  reg_options.max_resident_bytes = flags.max_resident_mb << 20;
  registry::ModelRegistry registry(registry_dir, reg_options);

  serve::FleetOptions fleet_options;
  fleet_options.service_defaults.num_threads = flags.threads;
  serve::FleetService fleet(registry, fleet_options);

  // tenant key "<profile>/<config>" -> tenant id
  std::map<std::string, std::int32_t> tenants;
  // Journaled mode: one SessionManager (and journal subdirectory, keyed by
  // the stable model name rather than the manifest-order tenant id) per
  // tenant, layered over the tenant's current shard service.  Declared
  // after `fleet` so the managers die before the services they reference.
  std::map<std::int32_t, std::unique_ptr<serve::SessionManager>> managers;
  std::map<std::int32_t, std::shared_ptr<const Design>> tenant_designs;
  struct Slot {
    std::string log_name;
    std::int32_t tenant_id = 0;
  };
  std::vector<Slot> slots;
  std::vector<std::future<serve::DiagnosisResult>> futures;

  auto is = open_in(manifest);
  const std::filesystem::path base =
      std::filesystem::path(manifest).parent_path();
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string profile, log_path, config;
    ls >> profile >> log_path >> config;
    M3DFL_REQUIRE(!log_path.empty(),
                  "fleet manifest line needs '<profile> <log.flog> "
                  "[config]': '" + line + "'");
    if (config.empty()) config = "syn1";
    const std::string key = profile + "/" + config;
    auto it = tenants.find(key);
    if (it == tenants.end()) {
      std::shared_ptr<const Design> design =
          Design::build(parse_profile(profile), parse_config(config));
      serve::TenantOptions tenant = fleet.tenant_defaults();
      tenant.model = registry::sanitize_model_name(design->name());
      tenant.version = flags.version;
      tenant.max_inflight = flags.max_inflight;
      const std::string model = tenant.model;
      std::shared_ptr<const Design> design_ref = design;
      const std::int32_t id =
          fleet.add_tenant(std::move(design), std::move(tenant));
      it = tenants.emplace(key, id).first;
      std::cerr << "tenant " << id << ": " << key << " -> model '" << model
                << "'\n";
      if (!flags.journal_dir.empty()) {
        // Journal per tenant, recovered before this tenant takes traffic.
        // tenant_service is null until a model is published; those tenants
        // fall back to the non-durable batch path below.
        serve::DiagnosisService* shard = fleet.tenant_service(id);
        if (shard == nullptr) {
          std::cerr << "warning: tenant " << id << " has no epoch yet; "
                       "serving it without a journal\n";
        } else {
          serve::SessionManagerOptions mgr_options;
          mgr_options.journal_dir =
              (std::filesystem::path(flags.journal_dir) / model).string();
          auto manager =
              std::make_unique<serve::SessionManager>(*shard, mgr_options);
          report_recovery(*manager, design_ref->netlist(),
                          manager->recover());
          managers.emplace(id, std::move(manager));
          tenant_designs.emplace(id, std::move(design_ref));
        }
      }
    }
    std::filesystem::path p(log_path);
    if (!p.is_absolute()) p = base / p;
    Slot slot;
    slot.log_name = p.filename().string();
    slot.tenant_id = it->second;
    try {
      auto log_is = open_in(p.string());
      const auto mgr = managers.find(it->second);
      if (mgr != managers.end()) {
        // The session path bypasses fleet.submit, so apply the tenant's
        // max_inflight gate here — a journaled tenant gets the same quota
        // (and the same kQuotaExceeded accounting) as a batch one.  Each
        // fleet epoch registers exactly one design, so the shard-local
        // design id is always 0.
        auto shed = fleet.admit(it->second);
        futures.push_back(shed.has_value()
                              ? std::move(*shed)
                              : submit_via_session(*mgr->second, 0, log_is));
      } else {
        futures.push_back(fleet.submit(it->second, read_failure_log(log_is)));
      }
    } catch (const Error& e) {
      std::promise<serve::DiagnosisResult> failed;
      serve::DiagnosisResult result;
      result.status = serve::StatusCode::kInvalidInput;
      result.status_message = e.what();
      failed.set_value(std::move(result));
      futures.push_back(failed.get_future());
    }
    slots.push_back(std::move(slot));
  }
  M3DFL_REQUIRE(!slots.empty(), "fleet manifest '" + manifest +
                                    "' contains no requests");

  std::size_t num_ok = 0;
  TablePrinter table({"tenant", "log", "status", "gen", "ms"});
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::DiagnosisResult result = futures[i].get();
    num_ok += result.ok() ? 1 : 0;
    table.add_row({std::to_string(slots[i].tenant_id), slots[i].log_name,
                   serve::status_name(result.status),
                   std::to_string(result.model_generation),
                   TablePrinter::fmt(result.total_seconds * 1e3, 2)});
  }
  fleet.shutdown();
  for (const auto& [tenant_id, manager] : managers) {
    if (manager->journal() != nullptr && !manager->journal()->durable()) {
      std::cerr << "warning: tenant " << tenant_id
                << " journal degraded to non-durable (append failure)\n";
    }
  }
  table.print();
  std::cout << "\n" << fleet.report();
  std::cout << "==== " << num_ok << " ok of " << futures.size()
            << " requests across " << tenants.size() << " tenant(s) ====\n";
  return num_ok == futures.size() ? 0 : 1;
}

// `m3dfl_tool journal <dir> [--verify|--compact] [--lifetime-ms=N]`:
// inspects a write-ahead session journal (docs/SERVING.md "Crash
// recovery").  Default: per-segment table + live/closed sessions +
// offset-cited diagnostics.  --verify exits 1 if any segment is torn or
// corrupt; --compact removes sealed fully-tombstoned segments;
// --lifetime-ms additionally runs the session-journal-stale lint check
// against the given session-lifetime deadline.
int cmd_journal(const std::string& dir,
                const std::vector<std::string>& flags) {
  bool verify = false;
  bool compact = false;
  double lifetime_ms = 0.0;
  for (const std::string& flag : flags) {
    const auto eq = flag.find('=');
    const std::string key = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    if (key == "--verify") {
      verify = true;
    } else if (key == "--compact") {
      compact = true;
    } else if (key == "--lifetime-ms") {
      try {
        lifetime_ms = std::stod(value);
      } catch (const std::exception&) {
        throw Error("bad value in journal flag '" + flag + "'");
      }
    } else {
      throw Error("unknown journal flag '" + flag + "'");
    }
  }

  const serve::JournalReplay replay = serve::SessionJournal::replay(dir);
  if (replay.segments.empty()) {
    std::cout << "no journal segments in '" << dir << "'\n";
    return 0;
  }
  TablePrinter table({"segment", "records", "valid bytes", "total bytes",
                      "status"});
  for (const serve::SegmentScan& seg : replay.segments) {
    table.add_row({std::filesystem::path(seg.path).filename().string(),
                   std::to_string(seg.records.size()),
                   std::to_string(seg.valid_bytes),
                   std::to_string(seg.total_bytes),
                   seg.diagnostic.empty() ? "ok" : "torn"});
  }
  table.print();
  std::cout << replay.records << " record(s), " << replay.live.size()
            << " live session(s), " << replay.closed_sessions
            << " closed session(s)\n";
  for (const auto& live : replay.live) {
    std::cout << "  live session " << live.id << ": design '"
              << live.design_name << "', " << live.lines.size()
              << " accepted record(s)\n";
  }
  for (const std::string& d : replay.diagnostics) {
    std::cout << "  " << d << "\n";
  }

  if (lifetime_ms > 0.0) {
    const lint::JournalFacts facts =
        serve::journal_lint_facts(dir, lifetime_ms, serve::system_wall_ms());
    lint::Subject subject;
    subject.journal = &facts;
    lint::Report report;
    lint::run_journal_checks(subject, report);
    std::cout << report.to_string();
  }
  if (compact) {
    const std::size_t removed = serve::SessionJournal::compact(dir);
    std::cout << "compacted " << removed << " segment(s)\n";
  }
  return verify && !replay.diagnostics.empty() ? 1 : 0;
}

int usage() {
  std::cerr << "usage:\n"
               "  m3dfl_tool generate <profile> <out.mnl>\n"
               "  m3dfl_tool verilog  <profile> <out.v>\n"
               "  m3dfl_tool stats    <profile> [config]\n"
               "  m3dfl_tool train    <profile> <model.m3dfl>\n"
               "                      [--checkpoint-dir=D] "
               "[--checkpoint-interval=N]\n"
               "                      [--resume] [--train-config=F]\n"
               "  m3dfl_tool lint     <profile|file.mnl> [config]\n"
               "                      [--log=F] [--model=F] [--json] "
               "[--fail-on=warn|error]\n"
               "  m3dfl_tool analyze  <profile|file.mnl> [config]\n"
               "                      [--json] [--clock-ps=P] [--k-paths=N] "
               "[--max-defect-ps=D]\n"
               "  m3dfl_tool inject   <profile> <out.flog>\n"
               "  m3dfl_tool diagnose <profile> <model.m3dfl> <die.flog> "
               "[config]\n"
               "                      [--stream] [--noise-kind=K] "
               "[--noise-rate=R] [--noise-seed=S] [--noise-depth=D]\n"
               "  m3dfl_tool perturb-log <profile> <in.flog> <out.flog> "
               "[config]\n"
               "                      --noise-kind=drop|spurious|flip|"
               "truncate [--noise-rate=R]\n"
               "                      [--noise-seed=S] [--noise-depth=D]\n"
               "  m3dfl_tool serve    <profile> <model.m3dfl> "
               "<logdir|manifest> [config] [threads]\n"
               "                      [--deadline-ms=N] [--max-retries=N] "
               "[--no-degraded]\n"
               "                      [--journal-dir=D]\n"
               "  m3dfl_tool fleet    <registry-dir> <manifest>\n"
               "                      [--threads=N] [--max-inflight=N] "
               "[--version=N]\n"
               "                      [--max-resident-mb=N] "
               "[--journal-dir=D]\n"
               "  m3dfl_tool journal  <dir> [--verify|--compact] "
               "[--lifetime-ms=N]\n"
               "  m3dfl_tool migrate-artifact <in> <out>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Split "--flag[=value]" arguments (serve only) from positionals so
    // flags may appear anywhere on the command line.
    std::vector<std::string> positional;
    std::vector<std::string> flags;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      (arg.rfind("--", 0) == 0 ? flags : positional).push_back(arg);
    }
    if (positional.size() < 2) return usage();
    const std::string cmd = positional[0];
    if (cmd == "serve" && positional.size() >= 4 && positional.size() <= 6) {
      return cmd_serve(positional[1], positional[2], positional[3],
                       positional.size() >= 5 ? positional[4] : "syn1",
                       positional.size() == 6 ? positional[5] : "4",
                       parse_serve_flags(flags));
    }
    if (cmd == "train" && positional.size() == 3) {
      return cmd_train(positional[1], positional[2],
                       parse_train_flags(flags));
    }
    if (cmd == "analyze" &&
        (positional.size() == 2 || positional.size() == 3)) {
      return cmd_analyze(positional[1],
                         positional.size() == 3 ? positional[2] : "syn1",
                         parse_analyze_flags(flags));
    }
    if (cmd == "lint" && (positional.size() == 2 || positional.size() == 3)) {
      return cmd_lint(positional[1],
                      positional.size() == 3 ? positional[2] : "syn1",
                      parse_lint_flags(flags));
    }
    if (cmd == "diagnose" && (positional.size() == 4 ||
                              positional.size() == 5)) {
      return cmd_diagnose(positional[1], positional[2], positional[3],
                          positional.size() == 5 ? positional[4] : "syn1",
                          parse_diagnose_flags(flags));
    }
    if (cmd == "perturb-log" && (positional.size() == 4 ||
                                 positional.size() == 5)) {
      return cmd_perturb_log(positional[1], positional[2], positional[3],
                             positional.size() == 5 ? positional[4] : "syn1",
                             parse_noise_flags(flags));
    }
    if (cmd == "fleet" && positional.size() == 3) {
      return cmd_fleet(positional[1], positional[2],
                       parse_fleet_flags(flags));
    }
    if (cmd == "journal" && positional.size() == 2) {
      return cmd_journal(positional[1], flags);
    }
    if (!flags.empty()) {
      throw Error("flags are only accepted by the 'serve', 'train', 'lint', "
                  "'analyze', 'diagnose', 'perturb-log', 'fleet', and "
                  "'journal' commands");
    }
    if (cmd == "migrate-artifact" && positional.size() == 3) {
      return cmd_migrate_artifact(positional[1], positional[2]);
    }
    const std::size_t n = positional.size();
    if (cmd == "generate" && n == 3) {
      return cmd_generate(positional[1], positional[2]);
    }
    if (cmd == "verilog" && n == 3) {
      return cmd_verilog(positional[1], positional[2]);
    }
    if (cmd == "stats" && (n == 2 || n == 3)) {
      return cmd_stats(positional[1], n == 3 ? positional[2] : "syn1");
    }
    if (cmd == "inject" && n == 3) {
      return cmd_inject(positional[1], positional[2]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "m3dfl_tool: " << e.what() << "\n";
    return 1;
  }
}
