// ExperimentConfig ingestion and canonicalization — the one config -> run ->
// report path of ownsim_cli, config files and the benchmark harness.
//
// Two representations of an experiment point live here:
//
//   * Flat key=value settings (`Config`), the CLI / config-file vocabulary:
//     `parse_experiment_config` turns them into an ExperimentConfig with
//     full validation.
//
//   * Canonical JSON (`canonical_config_json`): a byte-stable, full-fidelity
//     dump of every field that can influence a simulated result — sorted
//     keys, shortest-round-trip number forms (common/numfmt). Two configs
//     describe the same experiment iff their canonical JSON is byte-equal.
//     Every report=json document carries it (`experiment_report_json`), so
//     a report names the experiment that produced it. Deliberately
//     EXCLUDED from the canonical form:
//       - `kernel`: activity and lockstep are bit-identical by contract
//         (DESIGN.md §5e, enforced by bench_kernel and the CI perf-smoke
//         `cmp` legs), so every kernel yields the same JSON;
//       - `injector.rate`: always overridden by the top-level `rate`;
//       - `fault.diagnostics`: an output stream, not configuration.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "driver/simulate.hpp"
#include "serve/json.hpp"

namespace ownsim {

class NetworkReport;

/// Builds an ExperimentConfig from flat key=value settings (the ownsim_cli
/// vocabulary, `experiment_config_keys()`). Every field is declared once, in
/// the field table of experiment_config.cpp, which also drives the canonical
/// JSON. A key that is neither an experiment key nor one of `caller_keys`
/// (the caller's own vocabulary, e.g. the CLI's `report`) throws
/// std::invalid_argument naming it; malformed values throw
/// std::invalid_argument / std::runtime_error, and out-of-range ones (e.g.
/// measure=0, clock_ghz=0) std::invalid_argument naming the key.
ExperimentConfig parse_experiment_config(
    const Config& args, const std::vector<std::string>& caller_keys = {});

/// Every key=value name `parse_experiment_config` accepts, sorted.
const std::vector<std::string>& experiment_config_keys();

/// Canonical JSON of `config` (see file comment): sorted keys, numfmt
/// number forms. Serializing the same config always yields the same bytes.
/// A file topology is written as the SHA-256 of `options.topofile_text`
/// (std::logic_error when the text was never loaded).
std::string canonical_config_json(const ExperimentConfig& config);

/// The `ownsim_cli report=json` document, one JSON object: `config` (the
/// canonical config JSON above), `result` (`experiment_result_json`, the
/// same bytes) and `network` (`NetworkReport::to_json`). Each value is
/// printed at full precision, and the obs counters appear once, in `result`.
serve::Json experiment_report_json(const ExperimentConfig& config,
                                   const ExperimentResult& result,
                                   const NetworkReport& network);

}  // namespace ownsim
