// ExperimentConfig ingestion and canonicalization — the one config -> run ->
// report path shared by ownsim_cli and the ownsim_serve daemon.
//
// Two representations of an experiment point live here:
//
//   * Flat key=value settings (`Config`), the CLI / config-file / daemon
//     request vocabulary: `parse_experiment_config` turns them into an
//     ExperimentConfig with full validation. The CLI and the daemon both
//     call it, so a config line means the same thing submitted over the
//     socket as typed on the command line.
//
//   * Canonical JSON (`canonical_config_json`): a byte-stable, full-fidelity
//     dump of every field that can influence a simulated result — sorted
//     keys, shortest-round-trip number forms (common/numfmt). This is the
//     cache-key input of the serve result store: two configs hash equal iff
//     their canonical JSON is byte-equal. Deliberately EXCLUDED from the
//     canonical form (DESIGN.md §5g):
//       - `kernel` (and the parallel-kernel `threads`/`partitions` knobs):
//         activity, lockstep and parallel are bit-identical by contract
//         (§5e/§5i, enforced by bench_kernel and the pdes-parity CI job),
//         so all kernels — at any thread/partition count — share one cache
//         entry;
//       - `injector.rate`: always overridden by the top-level `rate`;
//       - `fault.diagnostics`: an output stream, not configuration.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "driver/simulate.hpp"

namespace ownsim {

/// Builds an ExperimentConfig from flat key=value settings (the ownsim_cli
/// vocabulary, `experiment_config_keys()`). Every field is declared once, in
/// the field table of experiment_config.cpp, which also drives the canonical
/// JSON. A key that is neither an experiment key nor one of `caller_keys`
/// (the caller's own vocabulary, e.g. the CLI's `report`) throws
/// std::invalid_argument naming it; malformed values throw
/// std::invalid_argument / std::runtime_error.
ExperimentConfig parse_experiment_config(
    const Config& args, const std::vector<std::string>& caller_keys = {});

/// Every key=value name `parse_experiment_config` accepts, sorted.
const std::vector<std::string>& experiment_config_keys();

/// Canonical JSON of `config` (see file comment): sorted keys, numfmt
/// number forms. Serializing the same config always yields the same bytes.
std::string canonical_config_json(const ExperimentConfig& config);

/// Inverse of `canonical_config_json`. Unknown keys throw (schema drift must
/// not be silently dropped — the string is a cache-key input). Fields the
/// canonical form excludes (kernel, threads, partitions, injector.rate) come
/// back default.
ExperimentConfig experiment_config_from_canonical_json(std::string_view json);

/// Version tag of the simulated-result-producing code. Bump the suffix
/// whenever a change alters any simulated result or the byte layout of the
/// stored result payload — cache exactness (hash(config, seed, version) ->
/// one result) holds only while this names the code that wrote the bytes.
/// The returned string also encodes whether obs counters are compiled in,
/// since the payload embeds the counter snapshot.
std::string code_version();

/// Content address of one experiment point: SHA-256 over the canonical
/// config JSON and `version` (defaults to `code_version()`). The seed is
/// part of the config, so it is part of the key.
std::string experiment_cache_key(const ExperimentConfig& config,
                                 std::string_view version = {});

}  // namespace ownsim
