// Declarative topology files (docs/TOPOLOGY_FORMAT.md).
//
// A `.topo.json` file describes a network structurally — routers, node
// attachment, point-to-point links (electrical/photonic/wireless), shared
// MWSR/SWMR media, cluster/partition hints, a floorplan — plus a routing
// section that is either an explicit table or `"mode": "generated"`, in
// which case `routegen` derives shortest-path routes with escape VC
// classes. Technology knobs (VC count, buffer depth, clock, flit width,
// cpf overrides) stay in TopologyOptions so one file sweeps across
// operating points; `"cpf": "bisection"` defers a channel's serialization
// to the equal-bisection rule (topology/bisection.*).
//
// Loading is strict (unknown keys are errors — a topology file is hashed
// into the canonical config JSON), sizes are bounded, and every loaded spec
// passes spec.validate() plus the channel-dependency deadlock check before
// it reaches a kernel.
#pragma once

#include <map>
#include <string>

#include "network/spec.hpp"
#include "topology/options.hpp"
#include "topology/registry.hpp"

namespace ownsim::topofile {

/// Version tag of the route generator + loader semantics. Part of the
/// canonical config JSON of file topologies: a generator change changes
/// the JSON even when the file bytes did not change.
inline constexpr char kTopofileGeneratorVersion[] = "topogen-1";

/// Parses `text` and builds the full NetworkSpec: structure from the file,
/// technology from `options` (options.num_cores must equal the file's node
/// count), routes copied or generated, then validate() + deadlock check.
/// Throws std::invalid_argument / std::runtime_error with "topofile:"
/// messages.
NetworkSpec load_topofile(const std::string& text,
                          const TopologyOptions& options);

/// Registry entry point for TopologyKind::kFile: loads from
/// options.topofile_text when set, else reads options.topofile_path.
NetworkSpec build_topofile(const TopologyOptions& options);

/// Reads a topology file into a string; throws std::runtime_error when the
/// file cannot be opened.
std::string read_topofile(const std::string& path);

/// Cheap header probe (no structural validation): name, node count and the
/// optional `emulates` topology name ("" when absent).
struct TopofileInfo {
  std::string name;
  int num_nodes = 0;
  std::string emulates;
};
TopofileInfo probe_topofile(const std::string& text);

/// Kind used for result naming and the per-channel energy model: the file's
/// `emulates` target when present, kFile otherwise. Reads the file when
/// options.topofile_text is empty.
TopologyKind topofile_reporting_kind(const TopologyOptions& options);

/// Export policy: which structural extras to emit alongside the spec.
struct ExportPolicy {
  /// Optional `emulates` topology name (e.g. "own") for reporting/energy.
  std::string emulates;
  /// Emit `"routing": {"mode": "generated"}` instead of the spec's tables.
  bool generated_routing = false;
  /// Crossing-channel counts per medium name ("electrical"/"photonic"/
  /// "wireless"): channels of a listed medium get `"cpf": "bisection"` and
  /// the count lands in the file's `bisection` object.
  std::map<std::string, double> bisection;
};

/// Serializes `spec` to canonical topology-file JSON (sorted keys, numfmt
/// numbers, trailing newline). `options` supplies the defaults that are
/// omitted when matched (arbitration, max_packet_flits). Multi-reader media
/// lose their select_reader: the loader re-derives the nearest-reader
/// policy, which need not match a hand-written lambda.
std::string export_topofile(const NetworkSpec& spec,
                            const TopologyOptions& options,
                            const ExportPolicy& policy);

}  // namespace ownsim::topofile
