// Topology-file frontend (src/topofile/): exporter round-trips, generated
// routing equivalence against the hand-built tables, the deadlock checker
// on both the built-in topologies and deliberately cyclic files, the parser
// rejection corpus, and the content-hashed canonical config JSON.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "driver/experiment_config.hpp"
#include "driver/simulate.hpp"
#include "metrics/report.hpp"
#include "serve/json.hpp"
#include "topofile/routegen.hpp"
#include "topofile/topofile.hpp"
#include "topology/registry.hpp"

namespace ownsim {
namespace {

TopologyOptions options_for(int cores, int concentration = 4) {
  TopologyOptions options;
  options.num_cores = cores;
  options.concentration = concentration;
  return options;
}

NetworkSpec load_text(const std::string& text, int cores,
                      int concentration = 4) {
  TopologyOptions options = options_for(cores, concentration);
  options.topofile_text = text;
  return topofile::load_topofile(text, options);
}

/// Asserts full structural equality of two specs (select_reader compared by
/// behavior over every destination router).
void expect_specs_equal(const NetworkSpec& a, const NetworkSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_vcs, b.num_vcs);
  EXPECT_EQ(a.buffer_depth, b.buffer_depth);
  ASSERT_EQ(a.routers.size(), b.routers.size());
  for (std::size_t r = 0; r < a.routers.size(); ++r) {
    EXPECT_EQ(a.routers[r].num_net_in, b.routers[r].num_net_in);
    EXPECT_EQ(a.routers[r].num_net_out, b.routers[r].num_net_out);
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].router, b.nodes[n].router);
  }
  ASSERT_EQ(a.router_xy.size(), b.router_xy.size());
  for (std::size_t r = 0; r < a.router_xy.size(); ++r) {
    EXPECT_EQ(a.router_xy[r].first.value(), b.router_xy[r].first.value());
    EXPECT_EQ(a.router_xy[r].second.value(), b.router_xy[r].second.value());
  }
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    const LinkSpec& x = a.links[i];
    const LinkSpec& y = b.links[i];
    EXPECT_EQ(x.src_router, y.src_router);
    EXPECT_EQ(x.src_port, y.src_port);
    EXPECT_EQ(x.dst_router, y.dst_router);
    EXPECT_EQ(x.dst_port, y.dst_port);
    EXPECT_EQ(x.medium, y.medium);
    EXPECT_EQ(x.latency, y.latency);
    EXPECT_EQ(x.cycles_per_flit, y.cycles_per_flit);
    EXPECT_EQ(x.distance.value(), y.distance.value());
    EXPECT_EQ(x.wireless_channel, y.wireless_channel);
    EXPECT_EQ(x.name, y.name);
  }
  ASSERT_EQ(a.media.size(), b.media.size());
  for (std::size_t i = 0; i < a.media.size(); ++i) {
    const MediumSpec& x = a.media[i];
    const MediumSpec& y = b.media[i];
    EXPECT_EQ(x.medium, y.medium);
    EXPECT_EQ(x.arbitration, y.arbitration);
    EXPECT_EQ(x.writers, y.writers);
    EXPECT_EQ(x.readers, y.readers);
    EXPECT_EQ(x.latency, y.latency);
    EXPECT_EQ(x.cycles_per_flit, y.cycles_per_flit);
    EXPECT_EQ(x.max_packet_flits, y.max_packet_flits);
    EXPECT_EQ(x.distance.value(), y.distance.value());
    EXPECT_EQ(x.multicast_rx, y.multicast_rx);
    EXPECT_EQ(x.wireless_channel, y.wireless_channel);
    EXPECT_EQ(x.name, y.name);
    if (x.readers.size() > 1) {
      ASSERT_TRUE(static_cast<bool>(x.select_reader));
      ASSERT_TRUE(static_cast<bool>(y.select_reader));
      for (int d = 0; d < a.num_routers(); ++d) {
        EXPECT_EQ(x.select_reader(0, d), y.select_reader(0, d))
            << "medium " << i << " reader choice for dst router " << d;
      }
    }
  }
  ASSERT_EQ(a.vc_classes.size(), b.vc_classes.size());
  for (std::size_t c = 0; c < a.vc_classes.size(); ++c) {
    EXPECT_EQ(a.vc_classes[c].first, b.vc_classes[c].first);
    EXPECT_EQ(a.vc_classes[c].count, b.vc_classes[c].count);
  }
  const auto expect_tables_equal =
      [&](const std::vector<std::vector<RouteEntry>>& ta,
          const std::vector<std::vector<RouteEntry>>& tb) {
        ASSERT_EQ(ta.size(), tb.size());
        for (std::size_t r = 0; r < ta.size(); ++r) {
          for (std::size_t d = 0; d < ta[r].size(); ++d) {
            if (r == d) continue;
            EXPECT_EQ(ta[r][d].out_port, tb[r][d].out_port)
                << "route " << r << " -> " << d;
            EXPECT_EQ(ta[r][d].vc_class, tb[r][d].vc_class)
                << "route " << r << " -> " << d;
          }
        }
      };
  expect_tables_equal(a.route_table, b.route_table);
  EXPECT_EQ(a.has_alt_routing(), b.has_alt_routing());
  if (a.has_alt_routing() && b.has_alt_routing()) {
    expect_tables_equal(a.route_table_alt, b.route_table_alt);
    EXPECT_EQ(a.alt_min_class, b.alt_min_class);
  }
}

topofile::ExportPolicy cmesh_policy(int cores, bool generated = true) {
  topofile::ExportPolicy policy;
  policy.emulates = "cmesh";
  policy.generated_routing = generated;
  policy.bisection["electrical"] = 2.0 * (cores == 1024 ? 16 : 8);
  return policy;
}

topofile::ExportPolicy own_policy() {
  topofile::ExportPolicy policy;
  policy.emulates = "own";
  policy.bisection["wireless"] = 8.0;
  return policy;
}

// ---------------------------------------------------------------------------
// Exporter round-trips: hand-built -> file -> parsed must reproduce the spec.

TEST(TopofileRoundTrip, Cmesh1024GeneratedRouting) {
  const TopologyOptions options = options_for(1024);
  const NetworkSpec hand = build_topology(TopologyKind::kCMesh, options);
  const std::string text =
      topofile::export_topofile(hand, options, cmesh_policy(1024));
  const NetworkSpec loaded = load_text(text, 1024);
  // Generated shortest-path routing with the lowest-port tie-break must
  // reproduce the hand-written XY DOR tables exactly.
  expect_specs_equal(hand, loaded);
}

TEST(TopofileRoundTrip, Own256ExplicitTables) {
  const TopologyOptions options = options_for(256);
  const NetworkSpec hand = build_topology(TopologyKind::kOwn, options);
  const std::string text =
      topofile::export_topofile(hand, options, own_policy());
  const NetworkSpec loaded = load_text(text, 256);
  expect_specs_equal(hand, loaded);
}

TEST(TopofileRoundTrip, CmeshO1TurnKeepsAltTable) {
  TopologyOptions options = options_for(256);
  options.cmesh_o1turn = true;
  const NetworkSpec hand = build_topology(TopologyKind::kCMesh, options);
  const std::string text = topofile::export_topofile(
      hand, options, cmesh_policy(256, /*generated=*/false));
  TopologyOptions reload = options;
  reload.topofile_text = text;
  const NetworkSpec loaded = topofile::load_topofile(text, reload);
  ASSERT_TRUE(loaded.has_alt_routing());
  expect_specs_equal(hand, loaded);
}

TEST(TopofileRoundTrip, GeneratedMatchesXYOnCmesh256) {
  const TopologyOptions options = options_for(256);
  const NetworkSpec hand = build_topology(TopologyKind::kCMesh, options);
  const NetworkSpec loaded = load_text(
      topofile::export_topofile(hand, options, cmesh_policy(256)), 256);
  ASSERT_EQ(loaded.vc_classes.size(), 1u);  // acyclic CDG: no escape classes
  expect_specs_equal(hand, loaded);
}

// The checked-in files must not drift from the builders that exported them.
TEST(TopofileRoundTrip, CheckedInFilesMatchBuilders) {
  const std::string dir =
      std::string(OWNSIM_SOURCE_DIR) + "/configs/topologies/";
  {
    const TopologyOptions options = options_for(1024);
    const NetworkSpec hand = build_topology(TopologyKind::kCMesh, options);
    EXPECT_EQ(topofile::export_topofile(hand, options, cmesh_policy(1024)),
              topofile::read_topofile(dir + "cmesh1024.topo.json"));
  }
  {
    const TopologyOptions options = options_for(256);
    const NetworkSpec hand = build_topology(TopologyKind::kOwn, options);
    EXPECT_EQ(topofile::export_topofile(hand, options, own_policy()),
              topofile::read_topofile(dir + "own256.topo.json"));
  }
}

// ---------------------------------------------------------------------------
// Report byte-identity: a file run must be indistinguishable from the
// hand-built topology it emulates, under both kernels.

void expect_byte_identical_reports(TopologyKind kind, int cores,
                                   const std::string& text, double rate) {
  ExperimentConfig hand;
  hand.topology = kind;
  hand.options.num_cores = cores;
  hand.rate = rate;
  hand.phases.warmup = 100;
  hand.phases.measure = 200;

  ExperimentConfig file = hand;
  file.topology = TopologyKind::kFile;
  file.options.topofile_text = text;

  for (const KernelMode mode : {KernelMode::kLockstep, KernelMode::kActivity}) {
    hand.kernel = mode;
    file.kernel = mode;
    const std::string hand_json =
        experiment_result_json(run_experiment(hand));
    const std::string file_json =
        experiment_result_json(run_experiment(file));
    EXPECT_EQ(hand_json, file_json)
        << "kernel " << static_cast<int>(mode) << " on " << to_string(kind);
  }
}

TEST(TopofileEquivalence, Own256ByteIdenticalAcrossKernels) {
  const TopologyOptions options = options_for(256);
  const std::string text = topofile::export_topofile(
      build_topology(TopologyKind::kOwn, options), options, own_policy());
  expect_byte_identical_reports(TopologyKind::kOwn, 256, text, 0.004);
}

TEST(TopofileEquivalence, Cmesh1024ByteIdenticalAcrossKernels) {
  const TopologyOptions options = options_for(1024);
  const std::string text = topofile::export_topofile(
      build_topology(TopologyKind::kCMesh, options), options,
      cmesh_policy(1024));
  expect_byte_identical_reports(TopologyKind::kCMesh, 1024, text, 0.002);
}

// ---------------------------------------------------------------------------
// Deadlock checker.

TEST(TopofileDeadlock, AcceptsAllBuiltinTopologies) {
  for (const TopologyKind kind : paper_topologies()) {
    const NetworkSpec spec = build_topology(kind, options_for(256));
    const topofile::DeadlockReport report = topofile::check_deadlock(spec);
    EXPECT_TRUE(report.deadlock_free) << to_string(kind);
  }
  const topofile::DeadlockReport own1024 = topofile::check_deadlock(
      build_topology(TopologyKind::kOwn, options_for(1024)));
  EXPECT_TRUE(own1024.deadlock_free);
}

TEST(TopofileDeadlock, CyclicTableRefusedWithCycleNamed) {
  // 3-ring with single-class clockwise routing: the classic credit cycle.
  const std::string text = R"({
    "topofile": 1, "name": "cyclic-3", "nodes": 3, "concentration": 1,
    "routers": [{"count": 3, "in": 1, "out": 1}],
    "links": [
      {"src": [0,0], "dst": [1,0], "medium": "electrical", "latency": 1,
       "cpf": 1, "name": "ring0"},
      {"src": [1,0], "dst": [2,0], "medium": "electrical", "latency": 1,
       "cpf": 1, "name": "ring1"},
      {"src": [2,0], "dst": [0,0], "medium": "electrical", "latency": 1,
       "cpf": 1, "name": "ring2"}
    ],
    "routing": {"mode": "table", "classes": [[0, "rest"]],
      "table": [
        [[-1,0],[0,0],[0,0]],
        [[0,0],[-1,0],[0,0]],
        [[0,0],[0,0],[-1,0]]
      ]}
  })";
  try {
    load_text(text, 3, 1);
    FAIL() << "cyclic topology must be refused at load time";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("channel-dependency cycle"), std::string::npos)
        << message;
    EXPECT_NE(message.find("ring0"), std::string::npos) << message;
  }
}

TEST(TopofileDeadlock, GeneratedRingEscalatesClasses) {
  // The checked-in demo ring: generation must break the cycle with a
  // second VC class and pass its own checker.
  const std::string text = topofile::read_topofile(
      std::string(OWNSIM_SOURCE_DIR) + "/configs/topologies/ring8.topo.json");
  const NetworkSpec spec = load_text(text, 8, 1);
  EXPECT_EQ(spec.vc_classes.size(), 2u);
  EXPECT_TRUE(topofile::check_deadlock(spec).deadlock_free);
  // Classes never decrease along any route.
  for (int r = 0; r < 8; ++r) {
    for (int d = 0; d < 8; ++d) {
      if (r == d) continue;
      const int next = (r + 1) % 8;
      if (next == d) continue;
      EXPECT_LE(spec.route_table[r][d].vc_class,
                spec.route_table[next][d].vc_class);
    }
  }
}

// ---------------------------------------------------------------------------
// Parser rejection corpus.

void expect_rejected(const std::string& text, const std::string& needle,
                     int cores = 2, int concentration = 1) {
  try {
    load_text(text, cores, concentration);
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

std::string two_router_text(const std::string& links,
                            const std::string& routing) {
  return std::string(R"({"topofile": 1, "name": "t", "nodes": 2,
    "concentration": 1, "routers": [{"count": 2, "in": 1, "out": 1}],
    "links": [)") +
         links + "], \"routing\": " + routing + "}";
}

constexpr char kLinkFwd[] =
    R"({"src": [0,0], "dst": [1,0], "medium": "electrical",
        "latency": 1, "cpf": 1})";
constexpr char kLinkRev[] =
    R"({"src": [1,0], "dst": [0,0], "medium": "electrical",
        "latency": 1, "cpf": 1})";
constexpr char kRoutingGenerated[] = R"({"mode": "generated"})";

TEST(TopofileParser, RejectionCorpus) {
  // Bad link medium name.
  expect_rejected(
      two_router_text(std::string(R"({"src": [0,0], "dst": [1,0],
          "medium": "optical", "latency": 1, "cpf": 1},)") +
                          kLinkRev,
                      kRoutingGenerated),
      "bad link medium");
  // Dangling link: destination router out of range.
  expect_rejected(
      two_router_text(std::string(R"({"src": [0,0], "dst": [5,0],
          "medium": "electrical", "latency": 1, "cpf": 1},)") +
                          kLinkRev,
                      kRoutingGenerated),
      "out of range");
  // Disconnected node: no route from router 1 back to router 0.
  expect_rejected(two_router_text(kLinkFwd, kRoutingGenerated),
                  "disconnected");
  // Explicit classes are meaningless under generated routing.
  expect_rejected(
      two_router_text(std::string(kLinkFwd) + "," + kLinkRev,
                      R"({"mode": "generated", "classes": [[0, "rest"]]})"),
      "unknown key 'classes'");
  // Unknown top-level key.
  expect_rejected(
      R"({"topofile": 1, "name": "t", "nodes": 2, "concentration": 1,
          "widgets": 3, "routers": [{"count": 2, "in": 1, "out": 1}],
          "routing": {"mode": "generated"}})",
      "unknown key 'widgets'");
  // `partitions`, the per-router labels of a removed partitioned kernel, is
  // no longer part of the format: a file carrying it gets the typed error.
  const std::string with_partitions =
      R"({"topofile": 1, "name": "t", "nodes": 2, "concentration": 1,
          "partitions": [[2, 0]],
          "routers": [{"count": 2, "in": 1, "out": 1}],
          "routing": {"mode": "generated"}})";
  EXPECT_THROW(load_text(with_partitions, 2, 1), std::invalid_argument);
  expect_rejected(with_partitions, "top level: unknown key 'partitions'");
  // Unsupported format version.
  expect_rejected(R"({"topofile": 99, "name": "t", "nodes": 2})",
                  "format version");
  // Node/core count mismatch names the fix.
  expect_rejected(
      two_router_text(std::string(kLinkFwd) + "," + kLinkRev,
                      kRoutingGenerated),
      "pass cores=2", /*cores=*/4, /*concentration=*/1);
  // MWSR photonic media have exactly one reader.
  expect_rejected(
      R"({"topofile": 1, "name": "t", "nodes": 2, "concentration": 1,
          "routers": [{"count": 2, "in": 1, "out": 1}],
          "media": [{"type": "photonic-mwsr", "writers": [[0,0],[1,0]],
                     "readers": [[0,0],[1,0]], "latency": 2, "cpf": 4,
                     "name": "wg"}],
          "routing": {"mode": "generated"}})",
      "exactly one reader");
  // Oversized files are refused by name before anything is sized by them
  // (the route table is routers x routers).
  expect_rejected(
      R"({"topofile": 1, "name": "t", "nodes": 200000, "concentration": 1,
          "routers": [{"count": 200000, "in": 1, "out": 1}],
          "routing": {"mode": "generated"}})",
      "nodes: 200000 exceeds the limit of 4096", /*cores=*/200000);
  expect_rejected(
      R"({"topofile": 1, "name": "t", "nodes": 2, "concentration": 1,
          "routers": [{"count": 4000, "in": 1, "out": 1},
                      {"count": 4000, "in": 1, "out": 1}],
          "routing": {"mode": "generated"}})",
      "more than the limit of 4096 routers");
}

// ---------------------------------------------------------------------------
// Canonical config JSON: content-addressed, path-independent,
// generator-versioned.

TEST(TopofileCacheKey, HashesContentNotPath) {
  const TopologyOptions options = options_for(256);
  const std::string text = topofile::export_topofile(
      build_topology(TopologyKind::kOwn, options), options, own_policy());

  ExperimentConfig a;
  a.topology = TopologyKind::kFile;
  a.options.num_cores = 256;
  a.options.topofile_path = "/some/where/own256.topo.json";
  a.options.topofile_text = text;
  const std::string canonical = canonical_config_json(a);
  EXPECT_NE(canonical.find("\"topofile.sha256\""), std::string::npos);
  EXPECT_NE(canonical.find("\"topofile.generator\""), std::string::npos);

  ExperimentConfig b = a;
  b.options.topofile_path = "/else/where/copy.topo.json";
  // Same bytes, different path: the same experiment.
  EXPECT_EQ(canonical_config_json(b), canonical);

  // Mutated bytes, same path: a different experiment.
  ExperimentConfig c = a;
  c.options.topofile_text.insert(c.options.topofile_text.find("own-256"),
                                 "x");
  EXPECT_NE(canonical_config_json(c), canonical);

  // A file topology whose text was never loaded has no canonical form.
  ExperimentConfig unloaded = a;
  unloaded.options.topofile_text.clear();
  EXPECT_THROW(canonical_config_json(unloaded), std::logic_error);

  // Non-file configs do not carry topofile keys at all.
  ExperimentConfig plain;
  plain.topology = TopologyKind::kOwn;
  EXPECT_EQ(canonical_config_json(plain).find("topofile"), std::string::npos);
}

TEST(TopofileReports, OddLinkNamesStayValidJson) {
  // A link named `ring"0\x` must come out escaped from both report=json
  // (the channel list) and counters=1 (the registry's "link.<name>.flits").
  std::string text = topofile::read_topofile(
      std::string(OWNSIM_SOURCE_DIR) + "/configs/topologies/ring8.topo.json");
  const std::string plain = "\"name\": \"ring0\"";
  ASSERT_NE(text.find(plain), std::string::npos);
  text.replace(text.find(plain), plain.size(), "\"name\": \"ring\\\"0\\\\x\"");
  const std::string odd = "ring\"0\\x";

  ExperimentConfig config;
  config.topology = TopologyKind::kFile;
  config.options.num_cores = 8;
  config.options.topofile_text = text;
  config.rate = 0.01;
  config.phases = RunPhases{100, 300, 2000};
  std::string report;
  std::ostringstream counters;
  RunHooks hooks;
  hooks.after_run = [&](Network& network, const ExperimentResult&) {
    report = NetworkReport(network).to_json().dump();
    network.obs().write_json(counters);
  };
  run_experiment(config, hooks);

  const serve::Json parsed_report = serve::Json::parse(report);
  bool found = false;
  for (const serve::Json& channel :
       parsed_report.find("channels")->as_array()) {
    found = found || channel.find("name")->as_string() == odd;
  }
  EXPECT_TRUE(found) << report;
  const serve::Json parsed_counters = serve::Json::parse(counters.str());
#if OWNSIM_OBS_ENABLED
  EXPECT_NE(parsed_counters.find("link." + odd + ".flits"), nullptr)
      << counters.str();
#endif
}

}  // namespace
}  // namespace ownsim
