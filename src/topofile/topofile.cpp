#include "topofile/topofile.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/json.hpp"
#include "topofile/routegen.hpp"
#include "topology/bisection.hpp"

namespace ownsim::topofile {
namespace {

using serve::Json;

constexpr int kFormatVersion = 1;

/// Largest node count, and largest summed router count, a file may declare:
/// 4x the nodes and 16x the routers of the largest built-in (OWN-1024: 1,024
/// nodes, 256 routers). The route table is routers x routers, so without a
/// bound a 200-byte file can ask for more memory than the machine has.
constexpr std::int64_t kMaxCount = 4096;

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("topofile: " + message);
}

/// Rejects keys outside `allowed` (strict schema: a topology file is hashed
/// into the canonical config JSON, so silent key drops would alias distinct
/// topologies).
void check_keys(const Json::Object& object, const char* where,
                const std::set<std::string>& allowed) {
  for (const auto& [key, value] : object) {
    if (allowed.count(key) == 0) {
      fail(std::string(where) + ": unknown key '" + key + "'");
    }
  }
}

const Json& require(const Json::Object& object, const char* where,
                    const char* key) {
  const auto it = object.find(key);
  if (it == object.end()) {
    fail(std::string(where) + ": missing required key '" + key + "'");
  }
  return it->second;
}

int require_int(const Json::Object& object, const char* where,
                const char* key) {
  return static_cast<int>(require(object, where, key).as_int());
}

int optional_int(const Json::Object& object, const char* key, int fallback) {
  const auto it = object.find(key);
  return it == object.end() ? fallback : static_cast<int>(it->second.as_int());
}

/// The top-level "nodes", range-checked before anything is sized by it.
int require_nodes(const Json::Object& root) {
  const std::int64_t nodes = require(root, "top level", "nodes").as_int();
  if (nodes < 1) fail("nodes: want >= 1");
  if (nodes > kMaxCount) {
    fail("nodes: " + std::to_string(nodes) + " exceeds the limit of " +
         std::to_string(kMaxCount));
  }
  return static_cast<int>(nodes);
}

std::string optional_string(const Json::Object& object, const char* key) {
  const auto it = object.find(key);
  return it == object.end() ? std::string() : it->second.as_string();
}

const char* medium_name(MediumType medium) {
  switch (medium) {
    case MediumType::kElectrical: return "electrical";
    case MediumType::kPhotonic: return "photonic";
    case MediumType::kWireless: return "wireless";
  }
  return "?";
}

MediumType parse_link_medium(const std::string& name) {
  if (name == "electrical") return MediumType::kElectrical;
  if (name == "photonic") return MediumType::kPhotonic;
  if (name == "wireless") return MediumType::kWireless;
  fail("bad link medium '" + name +
       "' (want electrical|photonic|wireless)");
}

MediumType parse_shared_medium_type(const std::string& name) {
  if (name == "photonic-mwsr") return MediumType::kPhotonic;
  if (name == "wireless-swmr") return MediumType::kWireless;
  fail("bad medium type '" + name + "' (want photonic-mwsr|wireless-swmr)");
}

/// A `[router, port]` endpoint.
std::pair<RouterId, PortId> parse_endpoint(const Json& json, const char* where,
                                           int num_routers) {
  const Json::Array& pair = json.as_array();
  if (pair.size() != 2) fail(std::string(where) + ": want [router, port]");
  const auto router = static_cast<RouterId>(pair[0].as_int());
  const auto port = static_cast<PortId>(pair[1].as_int());
  if (router < 0 || router >= num_routers) {
    fail(std::string(where) + ": router " + std::to_string(router) +
         " out of range [0, " + std::to_string(num_routers) + ")");
  }
  if (port < 0) fail(std::string(where) + ": negative port");
  return {router, port};
}

/// The per-medium-type cpf override from TopologyOptions.
int cpf_override(MediumType medium, const TopologyOptions& options) {
  switch (medium) {
    case MediumType::kElectrical: return options.electrical_cpf;
    case MediumType::kPhotonic: return options.photonic_cpf;
    case MediumType::kWireless: return options.wireless_cpf;
  }
  return 0;
}

/// Resolves a channel's `cpf` value: the literal "bisection" defers to the
/// equal-bisection rule using the file's crossing-channel count for this
/// medium; an integer is used verbatim. Either way an options override for
/// the medium type wins (same semantics as the hand builders).
int resolve_channel_cpf(const Json& value, MediumType medium,
                        const std::map<std::string, double>& bisection,
                        const TopologyOptions& options, const char* where) {
  if (value.is_string()) {
    if (value.as_string() != "bisection") {
      fail(std::string(where) + ": cpf must be an integer or \"bisection\"");
    }
    const auto it = bisection.find(medium_name(medium));
    if (it == bisection.end()) {
      fail(std::string(where) + ": cpf is \"bisection\" but the file's "
           "bisection object has no '" + medium_name(medium) + "' entry");
    }
    return resolve_cpf(cpf_override(medium, options), it->second, options);
  }
  const int cpf = static_cast<int>(value.as_int());
  if (cpf < 1) fail(std::string(where) + ": cpf must be >= 1");
  const int override_cpf = cpf_override(medium, options);
  return override_cpf > 0 ? override_cpf : cpf;
}

/// Millimetre value whose reload (`mm * 1.0_mm`) reproduces `distance`
/// bit-exactly; the naive quotient can be one ulp off, so nudge if needed.
double mm_for_roundtrip(Length distance) {
  double mm = distance.in(1.0_mm);
  for (int step = 0; step < 4; ++step) {
    if ((mm * 1.0_mm).value() == distance.value()) return mm;
    const double up = std::nextafter(mm, std::numeric_limits<double>::max());
    if ((up * 1.0_mm).value() == distance.value()) return up;
    mm = std::nextafter(mm, std::numeric_limits<double>::lowest());
  }
  throw std::logic_error("topofile: distance has no exact mm representation");
}

Length length_from_mm(double mm) { return mm * 1.0_mm; }

/// Parses the `routing.classes` array into VC class ranges over
/// `[0, num_vcs)`. The last count may be the string "rest".
std::vector<VcClassRange> parse_vc_classes(const Json& json, int num_vcs) {
  const Json::Array& ranges = json.as_array();
  if (ranges.empty()) fail("routing.classes: want at least one class");
  std::vector<VcClassRange> classes;
  int expect_first = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const Json::Array& pair = ranges[i].as_array();
    if (pair.size() != 2) fail("routing.classes: want [first, count] pairs");
    const int first = static_cast<int>(pair[0].as_int());
    int count = 0;
    if (pair[1].is_string()) {
      if (pair[1].as_string() != "rest" || i + 1 != ranges.size()) {
        fail("routing.classes: \"rest\" is only valid as the last count");
      }
      count = num_vcs - first;
    } else {
      count = static_cast<int>(pair[1].as_int());
    }
    if (first != expect_first || count < 1) {
      fail("routing.classes: ranges must partition a prefix of the VC space");
    }
    expect_first = first + count;
    classes.push_back({first, count});
  }
  if (expect_first > num_vcs) {
    fail("routing.classes: needs " + std::to_string(expect_first) +
         " VCs but only " + std::to_string(num_vcs) +
         " are configured (raise vcs=)");
  }
  // Hand builders give the last class all remaining VCs; table files say
  // "rest" for the same effect, so a plain prefix partition is also fine.
  return classes;
}

/// Parses a full route table (`[[port, class], ...]` per router row; the
/// diagonal must be [-1, 0]).
std::vector<std::vector<RouteEntry>> parse_route_table(const Json& json,
                                                       int num_routers,
                                                       int num_classes,
                                                       const char* where) {
  const Json::Array& rows = json.as_array();
  if (static_cast<int>(rows.size()) != num_routers) {
    fail(std::string(where) + ": want one row per router");
  }
  std::vector<std::vector<RouteEntry>> table(
      static_cast<std::size_t>(num_routers),
      std::vector<RouteEntry>(static_cast<std::size_t>(num_routers)));
  for (int r = 0; r < num_routers; ++r) {
    const Json::Array& row = rows[static_cast<std::size_t>(r)].as_array();
    if (static_cast<int>(row.size()) != num_routers) {
      fail(std::string(where) + ": row " + std::to_string(r) +
           " wants one entry per destination router");
    }
    for (int d = 0; d < num_routers; ++d) {
      const Json::Array& entry = row[static_cast<std::size_t>(d)].as_array();
      if (entry.size() != 2) {
        fail(std::string(where) + ": entries are [out_port, vc_class]");
      }
      const int port = static_cast<int>(entry[0].as_int());
      const int vc_class = static_cast<int>(entry[1].as_int());
      if (r == d) {
        if (port != -1 || vc_class != 0) {
          fail(std::string(where) + ": diagonal entries must be [-1, 0]");
        }
        continue;
      }
      if (port < 0) {
        fail(std::string(where) + ": entry [" + std::to_string(r) + "][" +
             std::to_string(d) + "] has no out port");
      }
      if (vc_class < 0 || vc_class >= num_classes) {
        fail(std::string(where) + ": entry [" + std::to_string(r) + "][" +
             std::to_string(d) + "] names vc_class " +
             std::to_string(vc_class) + " outside the declared classes");
      }
      table[static_cast<std::size_t>(r)][static_cast<std::size_t>(d)] = {
          static_cast<PortId>(port), static_cast<std::int8_t>(vc_class)};
    }
  }
  return table;
}

Json::Object parse_root(const std::string& text) {
  Json root;
  try {
    root = Json::parse(text);
  } catch (const std::exception& e) {
    fail(std::string("invalid JSON: ") + e.what());
  }
  if (!root.is_object()) fail("top level must be an object");
  const Json::Object& object = root.as_object();
  const auto version = object.find("topofile");
  if (version == object.end() ||
      version->second.as_int() != kFormatVersion) {
    fail("missing or unsupported format version (want \"topofile\": " +
         std::to_string(kFormatVersion) + ")");
  }
  return object;
}

}  // namespace

std::string read_topofile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("topofile: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TopofileInfo probe_topofile(const std::string& text) {
  const Json::Object root = parse_root(text);
  TopofileInfo info;
  info.name = require(root, "top level", "name").as_string();
  info.num_nodes = require_nodes(root);
  info.emulates = optional_string(root, "emulates");
  return info;
}

TopologyKind topofile_reporting_kind(const TopologyOptions& options) {
  const std::string text = options.topofile_text.empty()
                               ? read_topofile(options.topofile_path)
                               : options.topofile_text;
  const TopofileInfo info = probe_topofile(text);
  if (info.emulates.empty()) return TopologyKind::kFile;
  return parse_topology(info.emulates);
}

NetworkSpec load_topofile(const std::string& text,
                          const TopologyOptions& options) {
  const Json::Object root = parse_root(text);
  check_keys(root, "top level",
             {"topofile", "name", "emulates", "nodes", "concentration",
              "attach", "min_vcs", "routers", "positions_mm",
              "bisection", "links", "media", "routing"});

  NetworkSpec spec;
  spec.name = require(root, "top level", "name").as_string();
  spec.num_nodes = require_nodes(root);
  if (spec.num_nodes != options.num_cores) {
    fail("file describes " + std::to_string(spec.num_nodes) +
         " nodes but the run requests " + std::to_string(options.num_cores) +
         " cores (pass cores=" + std::to_string(spec.num_nodes) + ")");
  }
  spec.num_vcs = options.num_vcs;
  spec.buffer_depth = options.buffer_depth;

  const std::string emulates = optional_string(root, "emulates");
  if (!emulates.empty()) {
    const TopologyKind kind = parse_topology(emulates);  // throws on unknown
    if (kind == TopologyKind::kFile) fail("emulates: cannot emulate 'file'");
  }
  const int min_vcs = optional_int(root, "min_vcs", 1);
  if (options.num_vcs < min_vcs) {
    fail("file needs >= " + std::to_string(min_vcs) + " VCs (pass vcs=" +
         std::to_string(min_vcs) + " or more)");
  }

  // Routers: run-length groups of identical port shapes.
  std::int64_t total_routers = 0;
  for (const Json& group : require(root, "top level", "routers").as_array()) {
    const Json::Object& g = group.as_object();
    check_keys(g, "routers[]", {"count", "in", "out"});
    const std::int64_t count = require(g, "routers[]", "count").as_int();
    const int num_in = require_int(g, "routers[]", "in");
    const int num_out = require_int(g, "routers[]", "out");
    if (count < 1 || num_in < 0 || num_out < 0) {
      fail("routers[]: bad count/in/out");
    }
    if (count > kMaxCount - total_routers) {
      fail("routers: more than the limit of " + std::to_string(kMaxCount) +
           " routers");
    }
    total_routers += count;
    spec.routers.insert(spec.routers.end(), static_cast<std::size_t>(count),
                        {num_in, num_out});
  }
  const int num_routers = spec.num_routers();
  if (num_routers < 1) fail("routers: want at least one router");

  // Node attachment: uniform concentration or an explicit per-node map.
  const bool has_concentration = root.count("concentration") > 0;
  const bool has_attach = root.count("attach") > 0;
  if (has_concentration == has_attach) {
    fail("want exactly one of 'concentration' and 'attach'");
  }
  spec.nodes.resize(static_cast<std::size_t>(spec.num_nodes));
  if (has_concentration) {
    const int concentration = require_int(root, "top level", "concentration");
    if (concentration < 1 || spec.num_nodes != num_routers * concentration) {
      fail("concentration: want nodes == routers * concentration");
    }
    for (NodeId n = 0; n < spec.num_nodes; ++n) {
      spec.nodes[static_cast<std::size_t>(n)].router = n / concentration;
    }
  } else {
    const Json::Array& attach = root.at("attach").as_array();
    if (static_cast<int>(attach.size()) != spec.num_nodes) {
      fail("attach: want one router id per node");
    }
    for (NodeId n = 0; n < spec.num_nodes; ++n) {
      const auto router =
          static_cast<RouterId>(attach[static_cast<std::size_t>(n)].as_int());
      if (router < 0 || router >= num_routers) {
        fail("attach: node " + std::to_string(n) + " names router " +
             std::to_string(router) + " out of range");
      }
      spec.nodes[static_cast<std::size_t>(n)].router = router;
    }
  }

  // Optional floorplan (thermal model input).
  if (const auto it = root.find("positions_mm"); it != root.end()) {
    const Json::Array& positions = it->second.as_array();
    if (static_cast<int>(positions.size()) != num_routers) {
      fail("positions_mm: want one [x, y] per router");
    }
    spec.router_xy.reserve(positions.size());
    for (const Json& xy : positions) {
      const Json::Array& pair = xy.as_array();
      if (pair.size() != 2) fail("positions_mm: want [x, y] pairs");
      spec.router_xy.push_back({length_from_mm(pair[0].as_double()),
                                length_from_mm(pair[1].as_double())});
    }
  }

  // Bisection crossing-channel counts for "cpf": "bisection" channels.
  std::map<std::string, double> bisection;
  if (const auto it = root.find("bisection"); it != root.end()) {
    for (const auto& [key, value] : it->second.as_object()) {
      if (key != "electrical" && key != "photonic" && key != "wireless") {
        fail("bisection: unknown medium '" + key + "'");
      }
      const double crossing = value.as_double();
      if (!(crossing > 0.0)) fail("bisection: crossing counts must be > 0");
      bisection[key] = crossing;
    }
  }

  // Point-to-point links.
  if (const auto it = root.find("links"); it != root.end()) {
    for (const Json& entry : it->second.as_array()) {
      const Json::Object& l = entry.as_object();
      check_keys(l, "links[]",
                 {"src", "dst", "medium", "latency", "cpf", "distance_mm",
                  "channel", "name"});
      LinkSpec link;
      std::tie(link.src_router, link.src_port) =
          parse_endpoint(require(l, "links[]", "src"), "links[].src",
                         num_routers);
      std::tie(link.dst_router, link.dst_port) =
          parse_endpoint(require(l, "links[]", "dst"), "links[].dst",
                         num_routers);
      link.medium =
          parse_link_medium(require(l, "links[]", "medium").as_string());
      link.latency = require_int(l, "links[]", "latency");
      if (link.latency < 1) fail("links[]: latency must be >= 1");
      link.cycles_per_flit =
          resolve_channel_cpf(require(l, "links[]", "cpf"), link.medium,
                              bisection, options, "links[]");
      if (const auto d = l.find("distance_mm"); d != l.end()) {
        link.distance = length_from_mm(d->second.as_double());
      }
      link.wireless_channel = optional_int(l, "channel", -1);
      link.name = optional_string(l, "name");
      spec.links.push_back(std::move(link));
    }
  }

  // Shared media.
  if (const auto it = root.find("media"); it != root.end()) {
    for (const Json& entry : it->second.as_array()) {
      const Json::Object& m = entry.as_object();
      check_keys(m, "media[]",
                 {"type", "arbitration", "writers", "readers", "latency",
                  "cpf", "max_packet_flits", "distance_mm", "multicast_rx",
                  "channel", "name"});
      MediumSpec medium;
      medium.medium =
          parse_shared_medium_type(require(m, "media[]", "type").as_string());
      const std::string arbitration = optional_string(m, "arbitration");
      if (arbitration.empty()) {
        medium.arbitration = options.ideal_arbitration
                                 ? ArbitrationKind::kIdeal
                                 : ArbitrationKind::kTokenRing;
      } else if (arbitration == "token") {
        medium.arbitration = ArbitrationKind::kTokenRing;
      } else if (arbitration == "ideal") {
        medium.arbitration = ArbitrationKind::kIdeal;
      } else {
        fail("media[]: bad arbitration '" + arbitration +
             "' (want token|ideal)");
      }
      for (const Json& w : require(m, "media[]", "writers").as_array()) {
        medium.writers.push_back(
            parse_endpoint(w, "media[].writers", num_routers));
      }
      for (const Json& r : require(m, "media[]", "readers").as_array()) {
        medium.readers.push_back(
            parse_endpoint(r, "media[].readers", num_routers));
      }
      if (medium.writers.empty() || medium.readers.empty()) {
        fail("media[]: want at least one writer and one reader");
      }
      if (medium.medium == MediumType::kPhotonic &&
          medium.readers.size() != 1) {
        fail("media[]: photonic-mwsr media have exactly one reader");
      }
      medium.latency = require_int(m, "media[]", "latency");
      if (medium.latency < 1) fail("media[]: latency must be >= 1");
      medium.cycles_per_flit =
          resolve_channel_cpf(require(m, "media[]", "cpf"), medium.medium,
                              bisection, options, "media[]");
      medium.max_packet_flits =
          optional_int(m, "max_packet_flits", options.max_packet_flits);
      if (const auto d = m.find("distance_mm"); d != m.end()) {
        medium.distance = length_from_mm(d->second.as_double());
      }
      if (const auto mc = m.find("multicast_rx"); mc != m.end()) {
        medium.multicast_rx = mc->second.as_bool();
      }
      medium.wireless_channel = optional_int(m, "channel", -1);
      medium.name = optional_string(m, "name");
      if (medium.readers.size() > 1) {
        // SWMR reader choice is structural, not serialized: the reader
        // nearest to the destination takes the flit (routegen).
        std::vector<int> reader_map =
            nearest_reader_map(spec, medium.readers);
        medium.select_reader = [map = std::move(reader_map)](
                                   NodeId, RouterId dst_router) {
          return map[static_cast<std::size_t>(dst_router)];
        };
      }
      spec.media.push_back(std::move(medium));
    }
  }

  // Routing: explicit tables or generated shortest paths.
  const Json::Object& routing =
      require(root, "top level", "routing").as_object();
  const std::string mode = require(routing, "routing", "mode").as_string();
  if (mode == "table") {
    check_keys(routing, "routing",
               {"mode", "classes", "table", "alt_table", "alt_min_class"});
    spec.vc_classes = parse_vc_classes(
        require(routing, "routing", "classes"), spec.num_vcs);
    const int num_classes = static_cast<int>(spec.vc_classes.size());
    spec.route_table =
        parse_route_table(require(routing, "routing", "table"), num_routers,
                          num_classes, "routing.table");
    const bool has_alt = routing.count("alt_table") > 0;
    if (has_alt != (routing.count("alt_min_class") > 0)) {
      fail("routing: alt_table and alt_min_class come together");
    }
    if (has_alt) {
      spec.route_table_alt =
          parse_route_table(routing.at("alt_table"), num_routers, num_classes,
                           "routing.alt_table");
      spec.alt_min_class =
          static_cast<int>(routing.at("alt_min_class").as_int());
      if (spec.alt_min_class < 0 || spec.alt_min_class >= num_classes) {
        fail("routing.alt_min_class: out of range");
      }
    }
  } else if (mode == "generated") {
    check_keys(routing, "routing", {"mode", "max_classes"});
    const int max_classes =
        optional_int(routing, "max_classes", spec.num_vcs);
    if (max_classes < 1) fail("routing.max_classes: want >= 1");
    generate_routes(spec, max_classes);
  } else {
    fail("routing.mode: want table|generated");
  }

  spec.validate();
  require_deadlock_free(spec);
  return spec;
}

NetworkSpec build_topofile(const TopologyOptions& options) {
  if (options.topofile_text.empty() && options.topofile_path.empty()) {
    throw std::invalid_argument(
        "topofile: file topology needs a path (topology=file:PATH)");
  }
  const std::string text = options.topofile_text.empty()
                               ? read_topofile(options.topofile_path)
                               : options.topofile_text;
  return load_topofile(text, options);
}

std::string export_topofile(const NetworkSpec& spec,
                            const TopologyOptions& options,
                            const ExportPolicy& policy) {
  Json::Object root;
  root["topofile"] = Json(kFormatVersion);
  root["name"] = Json(spec.name);
  if (!policy.emulates.empty()) root["emulates"] = Json(policy.emulates);
  root["nodes"] = Json(spec.num_nodes);

  const int num_routers = spec.num_routers();
  // Uniform concentration when every node n sits on router n / c.
  int concentration = 0;
  if (num_routers > 0 && spec.num_nodes % num_routers == 0) {
    concentration = spec.num_nodes / num_routers;
    for (NodeId n = 0; n < spec.num_nodes; ++n) {
      if (spec.nodes[static_cast<std::size_t>(n)].router !=
          n / concentration) {
        concentration = 0;
        break;
      }
    }
  }
  if (concentration > 0) {
    root["concentration"] = Json(concentration);
  } else {
    Json::Array attach;
    attach.reserve(spec.nodes.size());
    for (const NodeAttach& node : spec.nodes) {
      attach.push_back(Json(node.router));
    }
    root["attach"] = Json(std::move(attach));
  }

  Json::Array routers;
  for (int r = 0; r < num_routers;) {
    const RouterSpec& shape = spec.routers[static_cast<std::size_t>(r)];
    int count = 1;
    while (r + count < num_routers) {
      const RouterSpec& other =
          spec.routers[static_cast<std::size_t>(r + count)];
      if (other.num_net_in != shape.num_net_in ||
          other.num_net_out != shape.num_net_out) {
        break;
      }
      ++count;
    }
    Json::Object group;
    group["count"] = Json(count);
    group["in"] = Json(shape.num_net_in);
    group["out"] = Json(shape.num_net_out);
    routers.push_back(Json(std::move(group)));
    r += count;
  }
  root["routers"] = Json(std::move(routers));

  if (!spec.router_xy.empty()) {
    Json::Array positions;
    positions.reserve(spec.router_xy.size());
    for (const auto& [x, y] : spec.router_xy) {
      positions.push_back(Json(
          Json::Array{Json(mm_for_roundtrip(x)), Json(mm_for_roundtrip(y))}));
    }
    root["positions_mm"] = Json(std::move(positions));
  }

  if (!policy.bisection.empty()) {
    Json::Object bisection;
    for (const auto& [medium, crossing] : policy.bisection) {
      bisection[medium] = Json(crossing);
    }
    root["bisection"] = Json(std::move(bisection));
  }

  const auto cpf_json = [&policy](MediumType medium, int cpf) {
    return policy.bisection.count(medium_name(medium)) > 0
               ? Json("bisection")
               : Json(cpf);
  };

  if (!spec.links.empty()) {
    Json::Array links;
    links.reserve(spec.links.size());
    for (const LinkSpec& link : spec.links) {
      Json::Object l;
      l["src"] = Json(Json::Array{Json(link.src_router), Json(link.src_port)});
      l["dst"] = Json(Json::Array{Json(link.dst_router), Json(link.dst_port)});
      l["medium"] = Json(medium_name(link.medium));
      l["latency"] = Json(link.latency);
      l["cpf"] = cpf_json(link.medium, link.cycles_per_flit);
      if (link.distance.value() != 0.0) {
        l["distance_mm"] = Json(mm_for_roundtrip(link.distance));
      }
      if (link.wireless_channel >= 0) {
        l["channel"] = Json(link.wireless_channel);
      }
      if (!link.name.empty()) l["name"] = Json(link.name);
      links.push_back(Json(std::move(l)));
    }
    root["links"] = Json(std::move(links));
  }

  if (!spec.media.empty()) {
    Json::Array media;
    media.reserve(spec.media.size());
    const ArbitrationKind default_arbitration =
        options.ideal_arbitration ? ArbitrationKind::kIdeal
                                  : ArbitrationKind::kTokenRing;
    for (const MediumSpec& m : spec.media) {
      Json::Object entry;
      entry["type"] = Json(m.medium == MediumType::kPhotonic
                               ? "photonic-mwsr"
                               : "wireless-swmr");
      if (m.arbitration != default_arbitration) {
        entry["arbitration"] =
            Json(m.arbitration == ArbitrationKind::kIdeal ? "ideal" : "token");
      }
      Json::Array writers;
      writers.reserve(m.writers.size());
      for (const auto& [router, port] : m.writers) {
        writers.push_back(Json(Json::Array{Json(router), Json(port)}));
      }
      entry["writers"] = Json(std::move(writers));
      Json::Array readers;
      readers.reserve(m.readers.size());
      for (const auto& [router, port] : m.readers) {
        readers.push_back(Json(Json::Array{Json(router), Json(port)}));
      }
      entry["readers"] = Json(std::move(readers));
      entry["latency"] = Json(m.latency);
      entry["cpf"] = cpf_json(m.medium, m.cycles_per_flit);
      if (m.max_packet_flits != options.max_packet_flits) {
        entry["max_packet_flits"] = Json(m.max_packet_flits);
      }
      if (m.distance.value() != 0.0) {
        entry["distance_mm"] = Json(mm_for_roundtrip(m.distance));
      }
      if (m.multicast_rx) entry["multicast_rx"] = Json(true);
      if (m.wireless_channel >= 0) entry["channel"] = Json(m.wireless_channel);
      if (!m.name.empty()) entry["name"] = Json(m.name);
      media.push_back(Json(std::move(entry)));
    }
    root["media"] = Json(std::move(media));
  }

  Json::Object routing;
  if (policy.generated_routing) {
    routing["mode"] = Json("generated");
  } else {
    routing["mode"] = Json("table");
    Json::Array classes;
    for (std::size_t i = 0; i < spec.vc_classes.size(); ++i) {
      const VcClassRange& range = spec.vc_classes[i];
      const bool rest = i + 1 == spec.vc_classes.size() &&
                        range.first + range.count == spec.num_vcs;
      classes.push_back(Json(Json::Array{
          Json(range.first), rest ? Json("rest") : Json(range.count)}));
    }
    routing["classes"] = Json(std::move(classes));
    const auto table_json =
        [num_routers](const std::vector<std::vector<RouteEntry>>& table) {
          Json::Array rows;
          rows.reserve(static_cast<std::size_t>(num_routers));
          for (int r = 0; r < num_routers; ++r) {
            Json::Array row;
            row.reserve(static_cast<std::size_t>(num_routers));
            for (int d = 0; d < num_routers; ++d) {
              if (r == d) {
                row.push_back(Json(Json::Array{Json(-1), Json(0)}));
                continue;
              }
              const RouteEntry& entry =
                  table[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(d)];
              row.push_back(Json(Json::Array{
                  Json(entry.out_port), Json(static_cast<int>(entry.vc_class))}));
            }
            rows.push_back(Json(std::move(row)));
          }
          return Json(std::move(rows));
        };
    routing["table"] = table_json(spec.route_table);
    if (spec.has_alt_routing()) {
      routing["alt_table"] = table_json(spec.route_table_alt);
      routing["alt_min_class"] = Json(spec.alt_min_class);
    }
    // A table file pins its class structure; record the VC floor it implies.
    const int min_vcs = spec.vc_classes.back().first + 1;
    if (min_vcs > 1) root["min_vcs"] = Json(min_vcs);
  }
  root["routing"] = Json(std::move(routing));

  return Json(std::move(root)).dump() + "\n";
}

}  // namespace ownsim::topofile
