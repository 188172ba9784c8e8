// Declarative network description.
//
// A topology builder (src/topology/*) produces a `NetworkSpec`: routers with
// network-port counts, node attachments, point-to-point links, shared media,
// a table-based routing function and the VC class map. The `Network`
// assembler turns it into live simulation components. Injection/ejection
// ports are NOT part of the spec's port counts — the assembler appends one
// in/out port pair per attached node after the network ports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/quantity.hpp"
#include "common/types.hpp"
#include "network/flit.hpp"
#include "network/router.hpp"
#include "network/shared_medium.hpp"  // ArbitrationKind

namespace ownsim {

struct RouterSpec {
  int num_net_in = 0;   ///< network input ports (links/media terminating here)
  int num_net_out = 0;  ///< network output ports
};

struct NodeAttach {
  RouterId router = kInvalidId;
};

struct LinkSpec {
  RouterId src_router = kInvalidId;
  PortId src_port = kInvalidId;  ///< network output port on src_router
  RouterId dst_router = kInvalidId;
  PortId dst_port = kInvalidId;  ///< network input port on dst_router
  MediumType medium = MediumType::kElectrical;
  int latency = 1;
  int cycles_per_flit = 1;
  Length distance;
  /// For wireless point-to-point links: index into the wireless band plan
  /// (Table III) used by the energy model. -1 for non-wireless links.
  int wireless_channel = -1;
  std::string name;
};

struct MediumSpec {
  MediumType medium = MediumType::kPhotonic;
  ArbitrationKind arbitration = ArbitrationKind::kTokenRing;
  std::vector<std::pair<RouterId, PortId>> writers;  ///< (router, out port)
  std::vector<std::pair<RouterId, PortId>> readers;  ///< (router, in port)
  int latency = 1;
  int cycles_per_flit = 1;
  int max_packet_flits = 8;
  Length distance;
  bool multicast_rx = false;
  /// Which reader index receives a flit headed to (dst, dst_router).
  /// May be empty when there is exactly one reader.
  std::function<int(NodeId dst, RouterId dst_router)> select_reader;
  /// Wireless band-plan channel for the energy model; -1 for photonic.
  int wireless_channel = -1;
  std::string name;
};

struct NetworkSpec {
  /// Upper bound on `buffer_depth`: every VC of every port allocates its
  /// flit slots up front. `num_vcs` is bounded by Router::kMaxVcs.
  static constexpr int kMaxBufferDepth = 256;

  std::string name;
  int num_nodes = 0;
  int num_vcs = 4;
  int buffer_depth = 8;

  std::vector<RouterSpec> routers;
  /// Optional die coordinates per router; empty when the builder does
  /// not provide a floorplan. Used by the thermal model (power/thermal.*).
  std::vector<std::pair<Length, Length>> router_xy;
  std::vector<NodeAttach> nodes;       ///< size == num_nodes
  std::vector<LinkSpec> links;
  std::vector<MediumSpec> media;
  std::vector<VcClassRange> vc_classes;
  /// route_table[router][dst_router]; the [r][r] diagonal is unused
  /// (ejection is resolved from node attachments).
  std::vector<std::vector<RouteEntry>> route_table;

  /// Optional second routing function for classful multi-path routing
  /// (e.g. O1TURN: XY in the primary table, YX here). Packets whose current
  /// vc_class >= `alt_min_class` are routed by this table; the table's own
  /// vc_class entries keep them in the alternate class set. Empty = unused.
  std::vector<std::vector<RouteEntry>> route_table_alt;
  int alt_min_class = -1;

  int num_routers() const { return static_cast<int>(routers.size()); }
  bool has_alt_routing() const { return !route_table_alt.empty(); }

  /// Deadlock class of a packet's first hop (used when injecting).
  /// `use_alt` selects the alternate routing function when present.
  int injection_vc_class(RouterId src_router, RouterId dst_router,
                         bool use_alt = false) const {
    if (src_router == dst_router) return 0;
    const auto& table =
        (use_alt && has_alt_routing()) ? route_table_alt : route_table;
    return table[static_cast<std::size_t>(src_router)]
                [static_cast<std::size_t>(dst_router)].vc_class;
  }

  /// Structural consistency check; throws std::runtime_error on violations
  /// (port out of range, port double-driven or undriven, bad route targets,
  /// malformed VC classes), and std::invalid_argument naming the field when
  /// `num_vcs` or `buffer_depth` is out of range.
  void validate() const;
};

}  // namespace ownsim
