#include "topology/own.hpp"

#include <array>
#include <stdexcept>
#include <string>

#include "topology/bisection.hpp"

namespace ownsim {
namespace {

// Port conventions on every OWN router:
//   in 0            photonic home-waveguide reader
//   in 1            wireless receiver        (gateway tiles only)
//   out 0..14       photonic writers to the 15 other home waveguides
//   out 15          wireless transmitter     (gateway tiles only)
constexpr PortId kPhotonicIn = 0;
constexpr PortId kWirelessIn = 1;
constexpr PortId kWirelessOut = 15;

// VC classes (see header).
constexpr std::int8_t kClsPhotonicPre = 0;
constexpr std::int8_t kClsPhotonicPost = 1;
constexpr std::int8_t kClsWireless256 = 2;     // OWN-256: VCs 2..3
constexpr std::int8_t kClsWirelessIntra = 2;   // OWN-1024: VC2
constexpr std::int8_t kClsWirelessInter = 3;   // OWN-1024: VC3

void add_cluster_waveguides(NetworkSpec& spec, const TopologyOptions& options,
                            int group, int cluster,
                            const std::string& name_prefix) {
  // Each home waveguide carries an 8-lambda DWDM slice at 8 Gb/s = 64 Gb/s.
  // The gateway corners' home waveguides carry both the pre-wireless funnel
  // and terminal traffic, so anything slower than ~2x the 32 Gb/s wireless
  // channel rate would bottleneck the gateway below the wireless bisection
  // the evaluation normalizes against.
  const int cpf = options.photonic_cpf > 0 ? options.photonic_cpf : 4;
  for (int home = 0; home < kOwnTilesPerCluster; ++home) {
    MediumSpec wg;
    wg.medium = MediumType::kPhotonic;
    wg.arbitration = options.ideal_arbitration ? ArbitrationKind::kIdeal
                                               : ArbitrationKind::kTokenRing;
    for (int t = 0; t < kOwnTilesPerCluster; ++t) {
      if (t == home) continue;
      wg.writers.push_back(
          {own_router(group, cluster, t), own_writer_port(t, home)});
    }
    wg.readers = {{own_router(group, cluster, home), kPhotonicIn}};
    wg.latency = 2;  // ~25 mm snake at ~15 ps/mm plus O/E conversion
    wg.cycles_per_flit = cpf;
    wg.max_packet_flits = options.max_packet_flits;
    wg.distance = 25.0_mm;
    wg.name = name_prefix + std::to_string(cluster) + "t" +
              std::to_string(home);
    spec.media.push_back(std::move(wg));
  }
}

// Tile hosting each antenna (index = Antenna enum) for a placement. For the
// kCenter strawman every cluster puts its transceivers on the 2x2 tile block
// nearest the CHIP center ("all the wireless transceivers ... in close
// proximity", §III.A) — so the placement depends on which quadrant the
// cluster occupies.
std::array<int, 4> placement_tiles(AntennaPlacement placement, int cluster) {
  if (placement == AntennaPlacement::kCorners) {
    return {antenna_tile(Antenna::kA), antenna_tile(Antenna::kB),
            antenna_tile(Antenna::kC), antenna_tile(Antenna::kD)};
  }
  switch (cluster) {       // quadrants: 0=NW, 1=NE, 2=SE, 3=SW
    case 0: return {15, 11, 14, 10};  // its SE block touches the center
    case 1: return {12, 8, 13, 9};    // SW block
    case 2: return {0, 4, 1, 5};      // NW block
    default: return {3, 7, 2, 6};     // NE block
  }
}

}  // namespace

// Die coordinates: 2x2 clusters of 25 mm; tiles on a 4x4 grid per cluster.
void fill_own_positions(NetworkSpec& spec, int groups) {
  const Length cluster_edge = 25.0_mm;
  const Length tile_edge = cluster_edge / 4.0;
  spec.router_xy.resize(spec.routers.size());
  for (std::size_t r = 0; r < spec.routers.size(); ++r) {
    const int group = static_cast<int>(r) /
                      (kOwnTilesPerCluster * kOwnClustersPerGroup);
    const int cluster =
        (static_cast<int>(r) / kOwnTilesPerCluster) % kOwnClustersPerGroup;
    const int tile = static_cast<int>(r) % kOwnTilesPerCluster;
    // Quadrant layout 0=NW, 1=NE, 2=SE, 3=SW for clusters and groups alike.
    auto quadrant = [](int q) {
      switch (q) {
        case 0: return std::pair<int, int>{0, 0};
        case 1: return std::pair<int, int>{1, 0};
        case 2: return std::pair<int, int>{1, 1};
        default: return std::pair<int, int>{0, 1};
      }
    };
    const auto [gx, gy] = quadrant(group % 4);
    const auto [cx, cy] = quadrant(cluster);
    const Length group_edge = 2.0 * cluster_edge;
    const Length x = (groups > 1 ? gx * group_edge : Length{}) +
                     cx * cluster_edge + (tile % 4) * tile_edge +
                     tile_edge / 2.0;
    const Length y = (groups > 1 ? gy * group_edge : Length{}) +
                     cy * cluster_edge + (tile / 4) * tile_edge +
                     tile_edge / 2.0;
    spec.router_xy[r] = {x, y};
  }
}

NetworkSpec build_own256_floorplan(const TopologyOptions& options,
                                   const std::vector<OwnChannel>& channels,
                                   const std::string& waveguide_prefix,
                                   AntennaPlacement placement) {
  if (options.num_cores != 256 || options.concentration != 4) {
    throw std::invalid_argument(
        "OWN-256 floorplan: needs 256 cores at concentration 4");
  }
  const auto tile_of = [&](Antenna a, int cluster) {
    return placement_tiles(placement, cluster)[static_cast<int>(a)];
  };
  NetworkSpec spec;
  spec.num_nodes = options.num_cores;
  spec.num_vcs = options.num_vcs;
  spec.buffer_depth = options.buffer_depth;

  const int num_routers = 64;
  spec.routers.assign(num_routers, {1, 15});
  spec.nodes.resize(options.num_cores);
  for (NodeId n = 0; n < options.num_cores; ++n) {
    spec.nodes[n].router = n / options.concentration;
  }
  for (int c = 0; c < kOwnClustersPerGroup; ++c) {
    add_cluster_waveguides(spec, options, 0, c, waveguide_prefix);
  }

  // Each channel's endpoints are gateways: the source router gains the
  // wireless transmitter port, the destination router the receiver port.
  const int wireless_cpf = resolve_cpf(options.wireless_cpf, 8.0, options);
  for (const OwnChannel& ch : channels) {
    LinkSpec link;
    link.src_router =
        own_router(0, ch.src_cluster, tile_of(ch.src_antenna, ch.src_cluster));
    link.src_port = kWirelessOut;
    link.dst_router =
        own_router(0, ch.dst_cluster, tile_of(ch.dst_antenna, ch.dst_cluster));
    link.dst_port = kWirelessIn;
    link.medium = MediumType::kWireless;
    link.latency = 2;  // OOK modulation + propagation (< 1 cycle at 60 mm)
    link.cycles_per_flit = wireless_cpf;
    link.distance = distance_of(ch.distance);
    link.wireless_channel = ch.id;
    link.name = "wl" + std::to_string(ch.id);
    spec.routers[link.src_router].num_net_out = kWirelessOut + 1;
    spec.routers[link.dst_router].num_net_in = kWirelessIn + 1;
    spec.links.push_back(link);
  }
  fill_own_positions(spec, 1);
  return spec;
}

namespace {

NetworkSpec build_own256_impl(const TopologyOptions& options,
                              AntennaPlacement placement) {
  const auto tile_of = [&](Antenna a, int cluster) {
    return placement_tiles(placement, cluster)[static_cast<int>(a)];
  };
  const auto is_gateway = [&](int tile, int cluster) {
    const auto tiles = placement_tiles(placement, cluster);
    return tile == tiles[0] || tile == tiles[1] || tile == tiles[2];
  };
  // Inter-cluster wireless: Table I channels; 8 cross the bisection.
  NetworkSpec spec = build_own256_floorplan(options, own256_channels(),
                                            "wg-g0c", placement);
  spec.name = placement == AntennaPlacement::kCorners ? "own-256"
                                                      : "own-256-center";
  // VC0: photonic toward gateways + non-corner local traffic; VC1: photonic
  // out of corner routers; VC2..3: wireless ("2 photonic + 2 wireless" VCs).
  spec.vc_classes = {{0, 1}, {1, 1}, {2, options.num_vcs - 2}};

  // Routing.
  const int num_routers = spec.num_routers();
  spec.route_table.assign(num_routers, std::vector<RouteEntry>(num_routers));
  for (int r = 0; r < num_routers; ++r) {
    const int rc = r / kOwnTilesPerCluster;
    const int rt = r % kOwnTilesPerCluster;
    for (int d = 0; d < num_routers; ++d) {
      if (d == r) continue;
      const int dc = d / kOwnTilesPerCluster;
      const int dt = d % kOwnTilesPerCluster;
      RouteEntry entry;
      if (dc == rc) {
        entry.out_port = own_writer_port(rt, dt);
        entry.vc_class =
            is_gateway(rt, rc) ? kClsPhotonicPost : kClsPhotonicPre;
      } else {
        const int gate = tile_of(own256_channel(rc, dc).src_antenna, rc);
        if (rt == gate) {
          entry.out_port = kWirelessOut;
          entry.vc_class = kClsWireless256;
        } else {
          entry.out_port = own_writer_port(rt, gate);
          entry.vc_class = kClsPhotonicPre;
        }
      }
      spec.route_table[r][d] = entry;
    }
  }
  return spec;
}

NetworkSpec build_own256(const TopologyOptions& options) {
  return build_own256_impl(options, AntennaPlacement::kCorners);
}

NetworkSpec build_own1024(const TopologyOptions& options) {
  NetworkSpec spec;
  spec.name = "own-1024";
  spec.num_nodes = options.num_cores;
  spec.num_vcs = options.num_vcs;
  spec.buffer_depth = options.buffer_depth;
  if (options.num_vcs < 4) {
    throw std::invalid_argument("OWN-1024 needs >= 4 VCs (one per class)");
  }
  spec.vc_classes = {{0, 1}, {1, 1}, {2, 1}, {3, options.num_vcs - 3}};

  const int num_routers = 256;
  spec.routers.assign(num_routers, {1, 15});
  spec.nodes.resize(options.num_cores);
  for (NodeId n = 0; n < options.num_cores; ++n) {
    spec.nodes[n].router = n / options.concentration;
  }
  for (int g = 0; g < 4; ++g) {
    for (int c = 0; c < kOwnClustersPerGroup; ++c) {
      for (Antenna a : {Antenna::kA, Antenna::kB, Antenna::kC, Antenna::kD}) {
        spec.routers[own_router(g, c, antenna_tile(a))] = {2, 16};
      }
    }
  }

  for (int g = 0; g < 4; ++g) {
    for (int c = 0; c < kOwnClustersPerGroup; ++c) {
      add_cluster_waveguides(spec, options, g, c,
                             "wg-g" + std::to_string(g) + "c");
    }
  }

  // SWMR wireless channels (Table II): 8 inter-group channels cross the
  // group-array bisection.
  const int wireless_cpf = resolve_cpf(options.wireless_cpf, 8.0, options);
  for (const OwnGroupChannel& ch : own1024_channels()) {
    MediumSpec medium;
    medium.medium = MediumType::kWireless;
    const int tile = antenna_tile(ch.antenna);
    for (int c = 0; c < kOwnClustersPerGroup; ++c) {
      medium.writers.push_back({own_router(ch.src_group, c, tile), kWirelessOut});
      medium.readers.push_back({own_router(ch.dst_group, c, tile), kWirelessIn});
    }
    medium.latency = 2;
    medium.cycles_per_flit = wireless_cpf;
    medium.max_packet_flits = options.max_packet_flits;
    medium.distance = distance_of(ch.distance);
    medium.multicast_rx = true;  // every listening cluster pays RX energy
    medium.wireless_channel = ch.id;
    medium.select_reader = [](NodeId, RouterId dst_router) {
      return (dst_router / kOwnTilesPerCluster) % kOwnClustersPerGroup;
    };
    medium.name = "swmr-g" + std::to_string(ch.src_group) + "g" +
                  std::to_string(ch.dst_group);
    spec.media.push_back(std::move(medium));
  }

  // Routing.
  spec.route_table.assign(num_routers, std::vector<RouteEntry>(num_routers));
  for (int r = 0; r < num_routers; ++r) {
    const int rg = r / (kOwnTilesPerCluster * kOwnClustersPerGroup);
    const int rc = (r / kOwnTilesPerCluster) % kOwnClustersPerGroup;
    const int rt = r % kOwnTilesPerCluster;
    for (int d = 0; d < num_routers; ++d) {
      if (d == r) continue;
      const int dg = d / (kOwnTilesPerCluster * kOwnClustersPerGroup);
      const int dc = (d / kOwnTilesPerCluster) % kOwnClustersPerGroup;
      const int dt = d % kOwnTilesPerCluster;
      RouteEntry entry;
      if (dg == rg && dc == rc) {
        entry.out_port = own_writer_port(rt, dt);
        entry.vc_class = own1024_is_gateway_tile(rt) ? kClsPhotonicPost
                                                     : kClsPhotonicPre;
      } else {
        const OwnGroupChannel& ch = own1024_channel(rg, dg);
        const int gate = antenna_tile(ch.antenna);
        if (rt == gate) {
          entry.out_port = kWirelessOut;
          entry.vc_class =
              ch.intra_group() ? kClsWirelessIntra : kClsWirelessInter;
        } else {
          entry.out_port = own_writer_port(rt, gate);
          entry.vc_class = kClsPhotonicPre;
        }
      }
      spec.route_table[r][d] = entry;
    }
  }
  fill_own_positions(spec, 4);
  return spec;
}

}  // namespace

NetworkSpec build_own256_placed(const TopologyOptions& options,
                                AntennaPlacement placement) {
  return build_own256_impl(options, placement);
}

bool own256_is_gateway_tile(int tile) {
  return tile == antenna_tile(Antenna::kA) ||
         tile == antenna_tile(Antenna::kB) ||
         tile == antenna_tile(Antenna::kC);
}

bool own1024_is_gateway_tile(int tile) {
  return own256_is_gateway_tile(tile) || tile == antenna_tile(Antenna::kD);
}

NetworkSpec build_own(const TopologyOptions& options) {
  if (options.concentration != 4) {
    throw std::invalid_argument("build_own: OWN requires concentration 4");
  }
  if (options.num_vcs < 3) {
    throw std::invalid_argument("build_own: OWN needs >= 3 VCs");
  }
  if (options.num_cores == 256) return build_own256(options);
  if (options.num_cores == 1024) return build_own1024(options);
  throw std::invalid_argument("build_own: OWN is defined for 256/1024 cores");
}

}  // namespace ownsim
