#include "topology/own_reconfig.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "topology/own.hpp"

namespace ownsim {
namespace {

constexpr PortId kWirelessOut = 15;
constexpr std::int8_t kClsPhotonicPre = 0;
constexpr std::int8_t kClsPhotonicPost = 1;
constexpr std::int8_t kClsWireless = 2;

int cluster_of(NodeId node) { return node / (4 * kOwnTilesPerCluster); }

}  // namespace

ReconfigPlan plan_reconfig(PatternKind pattern, int num_cores) {
  if (num_cores != 256) {
    throw std::invalid_argument("plan_reconfig: reconfiguration is an "
                                "OWN-256 extension");
  }
  // Analytic profile: count inter-cluster traffic per directed pair. The
  // stochastic patterns spread uniformly, so we sample their distribution;
  // permutations are counted exactly.
  const TrafficPattern traffic(pattern, num_cores);
  Rng rng(1234);
  double counts[4][4] = {};
  if (pattern == PatternKind::kUniform) {
    // Exactly uniform across pairs — leave the decision to the tie-break
    // rather than sampling noise.
  } else {
    const int repeats = traffic.deterministic() ? 1 : 64;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      for (NodeId src = 0; src < num_cores; ++src) {
        const NodeId dst = traffic.dest(src, rng);
        const int cs = cluster_of(src);
        const int cd = cluster_of(dst);
        if (cs != cd) counts[cs][cd] += 1.0;
      }
    }
  }

  // Each D antenna provides one transmitter and one receiver, so the four
  // channels form a derangement of the clusters (every cluster sends on one
  // and receives on one). Pick the derangement carrying the most profiled
  // traffic; ties prefer more diagonal (C2C) channels — the largest
  // latency/energy relief — then lexicographic order for determinism.
  static constexpr int kDerangements[9][4] = {
      {1, 0, 3, 2}, {1, 2, 3, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}, {2, 3, 0, 1},
      {2, 3, 1, 0}, {3, 0, 1, 2}, {3, 2, 0, 1}, {3, 2, 1, 0}};
  int best = 0;
  double best_load = -1.0;
  int best_diagonals = -1;
  for (int k = 0; k < 9; ++k) {
    double load = 0.0;
    int diagonals = 0;
    for (int src = 0; src < 4; ++src) {
      load += counts[src][kDerangements[k][src]];
      diagonals += ((src ^ kDerangements[k][src]) == 2) ? 1 : 0;
    }
    if (load > best_load ||
        (load == best_load && diagonals > best_diagonals)) {
      best = k;
      best_load = load;
      best_diagonals = diagonals;
    }
  }
  ReconfigPlan plan;
  for (int src = 0; src < 4; ++src) {
    plan.pairs[src] = {src, kDerangements[best][src]};
  }
  return plan;
}

DistanceClass reconfig_distance(const std::pair<int, int>& pair) {
  switch (pair.first ^ pair.second) {
    case 1: return DistanceClass::kE2E;
    case 2: return DistanceClass::kC2C;
    case 3: return DistanceClass::kSR;
    default: throw std::invalid_argument("reconfig_distance: bad pair");
  }
}

std::vector<DistanceClass> reconfig_channel_distances(const ReconfigPlan& plan) {
  std::vector<DistanceClass> distances;
  distances.reserve(16);
  for (const OwnChannel& ch : own256_channels()) {
    distances.push_back(ch.distance);
  }
  for (const auto& pair : plan.pairs) {
    distances.push_back(reconfig_distance(pair));
  }
  return distances;
}

std::vector<int> reconfig_sdm_groups() {
  std::vector<int> groups = own256_sdm_groups();  // sets 0..7
  for (int k = 0; k < 4; ++k) groups.push_back(8 + k);
  return groups;
}

NetworkSpec build_own256_reconfig(const TopologyOptions& options,
                                  const ReconfigPlan& plan) {
  // Reconfiguration channels occupy band-plan links 12-15 on the D corners.
  std::vector<OwnChannel> channels = own256_channels();
  bool has_channel[4][4] = {};
  for (std::size_t k = 0; k < plan.pairs.size(); ++k) {
    const auto& [src, dst] = plan.pairs[k];
    channels.push_back({12 + static_cast<int>(k), src, dst, Antenna::kD,
                        Antenna::kD, reconfig_distance(plan.pairs[k])});
    has_channel[src][dst] = true;
  }
  NetworkSpec spec = build_own256_floorplan(options, channels, "wg-c");
  spec.name = "own-256-reconfig";
  spec.vc_classes = {{0, 1}, {1, 1}, {2, options.num_vcs - 2}};

  // Routing: odd-column tiles use the reconfiguration channel when their
  // pair has one. Column parity is spatially interleaved and uncorrelated
  // with the address bits that choose the destination cluster in the
  // paper's permutation patterns (a row-based split would be perfectly
  // anti-correlated with perfect shuffle, whose destination cluster is the
  // row bit, and gain nothing).
  const int d_tile = antenna_tile(Antenna::kD);
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
        // All four corners may now receive wireless traffic: last-hop class.
        entry.vc_class = (own256_is_gateway_tile(rt) || rt == d_tile)
                             ? kClsPhotonicPost
                             : kClsPhotonicPre;
      } else {
        const int primary = antenna_tile(own256_channel(rc, dc).src_antenna);
        const bool pair_reconfig = has_channel[rc][dc];
        if (rt == primary || (pair_reconfig && rt == d_tile)) {
          // A gateway transmits on its own channel; the split below must
          // never bounce traffic that already reached a gateway (the route
          // table is per-hop, so a parity test here would re-route packets
          // arriving at an odd-numbered gateway tile).
          entry.out_port = kWirelessOut;
          entry.vc_class = kClsWireless;
        } else {
          const int gate =
              (pair_reconfig && (rt % 2) == 1) ? d_tile : primary;
          entry.out_port = own_writer_port(rt, gate);
          entry.vc_class = kClsPhotonicPre;
        }
      }
      spec.route_table[r][d] = entry;
    }
  }
  return spec;
}

}  // namespace ownsim
