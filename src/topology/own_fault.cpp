#include "topology/own_fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "network/network.hpp"
#include "topology/own.hpp"
#include "wireless/channel_alloc.hpp"

namespace ownsim {
namespace {

constexpr PortId kWirelessOut = 15;

// Degraded-mode VC classes (see header).
constexpr std::int8_t kClsPre = 0;       // photonic toward a rerouted flow's
                                         // first gateway
constexpr std::int8_t kClsMid = 1;       // photonic toward the final gateway
constexpr std::int8_t kClsPost = 2;      // photonic last hop
constexpr std::int8_t kClsWireless1 = 3; // first wireless hop of a reroute
constexpr std::int8_t kClsWireless2 = 4; // final wireless hop

constexpr int kNumRouters = kOwnClustersPerGroup * kOwnTilesPerCluster;

// Route entry at router `r` toward destination router `d` under `faults`.
// For destination cluster dc from cluster rc:
//   alive (rc,dc):  photonic kClsMid toward the direct gateway, wireless
//                   kClsWireless2 — transit clusters fall into this case
//                   automatically for the second leg.
//   failed (rc,dc): photonic kClsPre toward the gateway of (rc, via),
//                   wireless kClsWireless1.
RouteEntry own256_fault_route_entry(RouterId r, RouterId d,
                                    const FaultSet& faults) {
  const int rc = r / kOwnTilesPerCluster;
  const int rt = r % kOwnTilesPerCluster;
  const int dc = d / kOwnTilesPerCluster;
  const int dt = d % kOwnTilesPerCluster;
  RouteEntry entry;
  if (dc == rc) {
    entry.out_port = own_writer_port(rt, dt);
    entry.vc_class = own256_is_gateway_tile(rt) ? kClsPost : kClsMid;
  } else {
    const bool direct = !faults.is_failed(rc, dc);
    const int toward = direct ? dc : faults.transit_for(rc, dc);
    const int gate = antenna_tile(own256_channel(rc, toward).src_antenna);
    if (rt == gate) {
      entry.out_port = kWirelessOut;
      entry.vc_class = direct ? kClsWireless2 : kClsWireless1;
    } else {
      entry.out_port = own_writer_port(rt, gate);
      entry.vc_class = direct ? kClsMid : kClsPre;
    }
  }
  return entry;
}

// Calls fn(r, d, entry) for every (router, destination) pair the scheme
// routes under `faults`: all pairs except those of unrecoverable clusters.
template <typename Fn>
void for_each_fault_route(const FaultSet& faults, Fn&& fn) {
  for (RouterId r = 0; r < kNumRouters; ++r) {
    for (RouterId d = 0; d < kNumRouters; ++d) {
      if (d == r) continue;
      const int rc = r / kOwnTilesPerCluster;
      const int dc = d / kOwnTilesPerCluster;
      if (rc != dc && faults.is_failed(rc, dc) &&
          faults.transit_for(rc, dc) < 0) {
        continue;
      }
      fn(r, d, own256_fault_route_entry(r, d, faults));
    }
  }
}

}  // namespace

FaultSet::FaultSet(std::vector<std::pair<int, int>> failed)
    : failed_(std::move(failed)) {
  for (const auto& [src, dst] : failed_) {
    if (src < 0 || src > 3 || dst < 0 || dst > 3 || src == dst) {
      throw std::invalid_argument("FaultSet: bad cluster pair");
    }
  }
}

void FaultSet::fail(int src_cluster, int dst_cluster) {
  if (src_cluster < 0 || src_cluster > 3 || dst_cluster < 0 ||
      dst_cluster > 3 || src_cluster == dst_cluster) {
    throw std::invalid_argument("FaultSet::fail: bad cluster pair");
  }
  if (!is_failed(src_cluster, dst_cluster)) {
    failed_.emplace_back(src_cluster, dst_cluster);
  }
}

bool FaultSet::is_failed(int src_cluster, int dst_cluster) const {
  return std::find(failed_.begin(), failed_.end(),
                   std::make_pair(src_cluster, dst_cluster)) != failed_.end();
}

int FaultSet::transit_for(int src_cluster, int dst_cluster) const {
  for (int via = 0; via < 4; ++via) {
    if (via == src_cluster || via == dst_cluster) continue;
    if (!is_failed(src_cluster, via) && !is_failed(via, dst_cluster)) {
      return via;
    }
  }
  return -1;
}

NetworkSpec build_own256_faulted(const TopologyOptions& options,
                                 const FaultSet& faults) {
  if (options.num_vcs < 5) {
    throw std::invalid_argument(
        "build_own256_faulted: degraded mode needs >= 5 VCs");
  }
  std::vector<OwnChannel> alive;
  for (const OwnChannel& ch : own256_channels()) {
    if (!faults.is_failed(ch.src_cluster, ch.dst_cluster)) {
      alive.push_back(ch);
    } else if (faults.transit_for(ch.src_cluster, ch.dst_cluster) < 0) {
      throw std::invalid_argument(
          "build_own256_faulted: cluster pair " +
          std::to_string(ch.src_cluster) + "->" +
          std::to_string(ch.dst_cluster) + " is unrecoverable");
    }
  }

  NetworkSpec spec = build_own256_floorplan(options, alive, "wg-c");
  spec.name = "own-256-fault" + std::to_string(faults.size());
  spec.vc_classes = {{0, 1}, {1, 1}, {2, 1}, {3, 1},
                     {4, options.num_vcs - 4}};
  spec.route_table.assign(kNumRouters, std::vector<RouteEntry>(kNumRouters));
  for_each_fault_route(faults, [&](RouterId r, RouterId d, RouteEntry entry) {
    spec.route_table[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(d)] = entry;
  });
  return spec;
}

std::optional<std::pair<int, int>> own256_link_clusters(const NetworkSpec& spec,
                                                        std::size_t link) {
  const LinkSpec& ls = spec.links.at(link);
  if (spec.num_routers() != kNumRouters ||
      ls.medium != MediumType::kWireless || ls.wireless_channel < 0) {
    return std::nullopt;
  }
  for (const OwnChannel& ch : own256_channels()) {
    if (ch.id == ls.wireless_channel) {
      return std::make_pair(ch.src_cluster, ch.dst_cluster);
    }
  }
  return std::nullopt;
}

std::int64_t patch_own256_routes(Network& network, const FaultSet& faults) {
  std::int64_t changed = 0;
  for_each_fault_route(faults, [&](RouterId r, RouterId d, RouteEntry fresh) {
    const RouteEntry& current =
        network.spec().route_table[static_cast<std::size_t>(r)]
                                  [static_cast<std::size_t>(d)];
    if (current.out_port != fresh.out_port ||
        current.vc_class != fresh.vc_class) {
      network.set_route(r, d, fresh);
      ++changed;
    }
  });
  return changed;
}

}  // namespace ownsim
