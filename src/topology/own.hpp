// OWN: the paper's hybrid photonic-wireless NoC (§III).
//
// Cores are addressed (g, c, t, p): G groups x C=4 clusters x T=16 tiles x
// P=4 cores. Every cluster is a photonic MWSR crossbar: 16 home waveguides
// (one per tile, token-arbitrated), so any intra-cluster packet is one
// photonic hop. Inter-cluster communication is wireless:
//
//   OWN-256  (G=1): 12 dedicated point-to-point channels between cluster
//            corner transceivers (Table I, wireless/channel_alloc.*).
//   OWN-1024 (G=4): 16 SWMR channels (Table II): 12 inter-group multicast
//            channels (token among the 4 transmitting clusters; all 4
//            destination clusters listen, the intended one forwards) and 4
//            intra-group channels on the D antennas.
//
// Worst-case path is 3 hops: photonic to the gateway corner, one wireless
// hop, photonic to the destination tile.
//
// Deadlock freedom: VC0 carries photonic hops *toward* a gateway (and local
// traffic from non-corner tiles), VC1 carries photonic hops *out of* a
// corner router (the last hop), and the upper VCs carry wireless hops
// (VC2+VC3 in OWN-256; VC2 intra-group / VC3 inter-group in OWN-1024). The
// class digraph VC0 -> wireless -> VC1 -> ejection is acyclic. This realizes
// the paper's "2 VCs photonic + 2 VCs wireless" (256) and per-category VC
// restriction (1024) in a provably deadlock-free form (see DESIGN.md).
#pragma once

#include <string>
#include <vector>

#include "network/spec.hpp"
#include "topology/options.hpp"
#include "wireless/channel_alloc.hpp"

namespace ownsim {

/// Builds OWN-256 (options.num_cores == 256) or OWN-1024 (== 1024).
NetworkSpec build_own(const TopologyOptions& options);

/// Wireless transceiver placement within each cluster (§III.A). The paper
/// argues for corners: "If all the wireless transceivers were located in
/// close proximity (center of the cluster), then all inter-cluster traffic
/// will be directed to the center which could lead to load and thermal
/// imbalance." `kCenter` builds that strawman so the claim can be measured
/// (see bench_thermal).
enum class AntennaPlacement { kCorners, kCenter };

/// OWN-256 with an explicit antenna placement; `kCorners` == build_own(256).
NetworkSpec build_own256_placed(const TopologyOptions& options,
                                AntennaPlacement placement);

/// The floorplan every OWN-256 variant shares: 64 routers of 4 cores, one
/// MWSR home waveguide per tile (token ring, or ideal arbitration under
/// options.ideal_arbitration) named `<waveguide_prefix><cluster>t<tile>`,
/// one point-to-point wireless link per entry of `channels` (its endpoints
/// get the gateway ports) and router_xy.
/// Name, VC classes and route table are left to the variant's builder.
NetworkSpec build_own256_floorplan(
    const TopologyOptions& options, const std::vector<OwnChannel>& channels,
    const std::string& waveguide_prefix,
    AntennaPlacement placement = AntennaPlacement::kCorners);

/// Tiles per cluster / clusters per group in OWN.
inline constexpr int kOwnTilesPerCluster = 16;
inline constexpr int kOwnClustersPerGroup = 4;

/// Router id for (group, cluster, tile).
inline RouterId own_router(int group, int cluster, int tile) {
  return (group * kOwnClustersPerGroup + cluster) * kOwnTilesPerCluster + tile;
}

/// Photonic writer-port index on the router of tile `src` for the waveguide
/// whose home is tile `dst` (same cluster, src != dst).
inline PortId own_writer_port(int src_tile, int dst_tile) {
  return dst_tile < src_tile ? dst_tile : dst_tile - 1;
}

/// Fills `spec.router_xy` with the OWN die floorplan (2x2 clusters of 25 mm,
/// tiles on a 4x4 grid per cluster; `groups` > 1 tiles the group quadrants).
void fill_own_positions(NetworkSpec& spec, int groups);

/// True if `tile` hosts a wireless transceiver in OWN-256 (corners A, B, C).
bool own256_is_gateway_tile(int tile);

/// True if `tile` hosts a wireless transceiver in OWN-1024 (all 4 corners).
bool own1024_is_gateway_tile(int tile);

}  // namespace ownsim
