// OWN wireless channel allocation (paper Tables I and II).
//
// OWN-256 (Table I): the four clusters sit in a 2x2 array
//   0 = NW, 1 = NE, 2 = SE, 3 = SW
// and each cluster places four transceivers on its corner tiles, named
// A/B/C/D. Twelve unidirectional channels connect the cluster pairs:
//
//   diagonal C2C (~60 mm, LD 1.00):  A0->B2, B2->A0, A3->B1, B1->A3
//   edge     E2E (~30 mm, LD 0.50):  A1->B0, B0->A1, A2->B3, B3->A2
//   short    SR  (~10 mm, LD 0.15):  C0->C3, C3->C0, C1->C2, C2->C1
//
// The D antennas are reserved (intra-cluster / reconfiguration use).
//
// OWN-1024 (Table II): four OWN-256 groups in the same 2x2 arrangement.
// Sixteen SWMR channels: for each ordered group pair (g,g') one multicast
// channel written by antenna L of every cluster of g and heard by antenna L
// of every cluster of g' (L = A for edge pairs, B for diagonal, C for short),
// plus one intra-group channel per group on the D antennas. Group-pair
// distance classes mirror Table I; intra-group channels are short-range
// (the paper assumes 3D-stacked groups keep those distances small).
//
// Antenna-letter -> corner-tile placement and the exact letter pairings are
// reconstructions where the paper under-specifies; they change only labels,
// not distances or connectivity (see DESIGN.md §4.5).
#pragma once

#include <vector>

#include "common/quantity.hpp"
#include "common/types.hpp"

namespace ownsim {

/// Wireless link distance classes (Table I / Table III "LD factor").
enum class DistanceClass { kC2C, kE2E, kSR };

const char* to_string(DistanceClass distance);

/// Paper Table I / §IV: radiated-power scaling with link distance.
double ld_factor(DistanceClass distance);

/// Representative physical length of each class (60/30/10 mm).
Length distance_of(DistanceClass distance);

/// Antenna letters A..D map to the four corner tiles of a 4x4-tile cluster.
enum class Antenna : int { kA = 0, kB = 1, kC = 2, kD = 3 };

/// Tile index (0..15) hosting `antenna` within its cluster:
/// A=0 (NW), B=3 (NE), C=12 (SW), D=15 (SE).
int antenna_tile(Antenna antenna);

/// One unidirectional OWN-256 inter-cluster channel.
struct OwnChannel {
  int id = 0;  ///< 0..11 (12..15: reconfiguration); Table III band-plan link
  int src_cluster = 0;
  int dst_cluster = 0;
  Antenna src_antenna = Antenna::kA;
  Antenna dst_antenna = Antenna::kA;
  DistanceClass distance = DistanceClass::kC2C;
};

/// The 12 channels of Table I, in a fixed canonical order.
const std::vector<OwnChannel>& own256_channels();

/// Channel from cluster `src` to cluster `dst` (src != dst).
const OwnChannel& own256_channel(int src_cluster, int dst_cluster);

/// One OWN-1024 SWMR channel (inter-group or intra-group).
struct OwnGroupChannel {
  int id = 0;  ///< 0..15; band-plan link index
  int src_group = 0;
  int dst_group = 0;  ///< == src_group for intra-group channels
  Antenna antenna = Antenna::kA;
  DistanceClass distance = DistanceClass::kC2C;
  bool intra_group() const { return src_group == dst_group; }
};

/// The 16 channels of Table II (12 inter-group + 4 intra-group).
const std::vector<OwnGroupChannel>& own1024_channels();

/// Inter-group channel for ordered pair (src, dst), or the intra-group
/// channel when src == dst.
const OwnGroupChannel& own1024_channel(int src_group, int dst_group);

/// Space-division-multiplexing groups (§V.B): channels whose signals do not
/// intersect may reuse one frequency band. Returns, for each channel id, the
/// SDM reuse-set id; channels sharing a set can share a band-plan link.
std::vector<int> own256_sdm_groups();

/// SDM reuse sets for the 16 OWN-1024 channels: edge and short group-pair
/// channels on opposite sides of the package share frequencies, diagonals
/// cross the center and cannot, and the four intra-group channels are
/// confined to disjoint quadrants and share one band.
std::vector<int> own1024_sdm_groups();

}  // namespace ownsim
