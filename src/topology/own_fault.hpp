// OWN-256 wireless-channel fault tolerance and online route repair.
//
// The paper positions OWN in a line of work on reconfigurable/fault-tolerant
// photonic NoCs ([12]) but does not evaluate failures. This extension models
// the natural recovery: when the direct channel c -> c' is down, traffic is
// rerouted through a transit cluster c'' whose channels c -> c'' and
// c'' -> c' are alive, giving a 2-wireless-hop degraded path
// (photonic -> wireless -> photonic -> wireless -> photonic, 5 hops).
//
// Deadlock freedom needs one more class level than the healthy network; the
// degraded build uses five classes over >= 5 VCs:
//   VC0  photonic toward the FIRST gateway of a rerouted flow
//   VC1  photonic toward the LAST-hop gateway (healthy flows start here too)
//   VC2  photonic last hop (out of a receiving gateway)
//   VC3  wireless hop 1 of rerouted flows
//   VC4+ wireless final hop (all healthy traffic and hop 2 of rerouted)
// Class digraph 0 -> w3 -> 1 -> w4 -> 2 -> ejection: acyclic. The scheme is
// uniform per (router, destination): routers in cluster c route toward a
// destination cluster c' in "one-more-wireless-hop" classes iff (c, c') is
// failed, which is exactly the transit position of rerouted packets.
//
// `build_own256_faulted` puts this scheme on the shared OWN-256 floorplan
// (topology/own.hpp) with the failed channels left out. With an empty
// FaultSet it is the campaign-capable build: the plain OWN-256 floorplan
// whose routes can be repaired online. `patch_own256_routes` is that repair,
// the one path both the fault campaign's persistent-failure detector
// (fault/campaign.*) and the adaptive re-allocation (adapt/controller.*)
// take when a cluster pair goes down or comes back.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "network/spec.hpp"
#include "topology/options.hpp"

namespace ownsim {

class Network;

/// Set of failed unidirectional inter-cluster channels.
class FaultSet {
 public:
  FaultSet() = default;
  explicit FaultSet(std::vector<std::pair<int, int>> failed);

  void fail(int src_cluster, int dst_cluster);
  bool is_failed(int src_cluster, int dst_cluster) const;
  std::size_t size() const { return failed_.size(); }

  /// Transit cluster for a failed pair (lowest-id cluster with both legs
  /// alive), or -1 when the pair cannot be recovered.
  int transit_for(int src_cluster, int dst_cluster) const;

 private:
  std::vector<std::pair<int, int>> failed_;
};

/// OWN-256 with `faults` applied: failed channels are left off the shared
/// floorplan (their gateway ports disappear), waveguides are named
/// `wg-c<cluster>t<tile>`, and affected traffic takes the degraded
/// 2-wireless-hop path. Requires options.num_vcs >= 5. Throws
/// std::invalid_argument when some pair has no alive transit.
NetworkSpec build_own256_faulted(const TopologyOptions& options,
                                 const FaultSet& faults);

/// The (source, destination) cluster pair of spec link `link` when it is
/// one of OWN-256's Table I wireless channels (identified by
/// LinkSpec::wireless_channel on a 64-router spec), else nullopt.
std::optional<std::pair<int, int>> own256_link_clusters(const NetworkSpec& spec,
                                                        std::size_t link);

/// Online route repair: rewrites every live route-table entry of `network`
/// (a campaign-capable OWN-256) that the degraded-mode scheme above routes
/// differently under `faults`, and returns how many entries changed.
/// Unrecoverable pairs (no alive transit) keep their stale route: the dying
/// channel still delivers, at the exhausted-backoff rate. Packets already
/// routed keep their path; the new entries apply from the next route
/// computation.
std::int64_t patch_own256_routes(Network& network, const FaultSet& faults);

}  // namespace ownsim
