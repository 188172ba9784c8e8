// Network assembler: turns a `NetworkSpec` into live components.
//
// Owns the routers, channels, shared media and the NIC; registers everything
// with an internal `Engine`. Traffic generators (src/traffic) enqueue packets
// into the NIC and are registered with the same engine by the driver.
#pragma once

#include <memory>
#include <vector>

#include "network/channel.hpp"
#include "network/nic.hpp"
#include "network/router.hpp"
#include "network/shared_medium.hpp"
#include "network/spec.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"

namespace ownsim {

namespace obs {
class TraceWriter;
}

class Network {
 public:
  /// Validates the spec and builds all components. Throws on malformed specs.
  explicit Network(NetworkSpec spec);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  Nic& nic() { return *nic_; }
  const Nic& nic() const { return *nic_; }
  const NetworkSpec& spec() const { return spec_; }

  /// Router id serving node `n`.
  RouterId router_of(NodeId n) const { return spec_.nodes[n].router; }

  /// Deadlock class for injecting a packet src -> dst (NIC needs this).
  /// `use_alt` starts the packet on the alternate routing function when the
  /// topology provides one (O1TURN-style multi-path).
  int injection_vc_class(NodeId src, NodeId dst, bool use_alt = false) const {
    return spec_.injection_vc_class(router_of(src), router_of(dst), use_alt);
  }

  // ---- component access (tests / power model) -------------------------------
  const Router& router(RouterId r) const { return *routers_.at(r); }
  /// Channels in spec order (spec_.links[i] <-> network_channel(i)).
  const Channel& network_channel(std::size_t i) const { return *channels_.at(i); }
  std::size_t num_network_channels() const { return channels_.size(); }
  const SharedMedium& medium(std::size_t i) const { return *media_.at(i); }
  std::size_t num_media() const { return media_.size(); }

  // ---- runtime fault hooks (fault/campaign.*) -------------------------------
  /// Mutable component access for the fault campaign: arming fault models and
  /// injecting mid-run events (outages, death, token loss).
  Channel& network_channel_mut(std::size_t i) { return *channels_.at(i); }
  SharedMedium& medium_mut(std::size_t i) { return *media_.at(i); }

  /// Online route patch: replaces the spec route entry for (`at`, `dst`).
  /// The routing oracle reads the live table, so the new entry applies from
  /// the next route computation; packets already routed keep their old path.
  void set_route(RouterId at, RouterId dst, RouteEntry entry) {
    spec_.route_table.at(static_cast<std::size_t>(at))
        .at(static_cast<std::size_t>(dst)) = entry;
  }

  /// True when no packet is anywhere in flight (queues, routers, links).
  bool drained() const { return nic_->packets_in_flight() == 0; }

  // ---- observability --------------------------------------------------------
  /// Counter registry for this network's components (routers, media, network
  /// links, plus any Injector built against this network). Node inject/eject
  /// stub channels are not registered — their traffic is the NIC's counters.
  obs::Registry& obs() { return obs_; }
  const obs::Registry& obs() const { return obs_; }

  /// Attaches (or, with nullptr, detaches) a trace writer to every shared
  /// medium and network link and remembers it for the measurement driver's
  /// phase slices (`run_load_point` reads `trace()`). Purely observational:
  /// simulated results are bit-identical with tracing on or off.
  void set_trace(obs::TraceWriter* trace);
  obs::TraceWriter* trace() const { return trace_; }

  /// Emits any still-open channel busy intervals (call once, end of run).
  void flush_trace();

 private:
  /// Route lookups against the spec's tables + node attachments.
  class SpecOracle final : public RoutingOracle {
   public:
    explicit SpecOracle(const Network* network) : network_(network) {}
    RouteEntry route(RouterId at, const Flit& head) const override;

   private:
    const Network* network_;
  };

  NetworkSpec spec_;
  Engine engine_;
  SpecOracle oracle_{this};
  obs::Registry obs_;
  obs::TraceWriter* trace_ = nullptr;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Channel>> channels_;       ///< network links
  std::vector<std::unique_ptr<Channel>> node_channels_;  ///< inject+eject
  std::vector<std::unique_ptr<SharedMedium>> media_;
  std::unique_ptr<Nic> nic_;

  /// Per router: attached nodes in attachment order (ejection port order).
  std::vector<std::vector<NodeId>> attached_;
  /// Per node: index within its router's attachment list.
  std::vector<int> local_index_;
};

}  // namespace ownsim
