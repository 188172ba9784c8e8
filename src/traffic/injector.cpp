#include "traffic/injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace ownsim {

Injector::Injector(Network* network, TrafficPattern pattern, Params params)
    : network_(network), pattern_(pattern), params_(params) {
  if (network_ == nullptr) throw std::invalid_argument("Injector: null network");
  if (params_.rate < 0.0 || params_.packet_flits < 1) {
    throw std::invalid_argument("Injector: bad rate/packet size");
  }
  if (pattern_.num_nodes() != network_->spec().num_nodes) {
    throw std::invalid_argument("Injector: pattern/network size mismatch");
  }
  rngs_.reserve(static_cast<std::size_t>(network_->spec().num_nodes));
  for (NodeId n = 0; n < network_->spec().num_nodes; ++n) {
    rngs_.emplace_back(params_.master_seed, static_cast<std::uint64_t>(n));
  }
  lookahead_.resize(static_cast<std::size_t>(network_->spec().num_nodes));
  obs::Registry& registry = network_->obs();
  obs_packets_offered_ = registry.counter("injector.packets_offered");
  obs_flits_offered_ = registry.counter("injector.flits_offered");
}

void Injector::advance(NodeLookahead& node, Rng& rng, double p) {
  // One draw per cycle, in cycle order — the exact draws the per-cycle
  // Bernoulli loop would have made on this node's private stream.
  const Cycle limit = node.drawn_until + kLookaheadCycles;
  for (Cycle c = node.drawn_until; c < limit; ++c) {
    if (rng.chance(p)) {
      node.next_fire = c;
      node.drawn_until = c + 1;
      return;
    }
  }
  node.next_fire = kNeverCycle;
  node.drawn_until = limit;
}

void Injector::eval(Cycle now) {
  if (!enabled_) return;
  const double p = params_.rate / params_.packet_flits;
  const bool measured = now >= measure_begin_ && now < measure_end_;
  const bool multipath = network_->spec().has_alt_routing();
  if (!armed_) {
    armed_ = true;
    const NodeId num_nodes = network_->spec().num_nodes;
    for (NodeId src = 0; src < num_nodes; ++src) {
      auto& node = lookahead_[static_cast<std::size_t>(src)];
      node.next_fire = kNeverCycle;
      node.drawn_until = now;
      due_.push({now, src});
    }
  }
  // Only nodes whose next event is due can do anything this cycle; run them
  // in node order, as a scan over every node would (NIC enqueue order, hence
  // packet ids, follow it).
  batch_.clear();
  while (!due_.empty() && due_.top().first <= now) {
    batch_.push_back(due_.top().second);
    due_.pop();
  }
  std::sort(batch_.begin(), batch_.end());
  for (const NodeId src : batch_) {
    auto& node = lookahead_[static_cast<std::size_t>(src)];
    Rng& rng = rngs_[static_cast<std::size_t>(src)];
    if (node.next_fire != kNeverCycle && node.next_fire < now) {
      // Fire missed while disabled: restart this node's process at `now`
      // (see header — the paused stream position is not rewound).
      node.next_fire = kNeverCycle;
      node.drawn_until = now;
    }
    while (node.next_fire == kNeverCycle && node.drawn_until <= now) {
      advance(node, rng, p);
    }
    if (node.next_fire == now) {
      const NodeId dst = pattern_.dest(src, rng);
      // O1TURN-style topologies balance load by flipping a fair coin between
      // the two routing functions per packet.
      const bool use_alt = multipath && rng.chance(0.5);
      network_->nic().enqueue_packet(
          src, dst, network_->router_of(dst), params_.packet_flits,
          params_.flit_bits, network_->injection_vc_class(src, dst, use_alt),
          now, measured);
      ++packets_offered_;
      if (measured) ++measured_offered_;
      obs_packets_offered_.inc();
      obs_flits_offered_.add(params_.packet_flits);
      // The gap draws for now+1.. resume only after the fire's dest/alt
      // draws, preserving the per-node stream order.
      node.next_fire = kNeverCycle;
      node.drawn_until = now + 1;
      advance(node, rng, p);
    }
    due_.push({node.next_fire != kNeverCycle ? node.next_fire
                                              : node.drawn_until,
               src});
  }
  if (!due_.empty()) request_wake(due_.top().first);
}

}  // namespace ownsim
