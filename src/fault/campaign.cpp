#include "fault/campaign.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "network/network.hpp"
#include "rf/ber.hpp"

namespace ownsim::fault {
namespace {

// Sub-stream ids carved out of the campaign seed (common/rng.hpp
// derive_seed). Channels and media get disjoint blocks; 7 feeds the
// random-event placement.
constexpr std::uint64_t kStreamEvents = 7;
constexpr std::uint64_t kStreamChannels = 100;
constexpr std::uint64_t kStreamMedia = 100000;

}  // namespace

double resolve_ber(const CampaignConfig& config) {
  if (config.ber >= 0.0) return config.ber;
  return ber_at_margin(config.snr_required, config.margin);
}

FaultCampaign::FaultCampaign(Network* network, CampaignConfig config)
    : network_(network), config_(std::move(config)) {
  if (network_ == nullptr) {
    throw std::invalid_argument("FaultCampaign: network must not be null");
  }
  if (config_.ack_timeout < 2 || config_.max_backoff_exp < 0 ||
      config_.max_attempts < 1 || config_.detect_timeouts < 1) {
    throw std::invalid_argument("FaultCampaign: bad protocol knobs");
  }
  protocol_.ber = resolve_ber(config_);
  protocol_.ack_timeout = config_.ack_timeout;
  protocol_.max_backoff_exp = config_.max_backoff_exp;
  protocol_.max_attempts = config_.max_attempts;

  const NetworkSpec& spec = network_->spec();
  for (std::size_t i = 0; i < spec.links.size(); ++i) {
    if (spec.links[i].medium == MediumType::kWireless) {
      wireless_links_.push_back(i);
    }
  }

  events_ = config_.events;
  for (const Event& event : events_) {
    if (event.at < 1) {
      throw std::invalid_argument("FaultCampaign: events start at cycle 1");
    }
    switch (event.kind) {
      case EventKind::kFlap:
        if (event.down_cycles < 1) {
          throw std::invalid_argument("FaultCampaign: flap needs >=1 cycle");
        }
        if (event.link >= 0) {
          if (static_cast<std::size_t>(event.link) >= spec.links.size() ||
              spec.links[static_cast<std::size_t>(event.link)].medium !=
                  MediumType::kWireless) {
            throw std::invalid_argument(
                "FaultCampaign: flap link is not a wireless link");
          }
        } else {
          (void)channel_for(event.src_cluster, event.dst_cluster);
        }
        break;
      case EventKind::kKill:
        if (event.link >= 0) {
          // Link-index form: kills any wireless point-to-point link on any
          // topology (file: included). No reroute — the exhausted-backoff
          // rate is the delivered service; detection/rerouting stays an
          // OWN-256 cluster-pair feature.
          if (static_cast<std::size_t>(event.link) >= spec.links.size() ||
              spec.links[static_cast<std::size_t>(event.link)].medium !=
                  MediumType::kWireless) {
            throw std::invalid_argument(
                "FaultCampaign: kill link is not a wireless link");
          }
        } else {
          (void)channel_for(event.src_cluster, event.dst_cluster);
          if (spec.vc_classes.size() != 5) {
            throw std::invalid_argument(
                "FaultCampaign: cluster-pair kill events need the degraded "
                "5-class route scheme (build the network with "
                "build_own256_faulted)");
          }
        }
        break;
      case EventKind::kTokenLoss:
        if (event.medium < 0 ||
            static_cast<std::size_t>(event.medium) >= network_->num_media()) {
          throw std::invalid_argument(
              "FaultCampaign: token-loss medium index out of range");
        }
        if (network_->medium(static_cast<std::size_t>(event.medium))
                .params()
                .arbitration != ArbitrationKind::kTokenRing) {
          throw std::invalid_argument(
              "FaultCampaign: token loss needs token-ring arbitration");
        }
        if (event.recovery != kNeverCycle && event.recovery < 1) {
          throw std::invalid_argument(
              "FaultCampaign: token recovery must be >= 1 or kNeverCycle");
        }
        break;
    }
  }

  if (config_.random_flaps > 0) {
    if (wireless_links_.empty()) {
      throw std::invalid_argument(
          "FaultCampaign: random flaps need wireless links in the topology");
    }
    if (config_.horizon < 1 || config_.flap_down_cycles < 1) {
      throw std::invalid_argument("FaultCampaign: bad random-flap window");
    }
    Rng rng(derive_seed(config_.seed, kStreamEvents));
    for (int i = 0; i < config_.random_flaps; ++i) {
      Event event;
      event.kind = EventKind::kFlap;
      event.link = static_cast<int>(
          wireless_links_[rng.below(wireless_links_.size())]);
      event.at = 1 + static_cast<Cycle>(
                         rng.below(static_cast<std::uint64_t>(config_.horizon)));
      event.down_cycles = config_.flap_down_cycles;
      events_.push_back(event);
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
}

void FaultCampaign::attach() {
  if (attached_) {
    throw std::logic_error("FaultCampaign::attach: already attached");
  }
  attached_ = true;
  obs::Registry& registry = network_->obs();
  for (const std::size_t i : wireless_links_) {
    network_->network_channel_mut(i).set_fault_model(
        &protocol_, Rng(derive_seed(config_.seed, kStreamChannels + i)),
        &registry);
  }
  for (std::size_t m = 0; m < network_->num_media(); ++m) {
    SharedMedium& medium = network_->medium_mut(m);
    // Transit corruption models the wireless hops; photonic media still get
    // the registry binding (token loss counts recoveries on any medium).
    const bool wireless = medium.params().medium == MediumType::kWireless;
    medium.set_fault_model(wireless ? &protocol_ : nullptr,
                           Rng(derive_seed(config_.seed, kStreamMedia + m)),
                           &registry);
  }
  obs_flows_degraded_ = registry.counter("fault.flows_degraded");
  network_->engine().add(this);
  if (config_.watchdog) {
    watchdog_ = std::make_unique<Watchdog>(network_, config_.watchdog_window,
                                           config_.diagnostics);
    network_->engine().add(watchdog_.get());
  }
  arm_wake(network_->engine().now());
}

void FaultCampaign::eval(Cycle now) {
  while (next_event_ < events_.size() && events_[next_event_].at <= now) {
    apply(events_[next_event_], now);
    ++next_event_;
  }
  for (std::size_t i = 0; i < detections_.size();) {
    if (detections_[i].at <= now) {
      const PendingDetection due = detections_[i];
      detections_[i] = detections_.back();
      detections_.pop_back();
      detect(due.src_cluster, due.dst_cluster);
    } else {
      ++i;
    }
  }
  arm_wake(now);
}

std::size_t FaultCampaign::channel_for(int src_cluster,
                                       int dst_cluster) const {
  for (const std::size_t i : wireless_links_) {
    if (own256_link_clusters(network_->spec(), i) ==
        std::make_pair(src_cluster, dst_cluster)) {
      return i;
    }
  }
  throw std::invalid_argument(
      "FaultCampaign: no wireless channel for cluster pair " +
      std::to_string(src_cluster) + "->" + std::to_string(dst_cluster));
}

void FaultCampaign::apply(const Event& event, Cycle now) {
  switch (event.kind) {
    case EventKind::kFlap: {
      const std::size_t link =
          event.link >= 0 ? static_cast<std::size_t>(event.link)
                          : channel_for(event.src_cluster, event.dst_cluster);
      network_->network_channel_mut(link).set_outage(now + event.down_cycles,
                                                     now);
      break;
    }
    case EventKind::kKill: {
      if (event.link >= 0) {
        network_->network_channel_mut(static_cast<std::size_t>(event.link))
            .set_dying(now);
        break;
      }
      const std::size_t link =
          channel_for(event.src_cluster, event.dst_cluster);
      network_->network_channel_mut(link).set_dying(now);
      // The detector sees the channel as dead after K consecutive timeouts,
      // which is the time the first post-death flit spends in its first K
      // retransmission rounds.
      Cycle delay = 0;
      const int k = std::min(config_.detect_timeouts, protocol_.max_attempts);
      for (int i = 0; i < k; ++i) delay += protocol_.backoff_delay(i);
      detections_.push_back({now + delay, event.src_cluster,
                             event.dst_cluster});
      break;
    }
    case EventKind::kTokenLoss: {
      SharedMedium& medium =
          network_->medium_mut(static_cast<std::size_t>(event.medium));
      const Cycle recover_at = event.recovery == kNeverCycle
                                   ? kNeverCycle
                                   : now + event.recovery;
      medium.lose_token(now, recover_at);
      // The loss takes effect from the medium's next eval; force it into the
      // active set (it may be dormant right now).
      medium.request_wake(now + 1);
      break;
    }
  }
}

void FaultCampaign::detect(int src_cluster, int dst_cluster) {
  if (faults_.is_failed(src_cluster, dst_cluster)) return;
  faults_.fail(src_cluster, dst_cluster);
  // Rerouting takes effect at the next route computation; in-network packets
  // keep their already-computed path (they still drain — a dying channel
  // never drops flits).
  const std::int64_t changed = patch_own256_routes(*network_, faults_);
  flows_degraded_ += changed;
  obs_flows_degraded_.add(changed);
}

void FaultCampaign::arm_wake(Cycle now) {
  Cycle at = kNeverCycle;
  if (next_event_ < events_.size()) at = std::min(at, events_[next_event_].at);
  for (const PendingDetection& pending : detections_) {
    at = std::min(at, pending.at);
  }
  if (at == kNeverCycle) return;
  request_wake(std::max(at, now + 1));
}

Totals link_layer_totals(const Network& network) {
  Totals t;
  for (std::size_t i = 0; i < network.num_network_channels(); ++i) {
    const LinkFaultCounters& fc = network.network_channel(i).fault_counters();
    t.crc_errors += fc.crc_errors;
    t.retransmissions += fc.retransmissions;
  }
  for (std::size_t m = 0; m < network.num_media(); ++m) {
    const MediumCounters& mc = network.medium(m).counters();
    t.crc_errors += mc.crc_errors;
    t.retransmissions += mc.retransmissions;
    t.token_recoveries += mc.token_recoveries;
  }
  return t;
}

Totals FaultCampaign::totals() const {
  Totals t = link_layer_totals(*network_);
  t.flows_degraded = flows_degraded_;
  t.watchdog_trips = watchdog_ != nullptr ? watchdog_->trips() : 0;
  return t;
}

}  // namespace ownsim::fault
