#include "adapt/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "adapt/variation.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "network/network.hpp"
#include "rf/ber.hpp"

namespace ownsim::adapt {
namespace {

// Arming streams for the controller's own protocol (no campaign). Disjoint
// by construction from the variation blocks (adapt/variation.hpp) and far
// from the campaign's 100/100000 blocks so a shared master seed would still
// never alias a stream.
constexpr std::uint64_t kArmChannelBase = 2000000;
constexpr std::uint64_t kArmMediumBase = 3000000;

}  // namespace

AdaptController::AdaptController(Network* network, AdaptConfig config,
                                 const PowerParams& power,
                                 const ChannelEnergyModel* own_channels,
                                 double clock_ghz)
    : network_(network),
      config_(config),
      power_(power),
      own_channels_(own_channels),
      clock_ghz_(clock_ghz) {
  if (network_ == nullptr) {
    throw std::invalid_argument("AdaptController: network must not be null");
  }
  if (config_.refresh < 1) {
    throw std::invalid_argument("AdaptController: refresh must be >= 1");
  }
  if (!(config_.thermal_alpha > 0.0) || config_.thermal_alpha > 1.0) {
    throw std::invalid_argument(
        "AdaptController: thermal_alpha must be in (0, 1]");
  }
  if (config_.thermal_iterations < 1 || config_.temp_coeff_db_per_c < 0.0 ||
      config_.variation_sigma_db < 0.0 || config_.ring_sigma_c < 0.0 ||
      config_.trim_uw_per_c < 0.0) {
    throw std::invalid_argument("AdaptController: bad physical-model knobs");
  }
  if (config_.backoff_exit_db <= config_.backoff_enter_db ||
      config_.realloc_exit_db <= config_.realloc_enter_db ||
      !(config_.backoff_gain_db > 0.0) || config_.max_backoff < 0 ||
      config_.sustain < 1) {
    throw std::invalid_argument(
        "AdaptController: hysteresis bands need exit > enter, gain > 0");
  }
  const NetworkSpec& spec = network_->spec();
  if (spec.router_xy.empty()) {
    throw std::invalid_argument(
        "AdaptController: topology carries no floorplan (router_xy); the "
        "thermal loop needs die positions");
  }

  ThermalMap::Params tp;
  tp.iterations = config_.thermal_iterations;
  thermal_ = ThermalMap(tp);

  const Governor::Params gp{config_.backoff_enter_db, config_.backoff_exit_db,
                            config_.backoff_gain_db, config_.max_backoff,
                            config_.sustain};

  for (std::size_t i = 0; i < spec.links.size(); ++i) {
    const LinkSpec& link = spec.links[i];
    if (link.medium == MediumType::kElectrical) continue;
    Entity e;
    e.is_medium = false;
    e.index = i;
    e.wireless = link.medium == MediumType::kWireless;
    e.variation =
        draw_variation(config_.variation_seed, kStreamLinkBase + i,
                       config_.variation_sigma_db, config_.ring_sigma_c);
    e.routers = {link.src_router, link.dst_router};
    e.governor = Governor(gp);
    e.base_cpf = link.cycles_per_flit;
    if (const auto pair = own256_link_clusters(spec, i)) {
      e.src_cluster = pair->first;
      e.dst_cluster = pair->second;
    }
    entities_.push_back(std::move(e));
  }
  for (std::size_t m = 0; m < spec.media.size(); ++m) {
    const MediumSpec& ms = spec.media[m];
    Entity e;
    e.is_medium = true;
    e.index = m;
    e.wireless = ms.medium == MediumType::kWireless;
    e.variation =
        draw_variation(config_.variation_seed, kStreamMediumBase + m,
                       config_.variation_sigma_db, config_.ring_sigma_c);
    for (const auto& [wr, wp] : ms.writers) e.routers.push_back(wr);
    for (const auto& [rr, rp] : ms.readers) e.routers.push_back(rr);
    e.governor = Governor(gp);
    e.base_cpf = ms.cycles_per_flit;
    entities_.push_back(std::move(e));
  }

  // Re-allocation needs the 5-class degraded route scheme (the driver builds
  // OWN-256 with build_own256_faulted when adapt is on) and the cluster-pair
  // link map; anything else keeps reallocations at 0.
  own256_mode_ = spec.num_routers() == 64 && spec.vc_classes.size() == 5;

  protocol_.ber =
      ber_at_margin(config_.snr_required, config_.base_margin);

  prev_dyn_pj_.assign(static_cast<std::size_t>(spec.num_routers()), 0.0);
  next_refresh_ = config_.refresh;
}

void AdaptController::attach(const fault::Protocol* campaign_protocol) {
  if (attached_) {
    throw std::logic_error("AdaptController::attach: already attached");
  }
  attached_ = true;
  armed_by_campaign_ = campaign_protocol != nullptr;
  if (armed_by_campaign_) {
    // The campaign owns the channels' fault models and RNG streams; share
    // its timing parameters so backoff arithmetic matches what the channels
    // actually charge.
    protocol_ = *campaign_protocol;
  } else {
    obs::Registry& registry = network_->obs();
    for (const Entity& e : entities_) {
      if (!e.wireless) continue;
      Rng rng(derive_seed(config_.variation_seed,
                          (e.is_medium ? kArmMediumBase : kArmChannelBase) +
                              e.index));
      if (e.is_medium) {
        network_->medium_mut(e.index).set_fault_model(&protocol_, rng,
                                                      &registry);
      } else {
        network_->network_channel_mut(e.index).set_fault_model(&protocol_, rng,
                                                               &registry);
      }
    }
  }
  static_w_ = per_router_static_w(*network_, power_);
  obs::Registry& registry = network_->obs();
  obs_refreshes_ = registry.counter("adapt.refreshes");
  obs_backoffs_ = registry.counter("adapt.backoffs");
  obs_reallocations_ = registry.counter("adapt.reallocations");
  obs_trim_uw_ = registry.gauge("adapt.trim_uw");
  network_->engine().add(this);
  request_wake(next_refresh_);
}

void AdaptController::eval(Cycle now) {
  // The lockstep kernel evaluates every component every cycle; only act on
  // refresh boundaries so all kernels see identical mutation cycles.
  if (now < next_refresh_) {
    request_wake(next_refresh_);
    return;
  }
  refresh(now);
  next_refresh_ = now + config_.refresh;
  request_wake(next_refresh_);
}

void AdaptController::refresh(Cycle now) {
  const NetworkSpec& spec = network_->spec();
  const double window_seconds =
      static_cast<double>(now - last_refresh_) / (clock_ghz_ * 1e9);

  // 1. Window power: dynamic energy of this window plus static floor.
  std::vector<double> dyn =
      per_router_dynamic_pj(*network_, power_, own_channels_);
  std::vector<double> window_w(dyn.size());
  for (std::size_t r = 0; r < dyn.size(); ++r) {
    window_w[r] =
        (dyn[r] - prev_dyn_pj_[r]) * units::kPico / window_seconds +
        static_w_[r];
  }
  prev_dyn_pj_ = std::move(dyn);
  last_refresh_ = now;

  // 2. Thermal relaxation of this window's field.
  thermal_.clear();
  thermal_.deposit(spec, window_w);
  const std::vector<double> field = thermal_.field();
  for (double t : field) peak_temp_c_ = std::max(peak_temp_c_, t);

  // 3 + 4. Per-entity margin update and reactions.
  double trim_w = 0.0;
  for (Entity& e : entities_) {
    double sample = 0.0;
    for (RouterId r : e.routers) {
      const auto [x, y] = spec.router_xy[static_cast<std::size_t>(r)];
      sample = std::max(sample, thermal_.value_at(field, x, y));
    }
    e.temp_c = e.temp_primed ? config_.thermal_alpha * sample +
                                   (1.0 - config_.thermal_alpha) * e.temp_c
                             : sample;
    e.temp_primed = true;

    if (e.wireless) {
      const double raw = config_.base_margin.db() -
                         config_.temp_coeff_db_per_c * e.temp_c -
                         e.variation.gain_offset_db;
      step_wireless(e, raw);
    } else if (config_.react) {
      // Photonic trimming: hold the rings on resonance against the local
      // temperature rise plus the ring's process detuning.
      trim_w += config_.trim_uw_per_c *
                std::max(0.0, e.temp_c + e.variation.ring_detune_c) *
                units::kMicro;
    }
  }

  trim_watt_cycles_ += trim_w_current_ * static_cast<double>(now - trim_since_);
  trim_since_ = now;
  trim_w_current_ = trim_w;
  obs_trim_uw_.set(static_cast<std::int64_t>(trim_w / units::kMicro));

  ++refreshes_;
  obs_refreshes_.inc();
}

void AdaptController::step_wireless(Entity& e, double raw_margin_db) {
  if (config_.react) {
    const int before = e.governor.level();
    e.governor.observe(raw_margin_db);
    if (e.governor.level() != before) {
      if (e.governor.level() > before) {
        ++backoffs_;
        obs_backoffs_.inc();
      }
      const int cpf = e.base_cpf * (1 + e.governor.level());
      if (e.is_medium) {
        network_->medium_mut(e.index).set_cycles_per_flit(cpf);
      } else {
        network_->network_channel_mut(e.index).set_cycles_per_flit(cpf);
      }
    }
    step_realloc(e, raw_margin_db);
  }
  const double effective = e.governor.effective_db(raw_margin_db);
  if (!margin_seen_ || effective < min_margin_db_) {
    min_margin_db_ = effective;
    margin_seen_ = true;
  }
  const double ber =
      ber_at_margin(config_.snr_required, Decibels{effective});
  if (e.is_medium) {
    network_->medium_mut(e.index).set_live_ber(ber);
  } else {
    network_->network_channel_mut(e.index).set_live_ber(ber);
  }
}

void AdaptController::step_realloc(Entity& e, double raw_margin_db) {
  // Re-allocation is OWN-256-only (cluster-pair route patching) and yields
  // to an active fault campaign — two independent FaultSets patching the
  // same table would fight.
  if (!own256_mode_ || armed_by_campaign_ || e.src_cluster < 0) return;
  const double margin_at_max =
      raw_margin_db + config_.backoff_gain_db * config_.max_backoff;
  if (!e.reallocated && margin_at_max < config_.realloc_enter_db) {
    e.realloc_high = 0;
    if (++e.realloc_low >= config_.sustain) {
      e.realloc_low = 0;
      FaultSet tentative(realloc_pairs_);
      tentative.fail(e.src_cluster, e.dst_cluster);
      if (tentative.transit_for(e.src_cluster, e.dst_cluster) < 0) {
        return;  // no alive transit: nothing to re-allocate onto
      }
      realloc_pairs_.emplace_back(e.src_cluster, e.dst_cluster);
      patch_own256_routes(*network_, FaultSet(realloc_pairs_));
      e.reallocated = true;
      ++reallocations_;
      obs_reallocations_.inc();
    }
  } else if (e.reallocated && margin_at_max > config_.realloc_exit_db) {
    e.realloc_low = 0;
    if (++e.realloc_high >= config_.sustain) {
      e.realloc_high = 0;
      std::erase(realloc_pairs_,
                 std::make_pair(e.src_cluster, e.dst_cluster));
      patch_own256_routes(*network_, FaultSet(realloc_pairs_));
      e.reallocated = false;
    }
  } else {
    e.realloc_low = 0;
    e.realloc_high = 0;
  }
}

double AdaptController::trim_avg_w() const {
  const Cycle end = network_->engine().now();
  if (end <= 0) return 0.0;
  const double watt_cycles =
      trim_watt_cycles_ +
      trim_w_current_ * static_cast<double>(end - trim_since_);
  return watt_cycles / static_cast<double>(end);
}

Totals AdaptController::totals() const {
  Totals t;
  t.enabled = true;
  t.refreshes = refreshes_;
  t.backoffs = backoffs_;
  t.reallocations = reallocations_;
  t.trim_avg_mw = trim_avg_w() / units::kMilli;
  t.peak_temp_c = peak_temp_c_;
  t.min_margin_db = margin_seen_ ? min_margin_db_ : 0.0;
  return t;
}

}  // namespace ownsim::adapt
