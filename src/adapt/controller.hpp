// Thermal/variation-driven adaptive link controller (DESIGN.md §5k).
//
// A wake-driven `Clocked`, registered after every network component exactly
// like the fault campaign: its mutations at cycle T happen after all
// component evals of T, identically in both kernels (lockstep and
// activity), which is what keeps the closed physical loop bit-identical.
//
// Every `refresh` cycles it:
//   1. re-attributes the power of the elapsed window to the floorplan from
//      the plain component counters (power/thermal.hpp — NOT obs counters,
//      which are observational by contract and compile out under
//      OWNSIM_OBS=OFF),
//   2. relaxes the ThermalMap and samples the temperature rise at each
//      wireless/photonic entity's endpoints (exponentially smoothed),
//   3. combines temperature with the per-die variation sample into each
//      wireless entity's raw margin and feeds the resulting
//      ber_at_margin(...) into the live CRC/retransmission path
//      (Channel/SharedMedium::set_live_ber),
//   4. when `react`: steps the per-entity hysteresis Governor (rate
//      backoff: cycles_per_flit x (level+1) buys backoff_gain dB/level),
//      re-allocates OWN-256 cluster pairs whose margin collapses even at
//      full backoff (route patching via patch_own256_routes, reversible
//      with its own hysteresis band), and accrues photonic ring trimming
//      power, charged into the energy model post-run.
#pragma once

#include <cstdint>
#include <vector>

#include "adapt/config.hpp"
#include "adapt/governor.hpp"
#include "adapt/variation.hpp"
#include "fault/protocol.hpp"
#include "obs/counters.hpp"
#include "power/params.hpp"
#include "power/thermal.hpp"
#include "sim/clocked.hpp"
#include "topology/own_fault.hpp"

namespace ownsim {
class Network;
class ChannelEnergyModel;
}

namespace ownsim::adapt {

class AdaptController final : public Clocked {
 public:
  /// Validates the config against `network`'s spec (a floorplan is required
  /// — the thermal loop is meaningless without one) and draws the per-die
  /// variation sample. `own_channels` may be null (legacy wireless energy).
  AdaptController(Network* network, AdaptConfig config,
                  const PowerParams& power,
                  const ChannelEnergyModel* own_channels, double clock_ghz);

  /// Arms the live-BER path and registers the controller with the engine.
  /// Call once, after all other components (campaign included) registered
  /// and before the first cycle. When a fault campaign is active, pass its
  /// protocol: the campaign has already armed the channels (re-arming would
  /// reset its RNG streams), so the controller only overrides the BER and
  /// leaves re-allocation to the campaign's detector. Without a campaign
  /// (null) the controller arms its own protocol at the static operating
  /// point ber_at_margin(snr_required, base_margin).
  void attach(const fault::Protocol* campaign_protocol);

  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Purely wake-driven: dormant between refresh cycles.
  bool is_idle() const override { return true; }

  Totals totals() const;

  /// Time-averaged photonic trimming power over the run so far, watts.
  /// Charged into EnergyModel::compute's photonic static bucket post-run.
  double trim_avg_w() const;

 private:
  struct Entity {
    bool is_medium = false;  ///< index into media (else spec links)
    std::size_t index = 0;
    bool wireless = false;  ///< wireless: BER + backoff; photonic: trim
    VariationSample variation;
    std::vector<RouterId> routers;  ///< endpoints, temperature sample points
    double temp_c = 0.0;            ///< smoothed rise
    bool temp_primed = false;
    Governor governor;
    int base_cpf = 1;
    // OWN-256 re-allocation state (point-to-point wireless links only).
    int src_cluster = -1;
    int dst_cluster = -1;
    bool reallocated = false;
    int realloc_low = 0;
    int realloc_high = 0;
  };

  void refresh(Cycle now);
  void step_wireless(Entity& entity, double raw_margin_db);
  void step_realloc(Entity& entity, double raw_margin_db);

  Network* network_;
  AdaptConfig config_;
  PowerParams power_;
  const ChannelEnergyModel* own_channels_;
  double clock_ghz_;

  fault::Protocol protocol_;  ///< own operating point (no campaign)
  bool armed_by_campaign_ = false;

  ThermalMap thermal_;
  std::vector<Entity> entities_;
  std::vector<double> prev_dyn_pj_;
  std::vector<double> static_w_;

  bool own256_mode_ = false;  ///< 5-class OWN-256: re-allocation possible
  std::vector<std::pair<int, int>> realloc_pairs_;  ///< re-allocated pairs

  Cycle next_refresh_ = 0;
  Cycle last_refresh_ = 0;

  std::int64_t refreshes_ = 0;
  std::int64_t backoffs_ = 0;
  std::int64_t reallocations_ = 0;
  double peak_temp_c_ = 0.0;
  double min_margin_db_ = 0.0;
  bool margin_seen_ = false;

  // Trimming power, integrated piecewise over refresh windows.
  double trim_watt_cycles_ = 0.0;
  double trim_w_current_ = 0.0;
  Cycle trim_since_ = 0;

  obs::Counter obs_refreshes_;
  obs::Counter obs_backoffs_;
  obs::Counter obs_reallocations_;
  obs::Gauge obs_trim_uw_;

  bool attached_ = false;
};

}  // namespace ownsim::adapt
