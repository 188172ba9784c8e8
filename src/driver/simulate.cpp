#include "driver/simulate.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "adapt/controller.hpp"
#include "metrics/report.hpp"
#include "serve/json.hpp"
#include "topofile/topofile.hpp"
#include "topology/own_fault.hpp"

namespace ownsim {

std::optional<ChannelEnergyModel> own_channel_energy(TopologyKind topology,
                                                     int num_cores,
                                                     OwnConfig config,
                                                     Scenario scenario) {
  if (topology != TopologyKind::kOwn) return std::nullopt;
  return ChannelEnergyModel(config, scenario, num_cores == 1024 ? 16 : 12);
}

NetworkFactory make_network_factory(TopologyKind topology,
                                    TopologyOptions options) {
  return [topology, options] {
    return std::make_unique<Network>(build_topology(topology, options));
  };
}

NetworkSpec build_experiment_spec(const ExperimentConfig& config) {
  if ((config.fault.enabled || config.adapt.enabled) &&
      config.topology == TopologyKind::kOwn &&
      config.options.num_cores == 256) {
    // Campaign-capable OWN-256: the healthy floorplan (no pre-declared
    // faults) built with the degraded 5-class route scheme, so a mid-run
    // persistent failure can be rerouted online without a rebuild.
    TopologyOptions options = config.options;
    options.num_vcs = std::max(options.num_vcs, 5);
    return build_own256_faulted(options, FaultSet{});
  }
  return build_topology(config.topology, config.options);
}

std::unique_ptr<fault::FaultCampaign> make_campaign(
    Network& network, const ExperimentConfig& config) {
  if (!config.fault.enabled) return nullptr;
  return std::make_unique<fault::FaultCampaign>(&network, config.fault);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, RunHooks{});
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const RunHooks& hooks) {
  Network network(build_experiment_spec(config));
  network.engine().set_mode(config.kernel);

  TrafficPattern pattern(config.pattern, config.options.num_cores);
  Injector::Params injector_params = config.injector;
  injector_params.rate = config.rate;
  Injector injector(&network, pattern, injector_params);
  network.engine().add(&injector);

  // File topologies report (and meter energy) as the topology they emulate,
  // so an exported OWN-256 file is byte-identical to the hand-built one.
  const TopologyKind reported =
      config.topology == TopologyKind::kFile
          ? topofile::topofile_reporting_kind(config.options)
          : config.topology;
  std::optional<ChannelEnergyModel> channel_energy = own_channel_energy(
      reported, config.options.num_cores, config.own_config, config.scenario);

  std::unique_ptr<fault::FaultCampaign> campaign =
      make_campaign(network, config);
  exec::CancellationToken token;
  if (campaign != nullptr) {
    campaign->attach();
    if (campaign->watchdog() != nullptr) token = campaign->watchdog()->token();
  }
  // The adaptation controller registers after the campaign (and after every
  // network component): both mutate the network at cycle boundaries, and a
  // fixed registration order is part of the bit-identity argument (§5k).
  std::unique_ptr<adapt::AdaptController> adapt_ctl;
  if (config.adapt.enabled) {
    adapt_ctl = std::make_unique<adapt::AdaptController>(
        &network, config.adapt, config.power,
        channel_energy.has_value() ? &*channel_energy : nullptr,
        config.options.clock_ghz);
    adapt_ctl->attach(campaign != nullptr ? &campaign->protocol() : nullptr);
  }
  if (hooks.before_run) hooks.before_run(network);

  ExperimentResult result;
  result.run = run_load_point(network, injector, config.phases, token,
                              hooks.progress ? &hooks.progress : nullptr);
  if (campaign != nullptr) {
    result.fault = campaign->totals();
    result.watchdog_tripped = campaign->watchdog_tripped();
  }
  if (adapt_ctl != nullptr) {
    result.adapt = adapt_ctl->totals();
    if (campaign == nullptr) {
      // Adapt-only runs still corrupt flits through the live-BER path; the
      // result reports them as a campaign would.
      result.fault = fault::link_layer_totals(network);
    }
  }

  // A run cancelled before its first slice has no elapsed cycles, and the
  // energy model (rightly) refuses a never-simulated network. Cancelled
  // results are partial either way — power stays zeroed in that case.
  if (!result.run.cancelled || result.run.cycles_simulated > 0) {
    EnergyModel energy(config.power, channel_energy);
    const double trim_w =
        adapt_ctl != nullptr ? adapt_ctl->trim_avg_w() : 0.0;
    result.power = energy.compute(network, config.options.clock_ghz, trim_w);
    result.energy_per_packet_pj = energy.energy_per_packet_pj(
        network, config.options.clock_ghz, trim_w);
  }

  result.counters.reserve(network.obs().size());
  network.obs().for_each(
      [&result](const std::string& name, std::int64_t value) {
        result.counters.emplace_back(name, value);
      });

  std::ostringstream name;
  name << to_string(reported) << '-' << config.options.num_cores << '/'
       << to_string(config.pattern);
  if (reported == TopologyKind::kOwn) {
    name << '/' << to_string(config.own_config) << '/'
         << to_string(config.scenario);
  }
  result.name = name.str();
  if (hooks.after_run) hooks.after_run(network, result);
  return result;
}

std::string experiment_result_json(const ExperimentResult& result) {
  using serve::Json;
  Json::Object o;
  if (result.adapt.enabled) {
    // Emitted only when the adaptation loop ran: adapt=0 results keep
    // today's byte layout exactly.
    Json::Object adapt;
    adapt["backoffs"] = Json(result.adapt.backoffs);
    adapt["enabled"] = Json(true);
    adapt["min_margin_db"] = Json(result.adapt.min_margin_db);
    adapt["peak_temp_c"] = Json(result.adapt.peak_temp_c);
    adapt["reallocations"] = Json(result.adapt.reallocations);
    adapt["refreshes"] = Json(result.adapt.refreshes);
    adapt["trim_avg_mw"] = Json(result.adapt.trim_avg_mw);
    o["adapt"] = Json(std::move(adapt));
  }
  Json::Object counters;
  for (const auto& [name, value] : result.counters) {
    counters[name] = Json(value);
  }
  o["counters"] = Json(std::move(counters));
  o["energy_per_packet_pj"] = Json(result.energy_per_packet_pj);

  Json::Object fault;
  fault["crc_errors"] = Json(result.fault.crc_errors);
  fault["flows_degraded"] = Json(result.fault.flows_degraded);
  fault["retransmissions"] = Json(result.fault.retransmissions);
  fault["token_recoveries"] = Json(result.fault.token_recoveries);
  fault["watchdog_trips"] = Json(result.fault.watchdog_trips);
  o["fault"] = Json(std::move(fault));
  o["name"] = Json(result.name);

  const PowerBreakdown& p = result.power;
  Json::Object power;
  power["electrical_link_w"] = Json(p.electrical_link_w);
  power["photonic_laser_w"] = Json(p.photonic_laser_w);
  power["photonic_link_w"] = Json(p.photonic_link_w);
  power["router_dynamic_w"] = Json(p.router_dynamic_w);
  power["router_static_w"] = Json(p.router_static_w);
  power["total_w"] = Json(p.total_w());
  power["wireless_link_w"] = Json(p.wireless_link_w);
  power["wireless_static_w"] = Json(p.wireless_static_w);
  o["power"] = Json(std::move(power));
  o["run"] = run_result_canonical_json(result.run);
  o["watchdog_tripped"] = Json(result.watchdog_tripped);
  return Json(std::move(o)).dump();
}

}  // namespace ownsim
