#include "driver/experiment_config.hpp"

#include <stdexcept>

#include "common/numfmt.hpp"
#include "common/sha256.hpp"
#include "serve/json.hpp"
#include "topofile/topofile.hpp"

namespace ownsim {
namespace {

using serve::Json;

/// Bump on any change to simulated results or the stored payload layout.
constexpr char kCodeVersionTag[] = "ownsim-2026.08-serve3";

const char* to_string(fault::EventKind kind) {
  switch (kind) {
    case fault::EventKind::kFlap: return "flap";
    case fault::EventKind::kKill: return "kill";
    case fault::EventKind::kTokenLoss: return "token_loss";
  }
  throw std::logic_error("bad EventKind");
}

fault::EventKind parse_event_kind(const std::string& name) {
  if (name == "flap") return fault::EventKind::kFlap;
  if (name == "kill") return fault::EventKind::kKill;
  if (name == "token_loss") return fault::EventKind::kTokenLoss;
  throw std::invalid_argument("bad fault event kind: " + name);
}

/// Parses "src:dst@cycle" (OWN-256 cluster pair, rerouted online) or
/// "link:IDX@cycle" (point-to-point link index on any topology, no reroute)
/// into a kill event.
fault::Event parse_kill(const std::string& s) {
  fault::Event event;
  event.kind = fault::EventKind::kKill;
  const std::size_t colon = s.find(':');
  const std::size_t at = s.find('@');
  if (colon == std::string::npos || at == std::string::npos || at < colon) {
    throw std::invalid_argument("fault_kill: want src:dst@cycle or link:IDX@cycle");
  }
  if (s.rfind("link:", 0) == 0) {
    event.link = std::stoi(s.substr(colon + 1, at - colon - 1));
  } else {
    event.src_cluster = std::stoi(s.substr(0, colon));
    event.dst_cluster = std::stoi(s.substr(colon + 1, at - colon - 1));
  }
  event.at = std::stoll(s.substr(at + 1));
  return event;
}

/// Parses "medium@cycle:recovery" (recovery in cycles, or "never").
fault::Event parse_token_loss(const std::string& s) {
  fault::Event event;
  event.kind = fault::EventKind::kTokenLoss;
  const std::size_t at = s.find('@');
  const std::size_t colon = at == std::string::npos ? at : s.find(':', at);
  if (at == std::string::npos || colon == std::string::npos) {
    throw std::invalid_argument("fault_token_loss: want medium@cycle:recovery");
  }
  event.medium = std::stoi(s.substr(0, at));
  event.at = std::stoll(s.substr(at + 1, colon - at - 1));
  const std::string recovery = s.substr(colon + 1);
  event.recovery =
      recovery == "never" ? kNeverCycle : std::stoll(recovery);
  return event;
}

Json event_to_json(const fault::Event& event) {
  Json::Object object;
  object["at"] = Json(event.at);
  object["down_cycles"] = Json(event.down_cycles);
  object["dst_cluster"] = Json(event.dst_cluster);
  object["kind"] = Json(to_string(event.kind));
  object["link"] = Json(event.link);
  object["medium"] = Json(event.medium);
  object["recovery"] = Json(event.recovery);
  object["src_cluster"] = Json(event.src_cluster);
  return Json(std::move(object));
}

fault::Event event_from_json(const Json& json) {
  fault::Event event;
  for (const auto& [key, value] : json.as_object()) {
    if (key == "at") {
      event.at = value.as_int();
    } else if (key == "down_cycles") {
      event.down_cycles = value.as_int();
    } else if (key == "dst_cluster") {
      event.dst_cluster = static_cast<int>(value.as_int());
    } else if (key == "kind") {
      event.kind = parse_event_kind(value.as_string());
    } else if (key == "link") {
      event.link = static_cast<int>(value.as_int());
    } else if (key == "medium") {
      event.medium = static_cast<int>(value.as_int());
    } else if (key == "recovery") {
      event.recovery = value.as_int();
    } else if (key == "src_cluster") {
      event.src_cluster = static_cast<int>(value.as_int());
    } else {
      throw std::invalid_argument("canonical config: unknown event key: " +
                                  key);
    }
  }
  return event;
}

Scenario parse_scenario(const std::string& name) {
  if (name == "ideal") return Scenario::kIdeal;
  if (name == "conservative") return Scenario::kConservative;
  throw std::invalid_argument("bad scenario: " + name);
}

const char* scenario_name(Scenario scenario) {
  return scenario == Scenario::kConservative ? "conservative" : "ideal";
}

KernelMode parse_kernel(const std::string& name) {
  if (name == "activity") return KernelMode::kActivity;
  if (name == "lockstep") return KernelMode::kLockstep;
  if (name == "parallel") return KernelMode::kParallel;
  throw std::invalid_argument(
      "bad kernel (want activity|lockstep|parallel): " + name);
}

}  // namespace

ExperimentConfig parse_experiment_config(const Config& args) {
  ExperimentConfig config;
  const std::string topology = args.get_string("topology", "own");
  if (topology.rfind("file:", 0) == 0) {
    // topology=file:PATH — load the file body NOW so the cache key, the
    // deadlock check and the simulated network all come from the same
    // bytes (a later mutation of the file cannot alias a cached result).
    config.topology = TopologyKind::kFile;
    config.options.topofile_path = topology.substr(5);
    config.options.topofile_text =
        topofile::read_topofile(config.options.topofile_path);
    // Default the core count to the file's node count; an explicit cores=
    // that disagrees still fails loudly in the loader.
    config.options.num_cores =
        topofile::probe_topofile(config.options.topofile_text).num_nodes;
  } else {
    config.topology = parse_topology(topology);
    if (config.topology == TopologyKind::kFile) {
      throw std::invalid_argument("topology=file needs a path: file:PATH");
    }
  }
  config.pattern = parse_pattern(args.get_string("pattern", "UN"));
  config.options.num_cores =
      static_cast<int>(args.get_int("cores", config.options.num_cores));
  config.rate = args.get_double("rate", 0.004);
  const std::int64_t own_config = args.get_int("config", 4);
  if (own_config < 1 || own_config > 4) {
    throw std::invalid_argument("config: want a Table IV row 1..4");
  }
  config.own_config = static_cast<OwnConfig>(own_config);
  config.scenario = parse_scenario(args.get_string("scenario", "ideal"));
  config.phases.warmup = args.get_int("warmup", 1500);
  config.phases.measure = args.get_int("measure", 4000);
  config.phases.drain_limit = args.get_int("drain", 30000);
  config.injector.packet_flits =
      static_cast<int>(args.get_int("packet_flits", 4));
  config.injector.master_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));

  // Topology sizing knobs (defaults reproduce the paper's setup).
  config.options.concentration = static_cast<int>(
      args.get_int("concentration", config.options.concentration));
  config.options.num_vcs =
      static_cast<int>(args.get_int("vcs", config.options.num_vcs));
  config.options.buffer_depth = static_cast<int>(
      args.get_int("buffer_depth", config.options.buffer_depth));
  config.options.clock_ghz =
      args.get_double("clock_ghz", config.options.clock_ghz);
  config.options.ideal_arbitration =
      args.get_bool("ideal_arbitration", config.options.ideal_arbitration);
  config.options.cmesh_o1turn =
      args.get_bool("o1turn", config.options.cmesh_o1turn);
  if (args.contains("flit_bits")) {
    config.options.flit_bits = static_cast<int>(args.require_int("flit_bits"));
    config.injector.flit_bits =
        static_cast<std::uint32_t>(config.options.flit_bits);
  }

  if (args.contains("kernel")) {
    config.kernel = parse_kernel(args.require_string("kernel"));
  }
  // Parallel-kernel execution knobs; result-neutral, so NOT part of the
  // canonical config JSON below (same cache entry for any thread count).
  config.threads = static_cast<int>(args.get_int("threads", 0));
  config.partitions = static_cast<int>(args.get_int("partitions", 0));
  if (config.threads < 0) throw std::invalid_argument("threads: want >= 0");
  if (config.partitions < 0) {
    throw std::invalid_argument("partitions: want >= 0");
  }

  config.fault.enabled = args.get_bool("fault", false);
  config.fault.seed = static_cast<std::uint64_t>(
      args.get_int("fault_seed",
                   static_cast<std::int64_t>(config.injector.master_seed)));
  config.fault.ber = args.get_double("fault_ber", -1.0);
  config.fault.margin = Decibels{args.get_double("fault_margin_db", 2.5)};
  config.fault.random_flaps =
      static_cast<int>(args.get_int("fault_flaps", 0));
  config.fault.flap_down_cycles = args.get_int("fault_flap_down", 200);
  config.fault.horizon = args.get_int("fault_horizon", 4000);
  if (args.contains("fault_kill")) {
    config.fault.events.push_back(
        parse_kill(args.require_string("fault_kill")));
  }
  if (args.contains("fault_token_loss")) {
    config.fault.events.push_back(
        parse_token_loss(args.require_string("fault_token_loss")));
  }
  const Cycle watchdog_window = args.get_int("watchdog", 0);
  config.fault.watchdog = watchdog_window > 0;
  config.fault.watchdog_window =
      config.fault.watchdog ? watchdog_window : Cycle{20000};

  adapt::AdaptConfig& a = config.adapt;
  a.enabled = args.get_bool("adapt", false);
  a.react = args.get_bool("adapt_react", a.react);
  a.refresh = args.get_int("adapt_refresh", a.refresh);
  a.variation_seed = static_cast<std::uint64_t>(args.get_int(
      "adapt_seed", static_cast<std::int64_t>(a.variation_seed)));
  a.variation_sigma_db = args.get_double("adapt_sigma_db", a.variation_sigma_db);
  a.ring_sigma_c = args.get_double("adapt_ring_sigma_c", a.ring_sigma_c);
  a.snr_required =
      Decibels{args.get_double("adapt_snr_required_db", a.snr_required.db())};
  a.base_margin =
      Decibels{args.get_double("adapt_margin_db", a.base_margin.db())};
  a.temp_coeff_db_per_c =
      args.get_double("adapt_temp_coeff", a.temp_coeff_db_per_c);
  a.thermal_alpha = args.get_double("adapt_alpha", a.thermal_alpha);
  a.thermal_iterations = static_cast<int>(
      args.get_int("adapt_iterations", a.thermal_iterations));
  a.backoff_enter_db = args.get_double("adapt_backoff_enter", a.backoff_enter_db);
  a.backoff_exit_db = args.get_double("adapt_backoff_exit", a.backoff_exit_db);
  a.backoff_gain_db = args.get_double("adapt_backoff_gain", a.backoff_gain_db);
  a.max_backoff =
      static_cast<int>(args.get_int("adapt_max_backoff", a.max_backoff));
  a.sustain = static_cast<int>(args.get_int("adapt_sustain", a.sustain));
  a.realloc_enter_db =
      args.get_double("adapt_realloc_enter", a.realloc_enter_db);
  a.realloc_exit_db = args.get_double("adapt_realloc_exit", a.realloc_exit_db);
  a.trim_uw_per_c = args.get_double("adapt_trim_uw", a.trim_uw_per_c);
  return config;
}

std::string canonical_config_json(const ExperimentConfig& config) {
  Json::Object o;
  o["topology"] = Json(to_string(config.topology));
  if (config.topology == TopologyKind::kFile) {
    // The cache key must cover the file *content* (not its path — the same
    // file moved must hit, the same path mutated must miss) and the
    // generator version (regenerated routes re-key unchanged bytes).
    std::string sha = config.topofile_sha256;
    if (sha.empty()) {
      if (config.options.topofile_text.empty()) {
        throw std::logic_error(
            "canonical config: file topology without loaded text or sha256");
      }
      Sha256 hasher;
      hasher.update(config.options.topofile_text);
      sha = hasher.hex_digest();
    }
    o["topofile.sha256"] = Json(std::move(sha));
    o["topofile.generator"] = Json(topofile::kTopofileGeneratorVersion);
  }
  o["pattern"] = Json(to_string(config.pattern));
  o["rate"] = Json(config.rate);
  o["own_config"] = Json(static_cast<int>(config.own_config));
  o["scenario"] = Json(scenario_name(config.scenario));

  o["options.num_cores"] = Json(config.options.num_cores);
  o["options.concentration"] = Json(config.options.concentration);
  o["options.num_vcs"] = Json(config.options.num_vcs);
  o["options.buffer_depth"] = Json(config.options.buffer_depth);
  o["options.max_packet_flits"] = Json(config.options.max_packet_flits);
  o["options.clock_ghz"] = Json(config.options.clock_ghz);
  o["options.flit_bits"] = Json(config.options.flit_bits);
  o["options.electrical_cpf"] = Json(config.options.electrical_cpf);
  o["options.photonic_cpf"] = Json(config.options.photonic_cpf);
  o["options.wireless_cpf"] = Json(config.options.wireless_cpf);
  o["options.ideal_arbitration"] = Json(config.options.ideal_arbitration);
  o["options.cmesh_o1turn"] = Json(config.options.cmesh_o1turn);

  o["phases.warmup"] = Json(config.phases.warmup);
  o["phases.measure"] = Json(config.phases.measure);
  o["phases.drain_limit"] = Json(config.phases.drain_limit);

  o["injector.packet_flits"] = Json(config.injector.packet_flits);
  o["injector.flit_bits"] =
      Json(static_cast<std::int64_t>(config.injector.flit_bits));
  o["injector.master_seed"] =
      Json(static_cast<std::int64_t>(config.injector.master_seed));

  const PowerParams& p = config.power;
  o["power.buffer_write_pj_per_bit"] = Json(p.buffer_write_pj_per_bit);
  o["power.buffer_read_pj_per_bit"] = Json(p.buffer_read_pj_per_bit);
  o["power.xbar_base_pj_per_bit"] = Json(p.xbar_base_pj_per_bit);
  o["power.xbar_radix_slope_pj_per_bit"] = Json(p.xbar_radix_slope_pj_per_bit);
  o["power.alloc_pj_per_op"] = Json(p.alloc_pj_per_op);
  o["power.leak_mw_per_input_port"] = Json(p.leak_mw_per_input_port);
  o["power.leak_mw_per_output_port"] = Json(p.leak_mw_per_output_port);
  o["power.leak_uw_per_crosspoint"] = Json(p.leak_uw_per_crosspoint);
  o["power.wire_pj_per_bit_mm"] = Json(p.wire_pj_per_bit_mm);
  o["power.photonic_dynamic_pj_per_bit"] = Json(p.photonic_dynamic_pj_per_bit);
  o["power.lambda_rate_gbps"] = Json(p.lambda_rate_gbps);
  o["power.ring_tuning_uw"] = Json(p.ring_tuning_uw);
  o["power.legacy_wireless_pj_per_bit"] = Json(p.legacy_wireless_pj_per_bit);
  o["power.wireless_static_mw_per_channel"] =
      Json(p.wireless_static_mw_per_channel);

  const adapt::AdaptConfig& a = config.adapt;
  o["adapt.enabled"] = Json(a.enabled);
  o["adapt.react"] = Json(a.react);
  o["adapt.refresh"] = Json(a.refresh);
  o["adapt.variation_seed"] = Json(static_cast<std::int64_t>(a.variation_seed));
  o["adapt.variation_sigma_db"] = Json(a.variation_sigma_db);
  o["adapt.ring_sigma_c"] = Json(a.ring_sigma_c);
  o["adapt.snr_required_db"] = Json(a.snr_required.db());
  o["adapt.base_margin_db"] = Json(a.base_margin.db());
  o["adapt.temp_coeff_db_per_c"] = Json(a.temp_coeff_db_per_c);
  o["adapt.thermal_alpha"] = Json(a.thermal_alpha);
  o["adapt.thermal_iterations"] = Json(a.thermal_iterations);
  o["adapt.backoff_enter_db"] = Json(a.backoff_enter_db);
  o["adapt.backoff_exit_db"] = Json(a.backoff_exit_db);
  o["adapt.backoff_gain_db"] = Json(a.backoff_gain_db);
  o["adapt.max_backoff"] = Json(a.max_backoff);
  o["adapt.sustain"] = Json(a.sustain);
  o["adapt.realloc_enter_db"] = Json(a.realloc_enter_db);
  o["adapt.realloc_exit_db"] = Json(a.realloc_exit_db);
  o["adapt.trim_uw_per_c"] = Json(a.trim_uw_per_c);

  const fault::CampaignConfig& f = config.fault;
  o["fault.enabled"] = Json(f.enabled);
  o["fault.seed"] = Json(static_cast<std::int64_t>(f.seed));
  o["fault.ber"] = Json(f.ber);
  o["fault.snr_required_db"] = Json(f.snr_required.db());
  o["fault.margin_db"] = Json(f.margin.db());
  o["fault.ack_timeout"] = Json(f.ack_timeout);
  o["fault.max_backoff_exp"] = Json(f.max_backoff_exp);
  o["fault.max_attempts"] = Json(f.max_attempts);
  o["fault.detect_timeouts"] = Json(f.detect_timeouts);
  o["fault.random_flaps"] = Json(f.random_flaps);
  o["fault.flap_down_cycles"] = Json(f.flap_down_cycles);
  o["fault.horizon"] = Json(f.horizon);
  o["fault.watchdog"] = Json(f.watchdog);
  o["fault.watchdog_window"] = Json(f.watchdog_window);
  Json::Array events;
  events.reserve(f.events.size());
  for (const fault::Event& event : f.events) {
    events.push_back(event_to_json(event));
  }
  o["fault.events"] = Json(std::move(events));

  return Json(std::move(o)).dump();
}

ExperimentConfig experiment_config_from_canonical_json(std::string_view json) {
  const Json parsed = Json::parse(json);
  ExperimentConfig c;
  for (const auto& [key, v] : parsed.as_object()) {
    if (key == "topology") {
      c.topology = parse_topology(v.as_string());
    } else if (key == "pattern") {
      c.pattern = parse_pattern(v.as_string());
    } else if (key == "rate") {
      c.rate = v.as_double();
    } else if (key == "own_config") {
      c.own_config = static_cast<OwnConfig>(v.as_int());
    } else if (key == "scenario") {
      c.scenario = parse_scenario(v.as_string());
    } else if (key == "options.num_cores") {
      c.options.num_cores = static_cast<int>(v.as_int());
    } else if (key == "options.concentration") {
      c.options.concentration = static_cast<int>(v.as_int());
    } else if (key == "options.num_vcs") {
      c.options.num_vcs = static_cast<int>(v.as_int());
    } else if (key == "options.buffer_depth") {
      c.options.buffer_depth = static_cast<int>(v.as_int());
    } else if (key == "options.max_packet_flits") {
      c.options.max_packet_flits = static_cast<int>(v.as_int());
    } else if (key == "options.clock_ghz") {
      c.options.clock_ghz = v.as_double();
    } else if (key == "options.flit_bits") {
      c.options.flit_bits = static_cast<int>(v.as_int());
    } else if (key == "options.electrical_cpf") {
      c.options.electrical_cpf = static_cast<int>(v.as_int());
    } else if (key == "options.photonic_cpf") {
      c.options.photonic_cpf = static_cast<int>(v.as_int());
    } else if (key == "options.wireless_cpf") {
      c.options.wireless_cpf = static_cast<int>(v.as_int());
    } else if (key == "options.ideal_arbitration") {
      c.options.ideal_arbitration = v.as_bool();
    } else if (key == "options.cmesh_o1turn") {
      c.options.cmesh_o1turn = v.as_bool();
    } else if (key == "phases.warmup") {
      c.phases.warmup = v.as_int();
    } else if (key == "phases.measure") {
      c.phases.measure = v.as_int();
    } else if (key == "phases.drain_limit") {
      c.phases.drain_limit = v.as_int();
    } else if (key == "injector.packet_flits") {
      c.injector.packet_flits = static_cast<int>(v.as_int());
    } else if (key == "injector.flit_bits") {
      c.injector.flit_bits = static_cast<std::uint32_t>(v.as_int());
    } else if (key == "injector.master_seed") {
      c.injector.master_seed = static_cast<std::uint64_t>(v.as_int());
    } else if (key == "power.buffer_write_pj_per_bit") {
      c.power.buffer_write_pj_per_bit = v.as_double();
    } else if (key == "power.buffer_read_pj_per_bit") {
      c.power.buffer_read_pj_per_bit = v.as_double();
    } else if (key == "power.xbar_base_pj_per_bit") {
      c.power.xbar_base_pj_per_bit = v.as_double();
    } else if (key == "power.xbar_radix_slope_pj_per_bit") {
      c.power.xbar_radix_slope_pj_per_bit = v.as_double();
    } else if (key == "power.alloc_pj_per_op") {
      c.power.alloc_pj_per_op = v.as_double();
    } else if (key == "power.leak_mw_per_input_port") {
      c.power.leak_mw_per_input_port = v.as_double();
    } else if (key == "power.leak_mw_per_output_port") {
      c.power.leak_mw_per_output_port = v.as_double();
    } else if (key == "power.leak_uw_per_crosspoint") {
      c.power.leak_uw_per_crosspoint = v.as_double();
    } else if (key == "power.wire_pj_per_bit_mm") {
      c.power.wire_pj_per_bit_mm = v.as_double();
    } else if (key == "power.photonic_dynamic_pj_per_bit") {
      c.power.photonic_dynamic_pj_per_bit = v.as_double();
    } else if (key == "power.lambda_rate_gbps") {
      c.power.lambda_rate_gbps = v.as_double();
    } else if (key == "power.ring_tuning_uw") {
      c.power.ring_tuning_uw = v.as_double();
    } else if (key == "power.legacy_wireless_pj_per_bit") {
      c.power.legacy_wireless_pj_per_bit = v.as_double();
    } else if (key == "power.wireless_static_mw_per_channel") {
      c.power.wireless_static_mw_per_channel = v.as_double();
    } else if (key == "adapt.enabled") {
      c.adapt.enabled = v.as_bool();
    } else if (key == "adapt.react") {
      c.adapt.react = v.as_bool();
    } else if (key == "adapt.refresh") {
      c.adapt.refresh = v.as_int();
    } else if (key == "adapt.variation_seed") {
      c.adapt.variation_seed = static_cast<std::uint64_t>(v.as_int());
    } else if (key == "adapt.variation_sigma_db") {
      c.adapt.variation_sigma_db = v.as_double();
    } else if (key == "adapt.ring_sigma_c") {
      c.adapt.ring_sigma_c = v.as_double();
    } else if (key == "adapt.snr_required_db") {
      c.adapt.snr_required = Decibels{v.as_double()};
    } else if (key == "adapt.base_margin_db") {
      c.adapt.base_margin = Decibels{v.as_double()};
    } else if (key == "adapt.temp_coeff_db_per_c") {
      c.adapt.temp_coeff_db_per_c = v.as_double();
    } else if (key == "adapt.thermal_alpha") {
      c.adapt.thermal_alpha = v.as_double();
    } else if (key == "adapt.thermal_iterations") {
      c.adapt.thermal_iterations = static_cast<int>(v.as_int());
    } else if (key == "adapt.backoff_enter_db") {
      c.adapt.backoff_enter_db = v.as_double();
    } else if (key == "adapt.backoff_exit_db") {
      c.adapt.backoff_exit_db = v.as_double();
    } else if (key == "adapt.backoff_gain_db") {
      c.adapt.backoff_gain_db = v.as_double();
    } else if (key == "adapt.max_backoff") {
      c.adapt.max_backoff = static_cast<int>(v.as_int());
    } else if (key == "adapt.sustain") {
      c.adapt.sustain = static_cast<int>(v.as_int());
    } else if (key == "adapt.realloc_enter_db") {
      c.adapt.realloc_enter_db = v.as_double();
    } else if (key == "adapt.realloc_exit_db") {
      c.adapt.realloc_exit_db = v.as_double();
    } else if (key == "adapt.trim_uw_per_c") {
      c.adapt.trim_uw_per_c = v.as_double();
    } else if (key == "fault.enabled") {
      c.fault.enabled = v.as_bool();
    } else if (key == "fault.seed") {
      c.fault.seed = static_cast<std::uint64_t>(v.as_int());
    } else if (key == "fault.ber") {
      c.fault.ber = v.as_double();
    } else if (key == "fault.snr_required_db") {
      c.fault.snr_required = Decibels{v.as_double()};
    } else if (key == "fault.margin_db") {
      c.fault.margin = Decibels{v.as_double()};
    } else if (key == "fault.ack_timeout") {
      c.fault.ack_timeout = static_cast<int>(v.as_int());
    } else if (key == "fault.max_backoff_exp") {
      c.fault.max_backoff_exp = static_cast<int>(v.as_int());
    } else if (key == "fault.max_attempts") {
      c.fault.max_attempts = static_cast<int>(v.as_int());
    } else if (key == "fault.detect_timeouts") {
      c.fault.detect_timeouts = static_cast<int>(v.as_int());
    } else if (key == "fault.random_flaps") {
      c.fault.random_flaps = static_cast<int>(v.as_int());
    } else if (key == "fault.flap_down_cycles") {
      c.fault.flap_down_cycles = v.as_int();
    } else if (key == "fault.horizon") {
      c.fault.horizon = v.as_int();
    } else if (key == "fault.watchdog") {
      c.fault.watchdog = v.as_bool();
    } else if (key == "fault.watchdog_window") {
      c.fault.watchdog_window = v.as_int();
    } else if (key == "fault.events") {
      for (const Json& event : v.as_array()) {
        c.fault.events.push_back(event_from_json(event));
      }
    } else if (key == "topofile.sha256") {
      // The file body itself is not in the canonical JSON; carry its hash so
      // re-keying the reconstructed config reproduces the original key.
      c.topofile_sha256 = v.as_string();
    } else if (key == "topofile.generator") {
      if (v.as_string() != topofile::kTopofileGeneratorVersion) {
        throw std::invalid_argument(
            "canonical config: topology file was keyed by generator '" +
            v.as_string() + "', this build is '" +
            topofile::kTopofileGeneratorVersion + "'");
      }
    } else {
      throw std::invalid_argument("canonical config: unknown key: " + key);
    }
  }
  return c;
}

std::string code_version() {
  std::string version = kCodeVersionTag;
#if OWNSIM_OBS_ENABLED
  version += "+obs";
#else
  version += "+noobs";
#endif
  return version;
}

std::string experiment_cache_key(const ExperimentConfig& config,
                                 std::string_view version) {
  Sha256 hasher;
  hasher.update(canonical_config_json(config));
  hasher.update("\n");
  hasher.update(version.empty() ? code_version() : std::string(version));
  return hasher.hex_digest();
}

}  // namespace ownsim
