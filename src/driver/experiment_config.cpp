#include "driver/experiment_config.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/sha256.hpp"
#include "metrics/report.hpp"
#include "network/spec.hpp"
#include "serve/json.hpp"
#include "topofile/topofile.hpp"

namespace ownsim {
namespace {

using serve::Json;

/// key=value names parsed by hand in parse_experiment_config: each sets
/// members the field table cannot express one-to-one.
constexpr const char* kHandParsedKeys[] = {"topology", "fault_kill",
                                           "fault_token_loss", "watchdog"};

// ---- codecs: one per member type, shared by every field of that type -------

const char* to_string(fault::EventKind kind) {
  switch (kind) {
    case fault::EventKind::kFlap: return "flap";
    case fault::EventKind::kKill: return "kill";
    case fault::EventKind::kTokenLoss: return "token_loss";
  }
  throw std::logic_error("bad EventKind");
}

/// Inverse of `to_string` over the enumerators in `values`; the error names
/// the key=value `key` that carried `name`.
template <typename E>
E enum_from_name(const std::string& key, const std::string& name,
                 std::initializer_list<E> values) {
  std::string want;
  for (const E value : values) {
    if (name == to_string(value)) return value;
    if (!want.empty()) want += '|';
    want += to_string(value);
  }
  throw std::invalid_argument(key + ": bad value '" + name + "' (want " +
                              want + ")");
}

void from_name(const std::string&, const std::string& name, PatternKind& kind) {
  kind = parse_pattern(name);
}
void from_name(const std::string& key, const std::string& name,
               Scenario& scenario) {
  scenario =
      enum_from_name(key, name, {Scenario::kIdeal, Scenario::kConservative});
}
void from_name(const std::string& key, const std::string& name,
               KernelMode& mode) {
  mode = enum_from_name(key, name,
                        {KernelMode::kActivity, KernelMode::kLockstep});
}

OwnConfig own_config_from_row(std::int64_t row) {
  if (row < 1 || row > 4) {
    throw std::invalid_argument("config: want a Table IV row 1..4");
  }
  return static_cast<OwnConfig>(row);
}

Json to_json(const std::vector<fault::Event>& events);

template <typename T>
Json to_json(const T& value) {
  if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>) {
    return Json(value);
  } else if constexpr (std::is_integral_v<T>) {
    // Unsigned seeds keep the two's-complement int64 form of earlier keys.
    return Json(static_cast<std::int64_t>(value));
  } else if constexpr (std::is_same_v<T, Decibels>) {
    return Json(value.db());
  } else if constexpr (std::is_same_v<T, OwnConfig>) {
    return Json(static_cast<int>(value));
  } else {
    return Json(to_string(value));
  }
}

template <typename T>
void read_kv(const Config& args, const std::string& key, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = args.get_bool(key, value);
  } else if constexpr (std::is_floating_point_v<T>) {
    value = args.require_double(key);
  } else if constexpr (std::is_integral_v<T>) {
    value = static_cast<T>(args.require_int(key));
  } else if constexpr (std::is_same_v<T, Decibels>) {
    value = Decibels{args.require_double(key)};
  } else if constexpr (std::is_same_v<T, OwnConfig>) {
    value = own_config_from_row(args.require_int(key));
  } else {
    from_name(key, args.require_string(key), value);
  }
}

// ---- the field tables ------------------------------------------------------
//
// Each line declares one field: its canonical JSON key, its key=value name,
// and the member it reads and writes. `nullptr` means "none" on that side:
// no key=value name for programmatic-only fields, no JSON key for the
// result-neutral kernel knob (DESIGN.md §5e). Being its own type
// (std::nullptr_t), it keeps that side's codec from being instantiated.

template <typename E, typename Field>
  requires std::same_as<std::remove_const_t<E>, fault::Event>
void visit_fields(E& e, Field&& field) {
  field("at", nullptr, e.at);
  field("down_cycles", nullptr, e.down_cycles);
  field("dst_cluster", nullptr, e.dst_cluster);
  field("kind", nullptr, e.kind);
  field("link", nullptr, e.link);
  field("medium", nullptr, e.medium);
  field("recovery", nullptr, e.recovery);
  field("src_cluster", nullptr, e.src_cluster);
}

template <typename C, typename Field>
  requires std::same_as<std::remove_const_t<C>, ExperimentConfig>
void visit_fields(C& c, Field&& field) {
  field("topology", nullptr, c.topology);  // key=value: hand-parsed (file:)
  field("pattern", "pattern", c.pattern);
  field("rate", "rate", c.rate);
  field("own_config", "config", c.own_config);
  field("scenario", "scenario", c.scenario);

  field("options.num_cores", "cores", c.options.num_cores);
  field("options.concentration", "concentration", c.options.concentration);
  field("options.num_vcs", "vcs", c.options.num_vcs);
  field("options.buffer_depth", "buffer_depth", c.options.buffer_depth);
  field("options.max_packet_flits", nullptr, c.options.max_packet_flits);
  field("options.clock_ghz", "clock_ghz", c.options.clock_ghz);
  field("options.flit_bits", "flit_bits", c.options.flit_bits);
  field("options.electrical_cpf", nullptr, c.options.electrical_cpf);
  field("options.photonic_cpf", nullptr, c.options.photonic_cpf);
  field("options.wireless_cpf", nullptr, c.options.wireless_cpf);
  field("options.ideal_arbitration", "ideal_arbitration",
        c.options.ideal_arbitration);
  field("options.cmesh_o1turn", "o1turn", c.options.cmesh_o1turn);

  field("phases.warmup", "warmup", c.phases.warmup);
  field("phases.measure", "measure", c.phases.measure);
  field("phases.drain_limit", "drain", c.phases.drain_limit);

  field("injector.packet_flits", "packet_flits", c.injector.packet_flits);
  field("injector.flit_bits", nullptr, c.injector.flit_bits);
  field("injector.master_seed", "seed", c.injector.master_seed);

  field(nullptr, "kernel", c.kernel);

  auto& p = c.power;
  field("power.buffer_write_pj_per_bit", nullptr, p.buffer_write_pj_per_bit);
  field("power.buffer_read_pj_per_bit", nullptr, p.buffer_read_pj_per_bit);
  field("power.xbar_base_pj_per_bit", nullptr, p.xbar_base_pj_per_bit);
  field("power.xbar_radix_slope_pj_per_bit", nullptr,
        p.xbar_radix_slope_pj_per_bit);
  field("power.alloc_pj_per_op", nullptr, p.alloc_pj_per_op);
  field("power.leak_mw_per_input_port", nullptr, p.leak_mw_per_input_port);
  field("power.leak_mw_per_output_port", nullptr, p.leak_mw_per_output_port);
  field("power.leak_uw_per_crosspoint", nullptr, p.leak_uw_per_crosspoint);
  field("power.wire_pj_per_bit_mm", nullptr, p.wire_pj_per_bit_mm);
  field("power.photonic_dynamic_pj_per_bit", nullptr,
        p.photonic_dynamic_pj_per_bit);
  field("power.lambda_rate_gbps", nullptr, p.lambda_rate_gbps);
  field("power.ring_tuning_uw", nullptr, p.ring_tuning_uw);
  field("power.legacy_wireless_pj_per_bit", nullptr,
        p.legacy_wireless_pj_per_bit);
  field("power.wireless_static_mw_per_channel", nullptr,
        p.wireless_static_mw_per_channel);

  auto& a = c.adapt;
  field("adapt.enabled", "adapt", a.enabled);
  field("adapt.react", "adapt_react", a.react);
  field("adapt.refresh", "adapt_refresh", a.refresh);
  field("adapt.variation_seed", "adapt_seed", a.variation_seed);
  field("adapt.variation_sigma_db", "adapt_sigma_db", a.variation_sigma_db);
  field("adapt.ring_sigma_c", "adapt_ring_sigma_c", a.ring_sigma_c);
  field("adapt.snr_required_db", "adapt_snr_required_db", a.snr_required);
  field("adapt.base_margin_db", "adapt_margin_db", a.base_margin);
  field("adapt.temp_coeff_db_per_c", "adapt_temp_coeff",
        a.temp_coeff_db_per_c);
  field("adapt.thermal_alpha", "adapt_alpha", a.thermal_alpha);
  field("adapt.thermal_iterations", "adapt_iterations", a.thermal_iterations);
  field("adapt.backoff_enter_db", "adapt_backoff_enter", a.backoff_enter_db);
  field("adapt.backoff_exit_db", "adapt_backoff_exit", a.backoff_exit_db);
  field("adapt.backoff_gain_db", "adapt_backoff_gain", a.backoff_gain_db);
  field("adapt.max_backoff", "adapt_max_backoff", a.max_backoff);
  field("adapt.sustain", "adapt_sustain", a.sustain);
  field("adapt.realloc_enter_db", "adapt_realloc_enter", a.realloc_enter_db);
  field("adapt.realloc_exit_db", "adapt_realloc_exit", a.realloc_exit_db);
  field("adapt.trim_uw_per_c", "adapt_trim_uw", a.trim_uw_per_c);

  auto& f = c.fault;
  field("fault.enabled", "fault", f.enabled);
  field("fault.seed", "fault_seed", f.seed);  // default: seed
  field("fault.ber", "fault_ber", f.ber);
  field("fault.snr_required_db", nullptr, f.snr_required);
  field("fault.margin_db", "fault_margin_db", f.margin);
  field("fault.ack_timeout", nullptr, f.ack_timeout);
  field("fault.max_backoff_exp", nullptr, f.max_backoff_exp);
  field("fault.max_attempts", nullptr, f.max_attempts);
  field("fault.detect_timeouts", nullptr, f.detect_timeouts);
  field("fault.random_flaps", "fault_flaps", f.random_flaps);
  field("fault.flap_down_cycles", "fault_flap_down", f.flap_down_cycles);
  field("fault.horizon", "fault_horizon", f.horizon);
  field("fault.watchdog", nullptr, f.watchdog);
  field("fault.watchdog_window", nullptr, f.watchdog_window);
  field("fault.events", nullptr, f.events);
}

template <typename Name>
constexpr bool kNamed = !std::is_null_pointer_v<Name>;

template <typename T>
Json fields_to_json(const T& object) {
  Json::Object o;
  visit_fields(object, [&o](auto key, auto, const auto& member) {
    if constexpr (kNamed<decltype(key)>) o[key] = to_json(member);
  });
  return Json(std::move(o));
}

Json to_json(const std::vector<fault::Event>& events) {
  Json::Array array;
  array.reserve(events.size());
  for (const fault::Event& event : events) {
    array.push_back(fields_to_json(event));
  }
  return Json(std::move(array));
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

}  // namespace

const std::vector<std::string>& experiment_config_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> names(std::begin(kHandParsedKeys),
                                   std::end(kHandParsedKeys));
    ExperimentConfig probe;
    visit_fields(probe, [&names](auto, auto name, auto&) {
      if constexpr (kNamed<decltype(name)>) names.emplace_back(name);
    });
    std::sort(names.begin(), names.end());
    return names;
  }();
  return keys;
}

ExperimentConfig parse_experiment_config(
    const Config& args, const std::vector<std::string>& caller_keys) {
  const std::vector<std::string>& known = experiment_config_keys();
  for (const std::string& key : args.keys()) {
    if (!std::binary_search(known.begin(), known.end(), key) &&
        std::find(caller_keys.begin(), caller_keys.end(), key) ==
            caller_keys.end()) {
      throw std::invalid_argument("unknown config key: " + key);
    }
  }

  ExperimentConfig config;
  // Shorter phases than RunPhases{}: the key=value vocabulary's defaults.
  config.phases = RunPhases{1500, 4000, 30000};
  const std::string topology = args.get_string("topology", "own");
  if (topology.rfind("file:", 0) == 0) {
    // topology=file:PATH — load the file body NOW so the canonical JSON,
    // the deadlock check and the simulated network all come from the same
    // bytes.
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

  visit_fields(config, [&args](auto, auto name, auto& member) {
    if constexpr (kNamed<decltype(name)>) {
      if (args.contains(name)) read_kv(args, name, member);
    }
  });

  if (!args.contains("fault_seed")) {
    config.fault.seed = config.injector.master_seed;
  }
  if (args.contains("flit_bits")) {
    config.injector.flit_bits =
        static_cast<std::uint32_t>(config.options.flit_bits);
  }
  if (config.phases.measure <= 0) {
    throw std::invalid_argument("measure: want > 0");
  }
  if (config.phases.warmup < 0) {
    throw std::invalid_argument("warmup: want >= 0");
  }
  if (config.phases.drain_limit < 0) {
    throw std::invalid_argument("drain: want >= 0");
  }
  if (!std::isfinite(config.options.clock_ghz) ||
      config.options.clock_ghz <= 0.0) {
    throw std::invalid_argument("clock_ghz: want a finite value > 0");
  }
  if (!std::isfinite(config.rate) || config.rate < 0.0) {
    throw std::invalid_argument("rate: want a finite value >= 0");
  }
  if (config.options.flit_bits <= 0) {
    throw std::invalid_argument("flit_bits: want > 0");
  }
  if (config.options.num_vcs < 1 ||
      config.options.num_vcs > Router::kMaxVcs) {
    throw std::invalid_argument("vcs: want 1.." +
                                std::to_string(Router::kMaxVcs));
  }
  if (config.options.buffer_depth < 1 ||
      config.options.buffer_depth > NetworkSpec::kMaxBufferDepth) {
    throw std::invalid_argument("buffer_depth: want 1.." +
                                std::to_string(NetworkSpec::kMaxBufferDepth));
  }
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
  if (config.fault.watchdog) config.fault.watchdog_window = watchdog_window;
  return config;
}

std::string canonical_config_json(const ExperimentConfig& config) {
  Json json = fields_to_json(config);
  if (config.topology == TopologyKind::kFile) {
    // Cover the file *content*, not its path (the same file moved is the
    // same experiment, the same path edited is not), and the generator
    // version (regenerated routes change results for unchanged bytes).
    if (config.options.topofile_text.empty()) {
      throw std::logic_error(
          "canonical config: file topology without loaded text");
    }
    json["topofile.sha256"] = Json(sha256_hex(config.options.topofile_text));
    json["topofile.generator"] = Json(topofile::kTopofileGeneratorVersion);
  }
  return json.dump();
}

serve::Json experiment_report_json(const ExperimentConfig& config,
                                   const ExperimentResult& result,
                                   const NetworkReport& network) {
  Json::Object o;
  o["config"] = Json::parse(canonical_config_json(config));
  o["network"] = network.to_json();
  o["result"] = Json::parse(experiment_result_json(result));
  return Json(std::move(o));
}

}  // namespace ownsim
