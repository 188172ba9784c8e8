// ownsim_bench: the benchmark harness (benchmark/README.md).
//
// One process runs one workload. It makes the workload's inputs from
// --seed, times the workload's set-up (config to network ready) several
// times, runs one discarded warm-up op, then timed ops for up to --seconds
// (at least three), and prints one JSON document on stdout: the per-op host
// samples, the simulated results, the op digest and every failure.
// benchmark/bench.py turns that document into the printed metrics.
//
// With --trace the process then runs the op once more with spans recorded
// around every layer call, plus the reruns the per-layer metrics need
// (kernel parity, kernel and overlay A/B), and adds the per-layer readings
// and the spans to the document. End-to-end samples never come from that
// pass.
//
// Every layer is measured from outside, by timing calls into the library's
// public functions. Kernels are chosen only through the `kernel=` config
// string, so a kernel that a later change deletes reads 0 (n/a) here
// instead of breaking the build.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/numfmt.hpp"
#include "common/sha256.hpp"
#include "common/thread_annotations.hpp"
#include "driver/experiment_config.hpp"
#include "driver/simulate.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/report.hpp"
#include "obs/trace.hpp"
#include "power/energy_model.hpp"
#include "serve/json.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace ownsim;
using serve::Json;
using Clock = std::chrono::steady_clock;
using Counters = std::vector<std::pair<std::string, std::int64_t>>;
using Layers = std::map<std::string, double>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ExperimentConfig parse(const std::string& text) {
  return parse_experiment_config(Config::from_string(text));
}

// ---- CPU placement -------------------------------------------------------
//
// On a shared machine the same single-threaded work runs tens of percent
// slower on some CPUs than on others, depending on what else shares the
// physical core, so the CPU a run happens to land on would decide its
// numbers. Single-threaded work is therefore pinned to the CPU on which the
// workload's own set-up runs fastest; multi-threaded work gets every CPU.

/// Every CPU the process may use. The first call, at start-up, fixes it.
const cpu_set_t& all_cpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    return set;
  }();
  return cpus;
}

/// nproc: the CPUs the process may use.
unsigned nproc() { return static_cast<unsigned>(CPU_COUNT(&all_cpus())); }

/// min(4, nproc): the thread count of the sweep and of the parallel kernel.
unsigned bench_threads() { return std::min(4u, nproc()); }

/// Restricts the calling thread (and the threads it starts) to `cpus`, and
/// restores its previous set when destroyed.
class CpuScope {
 public:
  explicit CpuScope(const cpu_set_t& cpus) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0 ||
        sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
  }
  ~CpuScope() { sched_setaffinity(0, sizeof saved_, &saved_); }
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

 private:
  cpu_set_t saved_;
};

cpu_set_t one_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return set;
}

/// The CPU on which `probe` (returning seconds) has the lowest median of
/// three runs.
int fastest_cpu(const std::function<double()>& probe) {
  int best = -1;
  double best_s = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all_cpus())) continue;
    const CpuScope pin(one_cpu(cpu));
    const double s = median({probe(), probe(), probe()});
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  return best;
}

// ---- spans -------------------------------------------------------------

/// Spans of the traced pass, kept in memory until the document is written.
/// Sweep worker threads record spans too; each thread gets its own track.
class Spans {
 public:
  int open(std::string name, int parent) {
    const double now = micros();
    MutexLock lock(mu_);
    spans_.push_back({std::move(name), parent, track(), now, now});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    const double now = micros();
    MutexLock lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end_us = now;
  }

  Json to_json() const {
    MutexLock lock(mu_);
    Json::Array out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json::Object o;
      o["id"] = Json(static_cast<std::int64_t>(i));
      o["name"] = Json(s.name);
      o["parent"] = Json(s.parent);
      o["tid"] = Json(s.tid);
      o["ts_us"] = Json(s.start_us);
      o["dur_us"] = Json(s.end_us - s.start_us);
      out.push_back(Json(std::move(o)));
    }
    return Json(std::move(out));
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int tid;
    double start_us;
    double end_us;
  };

  double micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  int track() OWNSIM_REQUIRES(mu_) {
    const auto [it, inserted] = tracks_.try_emplace(
        std::this_thread::get_id(), static_cast<int>(tracks_.size()));
    return it->second;
  }

  const Clock::time_point origin_ = Clock::now();
  mutable Mutex mu_;
  std::vector<Span> spans_ OWNSIM_GUARDED_BY(mu_);
  std::map<std::thread::id, int> tracks_ OWNSIM_GUARDED_BY(mu_);
};

/// One span over a scope; records nothing when `spans` is null (the
/// untraced ops).
class Scope {
 public:
  Scope(Spans* spans, std::string name, int parent)
      : spans_(spans),
        id_(spans != nullptr ? spans->open(std::move(name), parent) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void close() {
    if (id_ >= 0 && !closed_) spans_->close(id_);
    closed_ = true;
  }
  int id() const { return id_; }

 private:
  Spans* spans_;
  int id_;
  bool closed_ = false;
};

// ---- per-op results and layer readings ---------------------------------

/// Wall seconds of one set-up (config to network(s) ready), by layer.
struct SetupTimes {
  double topology_build_s = 0.0;
  double topofile_load_s = 0.0;
  double network_construct_s = 0.0;

  double total_s() const {
    return topology_build_s + topofile_load_s + network_construct_s;
  }
};

/// Builds `config`'s network as run_experiment and the sweep's factory do,
/// timing the spec build (for a file topology, the file parse and deadlock
/// check) and the Network constructor.
std::unique_ptr<Network> build_network(const ExperimentConfig& config,
                                       Spans* spans, int parent,
                                       SetupTimes& times) {
  const bool file = config.topology == TopologyKind::kFile;
  NetworkSpec spec;
  {
    Scope s(spans, file ? "topofile.load" : "topology.build", parent);
    const auto t0 = Clock::now();
    spec = build_experiment_spec(config);
    (file ? times.topofile_load_s : times.topology_build_s) +=
        seconds_since(t0);
  }
  Scope s(spans, "network.construct", parent);
  const auto t0 = Clock::now();
  auto network = std::make_unique<Network>(std::move(spec));
  times.network_construct_s += seconds_since(t0);
  return network;
}

/// One set-up: builds `configs`' networks one after another. Each network
/// is torn down untimed before the next is built.
SetupTimes setup_networks(const std::vector<ExperimentConfig>& configs,
                          Spans* spans) {
  SetupTimes t;
  Scope root(spans, "setup", -1);
  for (const ExperimentConfig& config : configs) {
    build_network(config, spans, root.id(), t);
  }
  return t;
}

/// What one op produced.
struct OpResult {
  double wall_s = 0.0;         ///< config to result digest, set-up included
  double sim_s = 0.0;          ///< wall spent advancing the engine(s)
  double cycles = 0.0;         ///< simulated cycles
  double router_cycles = 0.0;  ///< simulated cycles x routers simulated
  std::string digest;          ///< SHA-256 of the deterministic result
  double accepted = 0.0;       ///< simulated end-to-end results
  double avg_latency = 0.0;
  double p99_latency = 0.0;
  Layers layers;                    ///< per-layer readings of this op
  std::vector<std::string> errors;  ///< invariants the op broke

  double cycles_per_s() const { return ratio(cycles, sim_s); }
};

/// Ops attempted and failed, counted in load points.
struct Tally {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
};

/// Runs one op and counts its load points. An exception, a broken
/// invariant or a digest other than `expect` (when given) fails them all.
std::optional<OpResult> attempt(Tally& tally, int points,
                                const std::string& what,
                                const std::function<OpResult()>& op,
                                const std::string& expect = "") {
  tally.attempted += points;
  try {
    OpResult result = op();
    if (!expect.empty() && result.digest != expect) {
      result.errors.push_back("digest " + result.digest +
                              " differs from the first op's " + expect);
    }
    if (!result.errors.empty()) {
      tally.failed += points;
      for (const std::string& e : result.errors) {
        tally.errors.push_back(what + ": " + e);
      }
    }
    return result;
  } catch (const std::exception& e) {
    tally.failed += points;
    tally.errors.push_back(what + ": " + e.what());
    return std::nullopt;
  }
}

double counter(const Counters& counters, std::string_view name) {
  for (const auto& [n, v] : counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

/// Sum of the counters named prefix*suffix (e.g. every router's
/// flits_forwarded).
double counter_sum(const Counters& counters, std::string_view prefix,
                   std::string_view suffix) {
  double total = 0.0;
  for (const auto& [name, value] : counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

Counters snapshot(const Network& network) {
  Counters counters;
  network.obs().for_each([&counters](const std::string& name,
                                     std::int64_t value) {
    counters.emplace_back(name, value);
  });
  return counters;
}

/// Router, shared-medium, link, fault and adapt readings from the obs
/// counters of one simulated network.
void network_layers(const Counters& c, double sim_s, Layers& layers) {
  const double hops = counter_sum(c, "router.", ".flits_forwarded");
  const double sa_retries = counter_sum(c, "router.", ".sa_retries");
  const double medium_flits = counter_sum(c, "medium.", ".flits");
  const double token_wait = counter_sum(c, "medium.", ".token_wait_cycles");
  const double link_flits = counter_sum(c, "link.", ".flits");
  const double retransmissions = counter(c, "fault.retransmissions");
  layers["network.flit_hops"] = hops;
  layers["network.flit_hops_per_s"] = ratio(hops, sim_s);
  layers["network.ns_per_flit_hop"] = ratio(sim_s * 1e9, hops);
  layers["network.sa_retries"] = sa_retries;
  layers["network.sa_success_ratio"] = ratio(hops, hops + sa_retries);
  layers["network.medium_flits"] = medium_flits;
  layers["network.medium_token_wait_cycles"] = token_wait;
  layers["network.medium_arb_retries"] =
      counter_sum(c, "medium.", ".arb_retries");
  layers["network.token_wait_per_medium_flit"] =
      ratio(token_wait, medium_flits);
  layers["network.link_flits"] = link_flits;
  layers["fault.crc_errors"] = counter(c, "fault.crc_errors");
  layers["fault.retransmissions"] = retransmissions;
  layers["fault.retransmit_ratio"] =
      ratio(retransmissions, link_flits + medium_flits);
  layers["fault.flows_degraded"] = counter(c, "fault.flows_degraded");
  layers["fault.token_recoveries"] = counter(c, "fault.token_recoveries");
  layers["adapt.refreshes"] = counter(c, "adapt.refreshes");
  layers["adapt.backoffs"] = counter(c, "adapt.backoffs");
  layers["adapt.reallocations"] = counter(c, "adapt.reallocations");
}

/// Scheduler readings of one engine (Engine::stats after the op).
void engine_layers(const Engine::Stats& stats, std::size_t components,
                   double sim_s, Layers& layers) {
  const auto evals = static_cast<double>(stats.evals);
  const auto skipped = static_cast<double>(stats.cycles_skipped);
  const double cycles = static_cast<double>(stats.cycles_stepped) + skipped;
  layers["sim.evals"] = evals;
  layers["sim.evals_per_cycle"] = ratio(evals, cycles);
  layers["sim.active_frac"] =
      ratio(evals, cycles * static_cast<double>(components));
  layers["sim.wakes_per_cycle"] =
      ratio(static_cast<double>(stats.wakes), cycles);
  layers["sim.cycles_skipped_frac"] = ratio(skipped, cycles);
  layers["sim.ns_per_eval"] = ratio(sim_s * 1e9, evals);
}

/// Warmup/measure/drain wall seconds of run_load_point's self-profile,
/// summed over the op's load points.
void runner_layers(const RunProfile& profile, Layers& layers) {
  layers["runner.warmup_s"] += profile.warmup_seconds;
  layers["runner.measure_s"] += profile.measure_seconds;
  layers["runner.drain_s"] += profile.drain_seconds;
  layers["runner.drain_share"] =
      ratio(layers["runner.drain_s"], layers["runner.warmup_s"] +
                                          layers["runner.measure_s"] +
                                          layers["runner.drain_s"]);
}

/// p99 exactly as run_load_point takes it.
double p99_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(0.99 * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

// ---- workloads -----------------------------------------------------------

/// Readings the traced pass compares against: the untraced ops' medians.
struct Reference {
  double wall_s = 0.0;
  double cycles_per_s = 0.0;
  std::string digest;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The networks one op builds, in order: what one set-up builds. One
  /// network is one load point.
  virtual const std::vector<ExperimentConfig>& networks() const = 0;
  int points() const { return static_cast<int>(networks().size()); }
  /// Worker threads the op simulates on.
  virtual unsigned threads() const { return 1; }
  /// One op. With `spans`, records a span around every layer call.
  virtual OpResult run(Spans* spans) = 0;
  /// Traced-pass reruns (kernel parity, A/B ratios).
  virtual void compare(Spans* /*spans*/, const Reference& /*ref*/,
                       Layers& /*layers*/, Tally& /*tally*/) {}
};

/// One load point through run_experiment: own1024-sat and
/// own256-faults-adapt.
class PointWorkload final : public Workload {
 public:
  PointWorkload(std::string config, bool expect_drained, bool kernel_ab,
                bool overlay_ab)
      : config_(std::move(config)),
        networks_{parse(config_)},
        expect_drained_(expect_drained),
        kernel_ab_(kernel_ab),
        overlay_ab_(overlay_ab) {}

  const std::vector<ExperimentConfig>& networks() const override {
    return networks_;
  }

  OpResult run(Spans* spans) override { return run_with("", spans); }

  /// The op with `extra` key=value settings appended to the config.
  OpResult run_with(const std::string& extra, Spans* spans) {
    OpResult op;
    const auto start = Clock::now();
    Scope root(spans, "op", -1);
    // Back-to-back spans following run_experiment through its phases; each
    // emplace closes the previous one.
    std::optional<Scope> phase;
    phase.emplace(spans, "driver.setup", root.id());
    const ExperimentConfig config = parse(config_ + extra);

    // What the op needs from the network before run_experiment drops it.
    Engine::Stats stats;
    std::size_t components = 0;
    int routers = 0;
    double flits_ejected = 0.0;
    double power_s = 0.0;
    RunHooks hooks;
    hooks.after_run = [&](Network& network, const ExperimentResult&) {
      stats = network.engine().stats();
      components = network.engine().num_components();
      routers = network.spec().num_routers();
      flits_ejected = static_cast<double>(network.nic().flits_ejected());
      if (spans == nullptr) return;
      phase.reset();
      // run_experiment has already computed the power figures; this is a
      // second, isolated EnergyModel::compute so its cost can be read.
      Scope s(spans, "power.compute", root.id());
      const auto t0 = Clock::now();
      EnergyModel(config.power,
                  own_channel_energy(config.topology, config.options.num_cores,
                                     config.own_config, config.scenario))
          .compute(network, config.options.clock_ghz);
      power_s = seconds_since(t0);
    };
    int drain_reports = 0;
    if (spans != nullptr) {
      hooks.before_run = [&](Network&) {
        phase.emplace(spans, "runner.warmup", root.id());
      };
      hooks.progress = [&](const RunProgress& p) {
        const std::string_view name = p.phase;
        if (name == "warmup" && p.phase_cycles == config.phases.warmup) {
          phase.emplace(spans, "runner.measure", root.id());
        } else if (name == "measure" &&
                   p.phase_cycles == config.phases.measure) {
          phase.emplace(spans, "runner.drain", root.id());
        } else if (name == "drain" && ++drain_reports == 2) {
          phase.emplace(spans, "driver.finish", root.id());
        }
      };
    }
    const ExperimentResult result = run_experiment(config, hooks);
    phase.reset();
    {
      Scope s(spans, "driver.report", root.id());
      const auto t0 = Clock::now();
      op.digest = sha256_hex(experiment_result_json(result));
      op.layers["driver.report_s"] = seconds_since(t0);
    }
    root.close();
    op.wall_s = seconds_since(start);

    const RunResult& run = result.run;
    op.sim_s = run.profile.wall_seconds;
    op.cycles = static_cast<double>(run.cycles_simulated);
    op.router_cycles = op.cycles * routers;
    op.accepted = run.throughput;
    op.avg_latency = run.avg_latency;
    op.p99_latency = run.p99_latency;

    if (run.cancelled) op.errors.push_back("run cancelled");
    if (result.watchdog_tripped) op.errors.push_back("watchdog tripped");
    const double flits_offered =
        counter(result.counters, "injector.flits_offered");
    if (flits_ejected > flits_offered) {
      op.errors.push_back("ejected more flits than were offered");
    }
    if (expect_drained_ && !run.drained) {
      op.errors.push_back("measured packets did not drain");
    }

    Layers& layers = op.layers;
    network_layers(result.counters, op.sim_s, layers);
    engine_layers(stats, components, op.sim_s, layers);
    runner_layers(run.profile, layers);
    layers["traffic.packets_offered"] =
        counter(result.counters, "injector.packets_offered");
    layers["traffic.flits_offered"] = flits_offered;
    layers["power.compute_s"] = power_s;
    layers["power.energy_per_packet_pj"] = result.energy_per_packet_pj;
    return op;
  }

  void compare(Spans* spans, const Reference& ref, Layers& layers,
               Tally& tally) override {
    // The lockstep kernel must reproduce the result byte for byte.
    std::optional<OpResult> lockstep;
    {
      Scope s(spans, "ab.lockstep", -1);
      lockstep = attempt(
          tally, 1, "kernel=lockstep",
          [&] { return run_with(" kernel=lockstep", nullptr); }, ref.digest);
    }
    if (kernel_ab_) {
      if (lockstep) {
        layers["sim.activity_vs_lockstep"] =
            ratio(lockstep->wall_s, ref.wall_s);
      }
      parallel_ab(spans, ref, layers, tally);
    }
    if (overlay_ab_) {
      Scope s(spans, "ab.overlay_off", -1);
      const std::optional<OpResult> bare =
          attempt(tally, 1, "overlays off", [&] { return run_bare(); });
      if (bare) {
        layers["overlay.slowdown"] =
            ratio(bare->cycles_per_s(), ref.cycles_per_s);
      }
    }
  }

 private:
  /// The point on the very network the op runs (for OWN-256 with an
  /// overlay on, build_experiment_spec's 5-VC campaign-capable build), with
  /// neither the fault campaign nor the adapt controller attached, so the
  /// overlays are the only difference from the op. Setting fault=0 adapt=0
  /// instead would also swap in the plain 4-VC network.
  OpResult run_bare() const {
    const ExperimentConfig config = parse(config_);
    Network network(build_experiment_spec(config));
    Injector::Params params = config.injector;
    params.rate = config.rate;
    Injector injector(&network,
                      TrafficPattern(config.pattern, config.options.num_cores),
                      params);
    network.engine().add(&injector);
    const RunResult run = run_load_point(network, injector, config.phases);
    OpResult op;
    op.sim_s = run.profile.wall_seconds;
    op.cycles = static_cast<double>(run.cycles_simulated);
    if (run.cancelled || (expect_drained_ && !run.drained)) {
      op.errors.push_back("measured packets did not drain");
    }
    return op;
  }

  void parallel_ab(Spans* spans, const Reference& ref, Layers& layers,
                   Tally& tally) {
    const std::string extra =
        " kernel=parallel threads=" + std::to_string(bench_threads());
    try {
      parse(config_ + extra);
    } catch (const std::invalid_argument&) {
      return;  // this build has no parallel kernel: the rows read n/a (0)
    }
    layers["sim.parallel_threads"] = bench_threads();
    std::vector<double> walls;
    for (int i = 0; i < 3; ++i) {
      const CpuScope cpus(all_cpus());  // the kernel's workers need them
      Scope s(spans, "ab.parallel", -1);
      const std::optional<OpResult> par = attempt(
          tally, 1, "kernel=parallel",
          [&] { return run_with(extra, nullptr); }, ref.digest);
      if (par) walls.push_back(par->wall_s);
    }
    if (!walls.empty()) {
      layers["sim.parallel_vs_activity"] = ratio(ref.wall_s, median(walls));
    }
  }

  std::string config_;
  std::vector<ExperimentConfig> networks_;
  bool expect_drained_;
  bool kernel_ab_;
  bool overlay_ab_;
};

/// OWN-1024 replaying a bursty on/off trace until it has drained.
class BurstyWorkload final : public Workload {
 public:
  BurstyWorkload(std::uint64_t seed, bool quick)
      : networks_{parse("topology=own cores=1024")} {
    BurstyTraceParams params;
    params.num_nodes = 1024;
    params.duration = quick ? 30000 : 300000;
    params.on_rate = 0.002;
    params.p_on_to_off = 0.008;
    params.p_off_to_on = 0.002;
    params.locality = 0.6;
    params.seed = seed;
    trace_ = generate_bursty_trace(params);
    drain_budget_ = params.duration + 200000;
  }

  const std::vector<ExperimentConfig>& networks() const override {
    return networks_;
  }

  OpResult run(Spans* spans) override { return run_traced(spans, nullptr); }

  /// The op, with `writer` (when given) attached as the network's trace.
  OpResult run_traced(Spans* spans, obs::TraceWriter* writer) {
    OpResult op;
    const auto start = Clock::now();
    Scope root(spans, "op", -1);
    const ExperimentConfig& config = networks_.front();
    SetupTimes setup;
    const std::unique_ptr<Network> network =
        build_network(config, spans, root.id(), setup);
    Engine& engine = network->engine();
    std::optional<TraceInjector> injector;
    {
      Scope s(spans, "traffic.attach", root.id());
      injector.emplace(network.get(), trace_, config.injector.flit_bits,
                       false);
      injector->set_measure_window(0, kNeverCycle);
      engine.add(&*injector);
    }
    if (writer != nullptr) network->set_trace(writer);

    bool drained = false;
    {
      Scope s(spans, "engine.run_until", root.id());
      const auto t0 = Clock::now();
      drained = engine.run_until(
          [&] { return injector->finished() && network->drained(); },
          drain_budget_);
      op.sim_s = seconds_since(t0);
    }
    if (writer != nullptr) network->flush_trace();
    const Engine::Stats stats = engine.stats();

    double energy_pj = 0.0;
    PowerBreakdown power;
    {
      Scope s(spans, "power.compute", root.id());
      const auto t0 = Clock::now();
      const EnergyModel model(
          config.power,
          own_channel_energy(config.topology, config.options.num_cores,
                             config.own_config, config.scenario));
      power = model.compute(*network, config.options.clock_ghz);
      energy_pj = model.energy_per_packet_pj(*network, config.options.clock_ghz);
      op.layers["power.compute_s"] = seconds_since(t0);
    }

    const Nic& nic = network->nic();
    const Counters counters = snapshot(*network);
    std::vector<double> latencies;
    {
      Scope s(spans, "driver.report", root.id());
      const auto t0 = Clock::now();
      // Final cycle, every NIC latency record, the counter snapshot and
      // the energy figures: everything the replay determines.
      Sha256 hasher;
      std::string text = "cycle " + format_int(engine.now()) + "\n";
      hasher.update(text);
      latencies.reserve(nic.records().size());
      for (const PacketRecord& r : nic.records()) {
        text = format_int(r.packet) + ' ' + format_int(r.src) + ' ' +
               format_int(r.dst) + ' ' + format_int(r.created) + ' ' +
               format_int(r.injected) + ' ' + format_int(r.ejected) + ' ' +
               format_int(r.hops) + ' ' + format_int(r.size_flits) + '\n';
        hasher.update(text);
        latencies.push_back(static_cast<double>(r.total_latency()));
      }
      for (const auto& [name, value] : counters) {
        hasher.update(name + ' ' + format_int(value) + '\n');
      }
      hasher.update("energy " + format_double(energy_pj) + ' ' +
                    format_double(power.total_w()) + '\n');
      op.digest = hasher.hex_digest();
      op.layers["driver.report_s"] = seconds_since(t0);
    }
    root.close();
    op.wall_s = seconds_since(start);

    const double nodes = network->spec().num_nodes;
    const double final_cycle = static_cast<double>(engine.now());
    op.cycles = final_cycle;
    op.router_cycles = final_cycle * network->spec().num_routers();
    op.accepted =
        ratio(static_cast<double>(nic.flits_ejected()), nodes * final_cycle);
    double sum = 0.0;
    for (double l : latencies) sum += l;
    op.avg_latency = ratio(sum, static_cast<double>(latencies.size()));
    op.p99_latency = p99_of(std::move(latencies));

    // The replay must deliver exactly what the trace offered.
    if (!drained) op.errors.push_back("trace did not drain in budget");
    if (nic.packets_ejected() != injector->packets_offered() ||
        injector->packets_offered() != static_cast<std::int64_t>(trace_.size())) {
      op.errors.push_back("ejected packets != offered packets");
    }
    if (nic.flits_ejected() != trace_.total_flits()) {
      op.errors.push_back("ejected flits != offered flits");
    }

    Layers& layers = op.layers;
    network_layers(counters, op.sim_s, layers);
    engine_layers(stats, engine.num_components(), op.sim_s, layers);
    layers["traffic.packets_offered"] =
        static_cast<double>(injector->packets_offered());
    layers["traffic.flits_offered"] = static_cast<double>(trace_.total_flits());
    layers["power.energy_per_packet_pj"] = energy_pj;
    return op;
  }

  void compare(Spans* spans, const Reference& ref, Layers& layers,
               Tally& tally) override {
    // Tracing is observational: same digest, and its cost is the overhead.
    obs::TraceWriter writer;
    Scope s(spans, "ab.obs_trace", -1);
    const std::optional<OpResult> traced =
        attempt(tally, 1, "obs trace attached",
                [&] { return run_traced(nullptr, &writer); }, ref.digest);
    if (traced) {
      layers["obs.trace_overhead_frac"] = ratio(traced->wall_s, ref.wall_s) - 1;
      layers["obs.trace_events"] = static_cast<double>(writer.size());
    }
  }

 private:
  std::vector<ExperimentConfig> networks_;
  Trace trace_;
  Cycle drain_budget_ = 0;
};

/// Fig 7(b,c) latency sweeps over three 256-core topologies.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, bool quick) {
    ExperimentConfig own;
    own.topology = TopologyKind::kFile;
    own.options.topofile_text =
        read_text("configs/topologies/own256.topo.json");
    ExperimentConfig cmesh;
    cmesh.topology = TopologyKind::kCMesh;
    ExperimentConfig wcmesh;
    wcmesh.topology = TopologyKind::kWirelessCMesh;
    topologies_ = {{"own256", own, 0}, {"cmesh256", cmesh, 0},
                   {"wcmesh256", wcmesh, 0}};
    for (int i = 1; i <= 12; ++i) options_.rates.push_back(0.001 * i);
    for (Topology& t : topologies_) {
      t.config.options.num_cores = 256;
      t.routers = build_experiment_spec(t.config).num_routers();
      // One network per rate plus the zero-load probe.
      networks_.insert(networks_.end(), options_.rates.size() + 1, t.config);
    }
    options_.pattern = PatternKind::kUniform;
    options_.stop_after_saturation = false;
    options_.master_seed = seed;
    options_.threads = bench_threads();
    if (quick) {
      options_.phases.warmup = 300;
      options_.phases.measure = 800;
      options_.phases.drain_limit = 3000;
    } else {
      options_.phases.warmup = 1500;
      options_.phases.measure = 4000;
      options_.phases.drain_limit = 30000;
    }
  }

  unsigned threads() const override { return options_.threads; }

  const std::vector<ExperimentConfig>& networks() const override {
    return networks_;
  }

  OpResult run(Spans* spans) override {
    OpResult op;
    const auto start = Clock::now();
    Scope root(spans, "op", -1);
    PointClock clock;
    double pool_capacity_s = 0.0;
    std::vector<SweepResult> sweeps;
    for (const Topology& topo : topologies_) {
      Scope s(spans, "sweep", root.id());
      SweepOptions options = options_;
      NetworkFactory factory =
          make_network_factory(topo.config.topology, topo.config.options);
      if (spans != nullptr) {
        // Each point's span runs from its factory call to its progress
        // report, both on the worker thread that ran it.
        factory = [&, sweep = s.id()] {
          return clock.start(spans, sweep, topo);
        };
        options.progress = [&](const SweepProgress&) { clock.stop(spans); };
      }
      sweeps.push_back(latency_sweep(factory, options));
      s.close();

      const SweepResult& sweep = sweeps.back();
      const auto cycles = static_cast<double>(sweep.telemetry.cycles_simulated);
      op.cycles += cycles;
      op.router_cycles += cycles * topo.routers;
      op.sim_s += sweep.telemetry.wall_seconds;
      pool_capacity_s += sweep.telemetry.threads * sweep.telemetry.wall_seconds;
      op.layers["sweep.points"] += sweep.telemetry.points_run;
      for (const SweepPoint& p : sweep.points) {
        runner_layers(p.result.profile, op.layers);
      }
      if (sweep.telemetry.points_cancelled != 0 ||
          sweep.points.size() != options_.rates.size()) {
        op.errors.push_back(topo.name + ": sweep lost points");
      }
    }
    // The paper's topology carries the simulated end-to-end readings:
    // low-load latency and the accepted throughput at the top rate.
    const SweepResult& own = sweeps.front();
    op.avg_latency = own.points.front().result.avg_latency;
    op.p99_latency = own.points.front().result.p99_latency;
    op.accepted = own.points.back().result.throughput;
    op.layers["sweep.saturation_rate"] = own.saturation_rate;
    {
      Scope s(spans, "driver.report", root.id());
      const auto t0 = Clock::now();
      Sha256 hasher;
      for (std::size_t i = 0; i < sweeps.size(); ++i) {
        hasher.update(topologies_[i].name + " zero_load " +
                      format_double(sweeps[i].zero_load_latency) +
                      " saturation " +
                      format_double(sweeps[i].saturation_rate) + '\n');
        for (const SweepPoint& p : sweeps[i].points) {
          std::string line = format_double(p.rate) + ' ';
          append_run_result_canonical_json(line, p.result);
          hasher.update(line + '\n');
        }
      }
      op.digest = hasher.hex_digest();
      op.layers["driver.report_s"] = seconds_since(t0);
    }
    root.close();
    op.wall_s = seconds_since(start);

    Layers& layers = op.layers;
    layers["sweep.cycles"] = op.cycles;
    if (spans != nullptr) {
      const double busy = clock.busy_s();
      layers["exec.pool_utilization"] = ratio(busy, pool_capacity_s);
      layers["sweep.setup_share"] = ratio(clock.setup_s(), busy);
      layers["sweep.point_wall_s.p50"] = clock.wall_quantile(0.5);
      layers["sweep.point_wall_s.max"] = clock.wall_quantile(1.0);
    }
    return op;
  }

 private:
  struct Topology {
    std::string name;
    ExperimentConfig config;
    int routers;
  };

  /// Times the sweep's points from inside its worker threads.
  class PointClock {
   public:
    std::unique_ptr<Network> start(Spans* spans, int sweep,
                                   const Topology& topo) {
      const auto t0 = Clock::now();
      const int point = spans->open("sweep.point", sweep);
      SetupTimes times;
      std::unique_ptr<Network> network =
          build_network(topo.config, spans, point, times);
      MutexLock lock(mu_);
      open_[std::this_thread::get_id()] = {t0, point};
      setup_s_ += seconds_since(t0);
      return network;
    }

    void stop(Spans* spans) {
      MutexLock lock(mu_);
      const auto it = open_.find(std::this_thread::get_id());
      if (it == open_.end()) return;
      walls_.push_back(seconds_since(it->second.first));
      spans->close(it->second.second);
      open_.erase(it);
    }

    double busy_s() const {
      MutexLock lock(mu_);
      double total = 0.0;
      for (double w : walls_) total += w;
      return total;
    }
    double setup_s() const {
      MutexLock lock(mu_);
      return setup_s_;
    }
    /// Nearest-rank quantile of the point walls (q = 1 is the maximum).
    double wall_quantile(double q) const {
      MutexLock lock(mu_);
      if (walls_.empty()) return 0.0;
      std::vector<double> sorted = walls_;
      std::sort(sorted.begin(), sorted.end());
      const auto k = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[k];
    }

   private:
    mutable Mutex mu_;
    std::map<std::thread::id, std::pair<Clock::time_point, int>> open_
        OWNSIM_GUARDED_BY(mu_);
    std::vector<double> walls_ OWNSIM_GUARDED_BY(mu_);
    double setup_s_ OWNSIM_GUARDED_BY(mu_) = 0.0;
  };

  static std::string read_text(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::vector<Topology> topologies_;
  std::vector<ExperimentConfig> networks_;
  SweepOptions options_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick) {
  const std::string s = std::to_string(seed);
  if (name == "own1024-sat") {
    const std::string phases = quick ? " warmup=300 measure=800 drain=6000"
                                     : " warmup=1500 measure=4000 drain=30000";
    return std::make_unique<PointWorkload>(
        "topology=own cores=1024 config=4 scenario=ideal pattern=UN "
        "rate=0.004 seed=" + s + phases,
        /*expect_drained=*/false, /*kernel_ab=*/true, /*overlay_ab=*/false);
  }
  if (name == "own256-faults-adapt") {
    const std::string phases =
        quick ? " warmup=500 measure=30000 fault_horizon=30000 "
                "fault_kill=0:2@5000 fault_token_loss=3@15000:64"
              : " warmup=2000 measure=300000 fault_horizon=300000 "
                "fault_kill=0:2@50000 fault_token_loss=3@150000:64";
    return std::make_unique<PointWorkload>(
        "topology=own cores=256 pattern=UN rate=0.003 fault=1 "
        "fault_margin_db=-8 fault_flaps=32 watchdog=20000 adapt=1 seed=" + s +
            " adapt_seed=" + s + phases,
        /*expect_drained=*/true, /*kernel_ab=*/false, /*overlay_ab=*/true);
  }
  if (name == "own1024-bursty") {
    return std::make_unique<BurstyWorkload>(seed, quick);
  }
  if (name == "fig7-sweep-256") {
    return std::make_unique<SweepWorkload>(seed, quick);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Json samples_json(const std::vector<double>& values) {
  Json::Array out;
  for (double v : values) out.push_back(Json(v));
  return Json(std::move(out));
}

/// Schema-v2 record for tools/perf_compare.py (only when OWNSIM_BENCH_JSON
/// is set; emit_bench_json checks).
void emit_record(const std::string& workload, std::uint64_t seed, bool quick,
                 unsigned threads, std::vector<BenchMetric> host,
                 const OpResult& op) {
  BenchRecord record;
  record.bench = "ownsim_bench";
  record.paper_ref = "benchmark/README.md";
  record.config = workload + ".seed" + std::to_string(seed) +
                  (quick ? ".quick" : "");
  record.threads = static_cast<int>(threads);
  record.kernel = "activity";
  record.metrics = std::move(host);
  record.metrics.push_back({"accepted_throughput", op.accepted,
                            "flits/node/cycle", true, "higher"});
  record.metrics.push_back(
      {"avg_latency_cycles", op.avg_latency, "cycles", true, "lower"});
  record.metrics.push_back(
      {"p99_latency_cycles", op.p99_latency, "cycles", true, "lower"});
  emit_bench_json(record);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::optional<double> seconds;
  bool trace = false;
  bool quick = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--quick") {
      args.quick = true;
    } else {
      throw std::invalid_argument("unknown argument: " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  if (!args.seconds) throw std::invalid_argument("--seconds needed");
  return args;
}

int run_main(const Args& args) {
  all_cpus();
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.quick);
  const int points = workload->points();
  Tally tally;

  const auto setup_once = [&] {
    return setup_networks(workload->networks(), nullptr).total_s();
  };
  const int cpu = fastest_cpu(setup_once);
  const CpuScope pin(one_cpu(cpu));
  // A multi-threaded op needs every CPU; opened around each such op.
  const auto op_cpus = [&] {
    return workload->threads() > 1 ? all_cpus() : one_cpu(cpu);
  };

  // Set-ups take milliseconds, so their median needs many samples.
  std::vector<double> setup_samples;
  const auto setup_start = Clock::now();
  do {
    setup_samples.push_back(setup_once());
  } while (!args.quick && setup_samples.size() < 100 &&
           (setup_samples.size() < 5 || seconds_since(setup_start) < 0.5));

  // The first op's digest is the one every later op must reproduce.
  std::string digest;
  std::optional<OpResult> first;
  const auto counted = [&](const std::string& what) {
    const CpuScope cpus(op_cpus());
    std::optional<OpResult> op = attempt(
        tally, points, what, [&] { return workload->run(nullptr); }, digest);
    if (op && digest.empty()) digest = op->digest;
    if (op && !first) first = op;
    return op;
  };
  if (!args.quick) counted("warm-up op");

  std::vector<double> wall, cycles_per_s, router_cycles_per_s;
  // Quick mode runs exactly one op. Otherwise at least three, then more
  // while one more, as long as the last, would still end within --seconds,
  // so that a run never measures much longer than asked.
  const int min_ops = args.quick ? 1 : 3;
  const auto timed_start = Clock::now();
  double last_op_s = 0.0;
  for (int i = 0;
       i < min_ops || (!args.quick && seconds_since(timed_start) + last_op_s <=
                                          *args.seconds);
       ++i) {
    const auto op_start = Clock::now();
    const std::optional<OpResult> op = counted("op " + std::to_string(i + 1));
    last_op_s = seconds_since(op_start);
    if (!op) continue;
    wall.push_back(op->wall_s);
    cycles_per_s.push_back(op->cycles_per_s());
    router_cycles_per_s.push_back(ratio(op->router_cycles, op->sim_s));
  }
  const double rss_mb = peak_rss_mb();

  Json::Object doc;
  doc["workload"] = Json(args.workload);
  doc["seed"] = Json(static_cast<std::int64_t>(args.seed));
  doc["quick"] = Json(args.quick);
  doc["nproc"] = Json(static_cast<std::int64_t>(nproc()));
  doc["threads"] = Json(static_cast<std::int64_t>(workload->threads()));
  doc["cpu"] = Json(cpu);
  doc["compiler"] = Json(OWNSIM_BENCH_COMPILER);
  doc["build_type"] = Json(OWNSIM_BENCH_BUILD_TYPE);
  doc["digest"] = Json(digest);
  Json::Object samples;
  samples["wall_s"] = samples_json(wall);
  samples["sim_cycles_per_s"] = samples_json(cycles_per_s);
  samples["router_cycles_per_s"] = samples_json(router_cycles_per_s);
  samples["setup_s"] = samples_json(setup_samples);
  doc["samples"] = Json(std::move(samples));
  doc["peak_rss_mb"] = Json(rss_mb);
  if (first) {
    Json::Object simulated;
    simulated["accepted_throughput"] = Json(first->accepted);
    doc["simulated"] = Json(std::move(simulated));
    emit_record(args.workload, args.seed, args.quick, workload->threads(),
                {{"wall_s", median(wall), "s", false, "lower"},
                 {"sim_cycles_per_s", median(cycles_per_s), "cycles/s", false,
                  "higher"},
                 {"router_cycles_per_s", median(router_cycles_per_s),
                  "router-cycles/s", false, "higher"},
                 {"setup_s", median(setup_samples), "s", false, "lower"},
                 {"peak_rss_mb", rss_mb, "MB", false, "lower"}},
                *first);
  }

  if (args.trace && first) {
    Spans spans;
    const SetupTimes setup = setup_networks(workload->networks(), &spans);
    const std::optional<OpResult> traced = attempt(
        tally, points, "traced op",
        [&] {
          const CpuScope cpus(op_cpus());
          return workload->run(&spans);
        },
        digest);
    Layers layers;
    if (traced) layers = traced->layers;
    layers["topology.build_s"] = setup.topology_build_s;
    layers["topofile.load_s"] = setup.topofile_load_s;
    layers["network.construct_s"] = setup.network_construct_s;
    const Reference ref{median(wall), median(cycles_per_s), digest};
    if (traced) {
      layers["network.avg_latency_cycles"] = traced->avg_latency;
      layers["network.p99_latency_cycles"] = traced->p99_latency;
      layers["bench.span_overhead_frac"] = ratio(traced->wall_s, ref.wall_s) - 1;
    }
    workload->compare(&spans, ref, layers, tally);
    Json::Object out;
    for (const auto& [name, value] : layers) out[name] = Json(value);
    doc["layers"] = Json(std::move(out));
    doc["spans"] = spans.to_json();
  }

  doc["attempted"] = Json(tally.attempted);
  doc["failed"] = Json(tally.failed);
  Json::Array errors;
  for (const std::string& e : tally.errors) errors.push_back(Json(e));
  doc["errors"] = Json(std::move(errors));
  std::cout << Json(std::move(doc)).dump() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ownsim_bench: %s\n", e.what());
    return 2;
  }
}
