// Full command-line front end for the simulator.
//
//   ./ownsim_cli topology=own cores=256 pattern=UN rate=0.004
//                config=4 scenario=ideal warmup=1500 measure=4000
//                report=json seed=1 packet_flits=4   (one line in practice)
//
// Any subset of keys may be given (defaults shown above); `report=csv|json`
// additionally dumps per-channel utilization to stdout after the summary.
// `sweep=r1:r2:...` switches to a latency sweep over those offered loads,
// fanned across `threads` workers (also accepted as `--threads N`).
// Run with `help=1` for the key list.
//
// The CLI is a thin client of the shared config -> run -> report path
// (driver/experiment_config.hpp + run_experiment): the same key=value
// vocabulary in a config file (`file=`) means the same experiment here.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "driver/experiment_config.hpp"
#include "driver/simulate.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "metrics/report.hpp"
#include "metrics/table_io.hpp"
#include "obs/trace.hpp"

namespace {

void print_help() {
  std::cout <<
      "ownsim_cli key=value ...\n"
      "  topology   own | cmesh | wcmesh | optxb | pclos | file:PATH [own]\n"
      "             file:PATH loads a declarative .topo.json topology\n"
      "             (docs/TOPOLOGY_FORMAT.md; deadlock-checked at load)\n"
      "  cores      256 | 1024 (others where the topology allows) [256;\n"
      "             file topologies default to the file's node count]\n"
      "  pattern    UN | BR | MT | PS | NBR | tornado | hotspot  [UN]\n"
      "  rate       offered load, flits/node/cycle             [0.004]\n"
      "  config     1..4 (Table IV, OWN only)                  [4]\n"
      "  scenario   ideal | conservative (Table III)           [ideal]\n"
      "  warmup, measure, drain   phase lengths (cycles)  [1500/4000/30000]\n"
      "  packet_flits, seed                                    [4 / 1]\n"
      "  kernel     activity | lockstep | parallel; all bit-identical\n"
      "             (parallel partitions one run across threads) [activity]\n"
      "  partitions parallel-kernel partition override, 0 = topology\n"
      "             hint (result-neutral)                       [0]\n"
      "  report     none | csv | json (channel utilization)    [none]\n"
      "  sweep      colon-separated rates (e.g. 0.002:0.004): run a\n"
      "             latency sweep instead of a single point\n"
      "             (seed becomes the sweep master seed)\n"
      "  threads    workers for the sweep, or for the parallel kernel in\n"
      "             single-point mode (--threads N also accepted)\n"
      "             [hardware concurrency]\n"
      "  progress   1: print per-point progress lines to stderr  [0]\n"
      "  trace_out  write a Chrome trace_event JSON of the run to this\n"
      "             path (single-point mode; load in ui.perfetto.dev;\n"
      "             --trace-out PATH also accepted)\n"
      "  counters   1: dump the obs counter registry as JSON after the\n"
      "             summary (single-point mode)  [0]\n"
      "  profile    1: print the run's wall-clock self-profile  [0]\n"
      "fault campaign (single-point mode; see DESIGN.md 5f):\n"
      "  fault      1: enable the runtime fault campaign          [0]\n"
      "  fault_seed campaign master seed                          [seed]\n"
      "  fault_ber  per-bit error rate on wireless hops; negative derives\n"
      "             it from the link budget operating point       [-1]\n"
      "  fault_margin_db   link margin for the derived BER (negative\n"
      "             values stress the links)                      [2.5]\n"
      "  fault_flaps       randomly placed wireless-link flaps    [0]\n"
      "  fault_flap_down   flap outage length, cycles             [200]\n"
      "  fault_horizon     random events land in [1, horizon]     [4000]\n"
      "  fault_kill        src:dst@cycle — kill the wireless channel\n"
      "             between those clusters mid-run (OWN-256, rerouted\n"
      "             online); or link:IDX@cycle — kill wireless link index\n"
      "             IDX on any topology (file: included; no reroute)\n"
      "  fault_token_loss  medium@cycle:recovery — lose the token of\n"
      "             medium index at cycle; recovery is cycles until the\n"
      "             token regenerates, or 'never'\n"
      "  watchdog   no-progress window in cycles, 0 = off; a trip dumps\n"
      "             diagnostics to stderr and exits with code 3   [0]\n"
      "adaptive link layer (single-point mode; see DESIGN.md 5k):\n"
      "  adapt      1: close the thermal/variation physical loop    [0]\n"
      "  adapt_react        0: physical state only (static links)   [1]\n"
      "  adapt_refresh      physical-state refresh period, cycles   [1000]\n"
      "  adapt_seed         per-die variation sample seed           [1]\n"
      "  adapt_sigma_db     transceiver gain spread, std dev dB     [0.5]\n"
      "  adapt_ring_sigma_c ring detuning spread, degC              [1.0]\n"
      "  adapt_snr_required_db, adapt_margin_db   operating point   [17/2.5]\n"
      "  adapt_temp_coeff   margin lost per degC of heating         [0.05]\n"
      "  adapt_alpha        temperature smoothing (1 = no memory)   [0.5]\n"
      "  adapt_iterations   online thermal relaxation iterations    [400]\n"
      "  adapt_backoff_enter/exit/gain   rate-backoff hysteresis\n"
      "             band and dB bought per level               [1/2/3]\n"
      "  adapt_max_backoff  deepest backoff level                   [2]\n"
      "  adapt_sustain      refreshes before a reaction latches     [2]\n"
      "  adapt_realloc_enter/exit   OWN-256 re-allocation band      [0/1]\n"
      "  adapt_trim_uw      ring trimming power, uW per degC        [50]\n";
}

/// Parses "0.001:0.002:0.004" into rates; throws on junk.
std::vector<double> parse_rates(const std::string& csv) {
  std::vector<double> rates;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ':')) {
    if (item.empty()) continue;
    std::size_t used = 0;
    try {
      rates.push_back(std::stod(item, &used));
    } catch (const std::exception&) {
      used = std::string::npos;  // not a number at all
    }
    if (used != item.size()) {
      throw std::invalid_argument("bad rate in sweep list: " + item);
    }
  }
  if (rates.empty()) throw std::invalid_argument("sweep: no rates given");
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ownsim;
  std::ostringstream joined;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // GNU-style convenience: "--threads 4" and "--threads=4" become
    // "threads=4" for the key=value parser.
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      if (arg.find('=') == std::string::npos && i + 1 < argc) {
        arg += '=';
        arg += argv[++i];
      }
      // "--trace-out=x" -> "trace_out=x": keys use underscores internally.
      for (std::size_t k = 0; k < arg.size() && arg[k] != '='; ++k) {
        if (arg[k] == '-') arg[k] = '_';
      }
    }
    joined << arg << ' ';
  }
  Config args;
  try {
    args = Config::from_string(joined.str());
  } catch (const std::exception& e) {
    std::cerr << "bad arguments: " << e.what() << "\n";
    print_help();
    return 1;
  }
  if (args.get_bool("help", false)) {
    print_help();
    return 0;
  }
  // `file=path` loads defaults from a config file; command-line keys win.
  if (args.contains("file")) {
    try {
      Config from_file = Config::from_file(args.require_string("file"));
      from_file.merge(args);
      args = from_file;
    } catch (const std::exception& e) {
      std::cerr << "cannot load config file: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    const ExperimentConfig config = parse_experiment_config(
        args, {"help", "file", "sweep", "progress", "trace_out", "counters",
               "report", "profile"});

    // Sweep mode: fan one fresh network per load point across the pool.
    if (args.contains("sweep")) {
      if (config.fault.enabled) {
        throw std::invalid_argument(
            "fault campaigns run in single-point mode, not sweep mode");
      }
      if (config.adapt.enabled) {
        throw std::invalid_argument(
            "the adaptive link layer runs in single-point mode, not sweep "
            "mode");
      }
      SweepOptions sweep_options;
      sweep_options.rates = parse_rates(args.require_string("sweep"));
      sweep_options.pattern = config.pattern;
      sweep_options.phases = config.phases;
      sweep_options.injector = config.injector;
      sweep_options.master_seed = config.injector.master_seed;
      sweep_options.threads = static_cast<unsigned>(
          args.get_int("threads", exec::default_threads()));
      sweep_options.stop_after_saturation = false;
      if (args.get_bool("progress", false)) {
        sweep_options.progress = [](const SweepProgress& p) {
          std::cerr << sweep_progress_line(p) << '\n';
        };
      }
      const SweepResult sweep = latency_sweep(
          make_network_factory(config.topology, config.options),
          sweep_options);

      Table table({"offered", "avg_latency", "p99", "throughput", "drained"});
      for (const SweepPoint& point : sweep.points) {
        table.add_row({Table::num(point.rate, 4),
                       Table::num(point.result.avg_latency, 1),
                       Table::num(point.result.p99_latency, 1),
                       Table::num(point.result.throughput, 4),
                       point.result.drained ? "yes" : "no"});
      }
      table.print(std::cout);
      std::cout << "\nzero-load latency : " << sweep.zero_load_latency
                << " cycles\nsaturation load   : " << sweep.saturation_rate
                << " flits/node/cycle\nexecution         : "
                << sweep_telemetry_summary(sweep.telemetry) << '\n';
      return 0;
    }

    // Single-point mode rides the shared run_experiment path; everything the
    // report needs from the live Network (spec name, counter registry,
    // channel utilization, trace flush) is captured by the after_run hook.
    const std::string trace_out = args.get_string("trace_out", "");
    const bool want_counters = args.get_bool("counters", false);
    const std::string report = args.get_string("report", "none");
    if (report != "none" && report != "csv" && report != "json") {
      std::cerr << "unknown report format: " << report << "\n";
      return 1;
    }

    // Tracing is runtime-opt-in: attaching the writer must not (and does
    // not — test_obs asserts it) change any simulated result.
    std::unique_ptr<obs::TraceWriter> trace;
    RunHooks hooks;
    if (!trace_out.empty()) {
      trace = std::make_unique<obs::TraceWriter>();
      hooks.before_run = [&trace](Network& network) {
        network.set_trace(trace.get());
      };
    }

    std::string network_name;
    std::string trace_line;
    bool trace_failed = false;
    std::ostringstream counters_text;
    std::ostringstream report_text;
    hooks.after_run = [&](Network& network, const ExperimentResult&) {
      network_name = network.spec().name;
      if (trace) {
        network.flush_trace();
        std::ofstream out(trace_out);
        if (!out) {
          trace_failed = true;
        } else {
          trace->write_json(out);
          std::ostringstream line;
          line << "trace: " << trace->size() << " events -> " << trace_out
               << " (load in ui.perfetto.dev)\n";
          trace_line = line.str();
        }
      }
      if (want_counters) network.obs().write_json(counters_text);
      if (report == "csv") {
        NetworkReport(network).write_channels_csv(report_text);
      } else if (report == "json") {
        NetworkReport(network).write_json(report_text);
      }
    };

    const ExperimentResult result = run_experiment(config, hooks);
    const RunResult& run = result.run;
    if (trace_failed) {
      std::cerr << "cannot open trace output: " << trace_out << "\n";
      return 1;
    }
    std::cout << trace_line;

    Table summary({"metric", "value"});
    summary.add_row({"network", network_name});
    summary.add_row({"pattern", to_string(config.pattern)});
    summary.add_row({"offered (flits/node/cyc)", Table::num(config.rate, 4)});
    summary.add_row({"throughput", Table::num(run.throughput, 4)});
    summary.add_row({"avg latency (cyc)", Table::num(run.avg_latency, 1)});
    summary.add_row({"p99 latency (cyc)", Table::num(run.p99_latency, 1)});
    summary.add_row({"avg hops", Table::num(run.avg_hops, 2)});
    summary.add_row({"drained", run.drained ? "yes" : "no"});
    summary.add_row(
        {"router power (W)", Table::num(result.power.router_w(), 3)});
    summary.add_row(
        {"photonic power (W)", Table::num(result.power.photonic_w(), 3)});
    summary.add_row(
        {"wireless power (W)", Table::num(result.power.wireless_w(), 3)});
    summary.add_row({"electrical power (W)",
                     Table::num(result.power.electrical_link_w, 3)});
    summary.add_row({"total power (W)", Table::num(result.power.total_w(), 3)});
    summary.add_row({"energy/packet (pJ)",
                     Table::num(result.energy_per_packet_pj, 0)});
    if (config.fault.enabled) {
      summary.add_row(
          {"fault ber", Table::num(fault::resolve_ber(config.fault), 12)});
      summary.add_row(
          {"crc errors", std::to_string(result.fault.crc_errors)});
      summary.add_row(
          {"retransmissions", std::to_string(result.fault.retransmissions)});
      summary.add_row(
          {"token recoveries", std::to_string(result.fault.token_recoveries)});
      summary.add_row(
          {"flows degraded", std::to_string(result.fault.flows_degraded)});
      if (config.fault.watchdog) {
        summary.add_row(
            {"watchdog", result.watchdog_tripped ? "TRIPPED" : "ok"});
      }
    }
    if (config.adapt.enabled) {
      if (!config.fault.enabled) {
        summary.add_row(
            {"crc errors", std::to_string(result.fault.crc_errors)});
        summary.add_row(
            {"retransmissions", std::to_string(result.fault.retransmissions)});
      }
      summary.add_row(
          {"adapt refreshes", std::to_string(result.adapt.refreshes)});
      summary.add_row(
          {"adapt backoffs", std::to_string(result.adapt.backoffs)});
      summary.add_row({"adapt reallocations",
                       std::to_string(result.adapt.reallocations)});
      summary.add_row(
          {"peak temp rise (C)", Table::num(result.adapt.peak_temp_c, 2)});
      summary.add_row(
          {"min margin (dB)", Table::num(result.adapt.min_margin_db, 2)});
      summary.add_row(
          {"trim power (mW)", Table::num(result.adapt.trim_avg_mw, 3)});
    }
    summary.print(std::cout);

    if (args.get_bool("profile", false)) {
      std::cout << "\nprofile: " << run_profile_summary(run) << '\n';
    }
    if (want_counters) {
      std::cout << "\ncounters:\n" << counters_text.str();
    }
    if (report != "none") {
      std::cout << '\n' << report_text.str();
    }
    if (config.fault.enabled && result.watchdog_tripped) {
      std::cerr << "watchdog tripped: run aborted (diagnostics above)\n";
      return 3;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
