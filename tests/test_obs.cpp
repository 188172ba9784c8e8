// Tests for the observability layer: counter registry semantics, trace JSON
// well-formedness, the "tracing never perturbs simulated results" contract,
// the run self-profile, and machine-readable bench record emission.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/simulate.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/report.hpp"
#include "metrics/runner.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "topology/registry.hpp"
#include "traffic/injector.hpp"

namespace ownsim {
namespace {

// ---- counter registry -------------------------------------------------------

#if OWNSIM_OBS_ENABLED

TEST(ObsRegistry, CounterRegistersAndCounts) {
  obs::Registry registry;
  obs::Counter flits = registry.counter("router.0.flits");
  EXPECT_TRUE(flits.bound());
  EXPECT_EQ(registry.value("router.0.flits"), 0);
  flits.inc();
  flits.add(4);
  EXPECT_EQ(flits.value(), 5);
  EXPECT_EQ(registry.value("router.0.flits"), 5);
  EXPECT_TRUE(registry.contains("router.0.flits"));
  EXPECT_FALSE(registry.contains("router.0.nope"));
}

TEST(ObsRegistry, DuplicateRegistrationSharesSlot) {
  obs::Registry registry;
  obs::Counter a = registry.counter("shared");
  obs::Counter b = registry.counter("shared");
  a.inc();
  b.inc();
  EXPECT_EQ(registry.value("shared"), 2);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ObsRegistry, GaugeKeepsMaximum) {
  obs::Registry registry;
  obs::Gauge gauge = registry.gauge("highwater");
  gauge.observe_max(3);
  gauge.observe_max(8);
  gauge.observe_max(5);
  EXPECT_EQ(gauge.value(), 8);
  gauge.set(2);  // set overwrites unconditionally
  EXPECT_EQ(gauge.value(), 2);
}

TEST(ObsRegistry, ForEachVisitsSorted) {
  obs::Registry registry;
  registry.counter("b").inc();
  registry.counter("a").add(2);
  std::vector<std::string> names;
  std::vector<std::int64_t> values;
  registry.for_each([&](const std::string& name, std::int64_t value) {
    names.push_back(name);
    values.push_back(value);
  });
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(values, (std::vector<std::int64_t>{2, 1}));
}

TEST(ObsRegistry, WriteJsonIsFlatObject) {
  obs::Registry registry;
  registry.counter("x.y").add(3);
  std::ostringstream os;
  registry.write_json(os);
  EXPECT_EQ(os.str(), "{\"x.y\": 3}");
}

TEST(ObsRegistry, NetworkRegistersComponentCounters) {
  TopologyOptions options;
  options.num_cores = 256;
  Network network(build_topology(TopologyKind::kOwn, options));
  EXPECT_TRUE(network.obs().contains("router.0.flits_forwarded"));
  EXPECT_TRUE(network.obs().contains("router.0.buffer_highwater"));
  EXPECT_TRUE(network.obs().contains("router.0.sa_retries"));
  EXPECT_GT(network.obs().size(), 0u);
}

#else  // compiled out: same API, no storage, no observable effect.

TEST(ObsRegistry, CompiledOutIsInertNoOp) {
  obs::Registry registry;
  obs::Counter counter = registry.counter("c");
  obs::Gauge gauge = registry.gauge("g");
  counter.inc();
  counter.add(10);
  gauge.observe_max(5);
  EXPECT_FALSE(counter.bound());
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(registry.value("c"), 0);
  EXPECT_FALSE(registry.contains("c"));
  EXPECT_EQ(registry.size(), 0u);
  std::ostringstream os;
  registry.write_json(os);
  EXPECT_EQ(os.str(), "{}");
}

#endif  // OWNSIM_OBS_ENABLED

TEST(ObsRegistry, UnboundHandlesDropUpdates) {
  obs::Counter counter;
  obs::Gauge gauge;
  counter.inc();
  counter.add(100);
  gauge.observe_max(100);
  gauge.set(7);
  EXPECT_FALSE(counter.bound());
  EXPECT_FALSE(gauge.bound());
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0);
}

// ---- trace writer -----------------------------------------------------------

TEST(ObsTrace, JsonEscapesControlCharacters) {
  obs::TraceWriter trace;
  trace.instant("a\"b\\c", "tab\there", obs::TraceWriter::kPidRun, 0, 1,
                {{std::string(1, '\x01'), "1"}});
  trace.set_thread_name(obs::TraceWriter::kPidRun, 0, "q\"");
  std::ostringstream os;
  trace.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(json.find("\"tab\\there\""), std::string::npos);
  EXPECT_NE(json.find("\"\\u0001\""), std::string::npos);
  const serve::Json parsed = serve::Json::parse(json);
  const serve::Json::Array& events = parsed.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("name")->as_string(), "a\"b\\c");
  EXPECT_EQ(events[1].find("args")->find("name")->as_string(), "q\"");
}

TEST(ObsTrace, EmitsBalancedSlices) {
  obs::TraceWriter trace;
  trace.begin("warmup", "phase", obs::TraceWriter::kPidRun, 1, 0);
  trace.end(obs::TraceWriter::kPidRun, 1, 100);
  trace.instant("grant", "token", obs::TraceWriter::kPidMedia, 0, 50);
  trace.complete("pkt", "medium", obs::TraceWriter::kPidMedia, 0, 50, 12);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.events()[0].phase, obs::TraceEvent::Phase::kBegin);
  EXPECT_EQ(trace.events()[1].phase, obs::TraceEvent::Phase::kEnd);
  EXPECT_EQ(trace.events()[3].dur, 12);
}

/// Structural validation of the serialized trace without a JSON library:
/// every line inside traceEvents must be a {...} object, and B/E events must
/// balance per (pid, tid) with non-decreasing timestamps.
void validate_trace_json(const obs::TraceWriter& trace) {
  std::ostringstream os;
  trace.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);

  // Brace/quote sanity over the whole document.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Event-level invariants straight from the buffer.
  std::map<std::pair<int, int>, int> open;
  std::map<std::pair<int, int>, std::int64_t> last_ts;
  for (const obs::TraceEvent& event : trace.events()) {
    EXPECT_GE(event.dur, 0);
    if (event.phase == obs::TraceEvent::Phase::kMetadata) continue;
    const auto key = std::make_pair(event.pid, event.tid);
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(event.ts, it->second);
    }
    last_ts[key] = event.ts;
    if (event.phase == obs::TraceEvent::Phase::kBegin) ++open[key];
    if (event.phase == obs::TraceEvent::Phase::kEnd) {
      EXPECT_GT(open[key], 0);
      --open[key];
    }
  }
  for (const auto& [key, count] : open) EXPECT_EQ(count, 0);
}

TEST(ObsTrace, RunProducesWellFormedTrace) {
  TopologyOptions options;
  options.num_cores = 256;
  Network network(build_topology(TopologyKind::kOwn, options));
  obs::TraceWriter trace;
  network.set_trace(&trace);

  TrafficPattern pattern(PatternKind::kUniform, 256);
  Injector::Params params;
  params.rate = 0.01;
  Injector injector(&network, pattern, params);
  network.engine().add(&injector);

  RunPhases phases;
  phases.warmup = 200;
  phases.measure = 400;
  phases.drain_limit = 5000;
  run_load_point(network, injector, phases);
  network.flush_trace();

  EXPECT_GT(trace.size(), 6u);  // 3 B/E phase pairs + traffic
  validate_trace_json(trace);
}

// ---- determinism guard ------------------------------------------------------

RunResult run_own256_point(obs::TraceWriter* trace) {
  TopologyOptions options;
  options.num_cores = 256;
  Network network(build_topology(TopologyKind::kOwn, options));
  if (trace != nullptr) network.set_trace(trace);
  TrafficPattern pattern(PatternKind::kUniform, 256);
  Injector::Params params;
  params.rate = 0.004;
  Injector injector(&network, pattern, params);
  network.engine().add(&injector);
  RunPhases phases;
  phases.warmup = 300;
  phases.measure = 800;
  phases.drain_limit = 10000;
  RunResult result = run_load_point(network, injector, phases);
  if (trace != nullptr) network.flush_trace();
  return result;
}

TEST(Obs, TraceDoesNotPerturbResults) {
  const RunResult plain = run_own256_point(nullptr);
  obs::TraceWriter trace;
  const RunResult traced = run_own256_point(&trace);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_TRUE(deterministic_eq(plain, traced));
  // Spot-check the contract actually compares something.
  EXPECT_GT(plain.measured_packets, 0);
  EXPECT_DOUBLE_EQ(plain.avg_latency, traced.avg_latency);
}

TEST(Obs, DeterministicEqIgnoresProfile) {
  const RunResult a = run_own256_point(nullptr);
  RunResult b = a;
  b.profile.wall_seconds += 10.0;
  b.profile.peak_rss_bytes += 1 << 20;
  EXPECT_TRUE(deterministic_eq(a, b));
  b.measured_packets += 1;
  EXPECT_FALSE(deterministic_eq(a, b));
}

// ---- run self-profile -------------------------------------------------------

TEST(Obs, RunProfileIsPopulated) {
  const RunResult result = run_own256_point(nullptr);
  EXPECT_GT(result.profile.wall_seconds, 0.0);
  EXPECT_GT(result.profile.cycles_per_second, 0.0);
  EXPECT_GE(result.profile.warmup_seconds, 0.0);
  EXPECT_GE(result.profile.measure_seconds, 0.0);
  EXPECT_GE(result.profile.drain_seconds, 0.0);
  // Phases are measured as disjoint spans of the same wall interval.
  EXPECT_LE(result.profile.warmup_seconds + result.profile.measure_seconds +
                result.profile.drain_seconds,
            result.profile.wall_seconds + 1e-9);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(result.profile.peak_rss_bytes, 0);
#endif
  const std::string summary = run_profile_summary(result);
  EXPECT_NE(summary.find("cycles/s"), std::string::npos);
}

// ---- bench JSON -------------------------------------------------------------

BenchRecord sample_record() {
  BenchRecord record;
  record.bench = "bench_unit";
  record.paper_ref = "Fig 0";
  record.config = "quick";
  record.metrics.push_back(
      {"throughput", 0.125, "flits/node/cycle", true, "higher"});
  record.metrics.push_back({"wall_seconds", 1.5, "s", false, "lower"});
  return record;
}

TEST(BenchJson, WritesSchemaVersionedRecord) {
  std::ostringstream os;
  write_bench_record_json(os, sample_record());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"bench_unit\""), std::string::npos);
  // Schema v2 context fields, with their defaults when the bench sets none.
  EXPECT_NE(json.find("\"threads\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\": \"activity\""), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\": true"), std::string::npos);
  EXPECT_NE(json.find("\"better\": \"lower\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line (JSONL)
}

TEST(BenchJson, EmitHonorsEnvironment) {
  // Unset -> silent no-op.
  ::unsetenv("OWNSIM_BENCH_JSON");
  EXPECT_FALSE(emit_bench_json(sample_record()));

  const std::string path =
      ::testing::TempDir() + "ownsim_bench_emit_test.jsonl";
  std::remove(path.c_str());
  ::setenv("OWNSIM_BENCH_JSON", path.c_str(), 1);
  EXPECT_TRUE(emit_bench_json(sample_record()));
  EXPECT_TRUE(emit_bench_json(sample_record()));  // appends
  ::unsetenv("OWNSIM_BENCH_JSON");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.find("{\"schema_version\": 2"), 0u);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(BenchJson, QuickModeReadsEnvironment) {
  ::unsetenv("OWNSIM_BENCH_QUICK");
  EXPECT_FALSE(bench_quick_mode());
  ::setenv("OWNSIM_BENCH_QUICK", "1", 1);
  EXPECT_TRUE(bench_quick_mode());
  ::setenv("OWNSIM_BENCH_QUICK", "0", 1);
  EXPECT_FALSE(bench_quick_mode());
  ::unsetenv("OWNSIM_BENCH_QUICK");
}

TEST(BenchJson, WallTimerAdvances) {
  const WallTimer timer;
  double last = -1.0;
  for (int i = 0; i < 3; ++i) {
    const double now = timer.seconds();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GE(last, 0.0);
}

// ---- experiment result counters snapshot -----------------------------------

TEST(Obs, ExperimentResultSnapshotsCounters) {
  ExperimentConfig config;
  config.rate = 0.01;
  config.phases = RunPhases{100, 400, 4000};
  std::vector<std::pair<std::string, std::int64_t>> registry;
  RunHooks hooks;
  hooks.after_run = [&registry](Network& network, const ExperimentResult&) {
    network.obs().for_each([&registry](const std::string& name,
                                       std::int64_t value) {
      registry.emplace_back(name, value);
    });
  };
  const ExperimentResult result = run_experiment(config, hooks);
  EXPECT_EQ(result.counters, registry);
  const serve::Json json = serve::Json::parse(experiment_result_json(result));
  ASSERT_NE(json.find("counters"), nullptr);
  EXPECT_EQ(json.find("counters")->as_object().size(), registry.size());
#if OWNSIM_OBS_ENABLED
  ASSERT_GT(result.counters.size(), 0u);
  std::int64_t offered = 0;
  for (const auto& [name, value] : result.counters) {
    if (name == "injector.flits_offered") offered = value;
  }
  EXPECT_GT(offered, 0);
#endif
}

}  // namespace
}  // namespace ownsim
