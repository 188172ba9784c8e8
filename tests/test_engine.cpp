// Unit tests for the two-phase cycle engine: lockstep mechanics, the
// activity-driven kernel (idle retirement, wake wheel, skip-ahead), and
// paired lockstep-vs-activity runs that pin down the bit-identity contract
// of DESIGN.md §5e on real networks.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/simulate.hpp"
#include "metrics/report.hpp"
#include "metrics/runner.hpp"
#include "network/network.hpp"
#include "sim/engine.hpp"
#include "topology/own_fault.hpp"
#include "topology/registry.hpp"
#include "traffic/injector.hpp"
#include "traffic/patterns.hpp"

namespace ownsim {
namespace {

class Probe final : public Clocked {
 public:
  void eval(Cycle now) override { evals.push_back(now); }
  void commit(Cycle now) override { commits.push_back(now); }
  std::vector<Cycle> evals;
  std::vector<Cycle> commits;
};

TEST(Engine, StepAdvancesTime) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  Probe p;
  engine.add(&p);
  engine.run(3);
  EXPECT_EQ(engine.now(), 3);
  EXPECT_EQ(p.evals, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(p.commits, (std::vector<Cycle>{0, 1, 2}));
}

TEST(Engine, EvalBeforeCommitAcrossComponents) {
  // Every eval of the cycle happens before any commit of that cycle.
  Engine engine;
  struct Recorder final : Clocked {
    explicit Recorder(std::vector<int>* log, int id) : log_(log), id_(id) {}
    void eval(Cycle) override { log_->push_back(id_); }
    void commit(Cycle) override { log_->push_back(-id_); }
    std::vector<int>* log_;
    int id_;
  };
  std::vector<int> log;
  Recorder a(&log, 1), b(&log, 2);
  engine.add(&a);
  engine.add(&b);
  engine.step();
  EXPECT_EQ(log, (std::vector<int>{1, 2, -1, -2}));
}

TEST(Engine, RunUntilStopsAtPredicate) {
  Engine engine;
  Probe p;
  engine.add(&p);
  const bool done =
      engine.run_until([&] { return engine.now() >= 5; }, 100);
  EXPECT_TRUE(done);
  EXPECT_EQ(engine.now(), 5);
}

TEST(Engine, RunUntilHonorsBudget) {
  Engine engine;
  const bool done = engine.run_until([] { return false; }, 17);
  EXPECT_FALSE(done);
  EXPECT_EQ(engine.now(), 17);
}

TEST(Engine, RejectsNullComponent) {
  Engine engine;
  EXPECT_THROW(engine.add(nullptr), std::invalid_argument);
}

TEST(Engine, SetModeOnlyBeforeFirstCycle) {
  Engine engine;
  engine.set_mode(KernelMode::kLockstep);
  engine.set_mode(KernelMode::kActivity);
  Probe p;
  engine.add(&p);
  engine.step();
  EXPECT_THROW(engine.set_mode(KernelMode::kLockstep), std::logic_error);
}

/// Idleness is togglable from the outside; evals are recorded.
struct Sleeper final : Clocked {
  bool idle = false;
  std::vector<Cycle> evals;
  void eval(Cycle now) override { evals.push_back(now); }
  void commit(Cycle) override {}
  bool is_idle() const override { return idle; }
};

TEST(Engine, IdleComponentRetiresAndGapIsSkipped) {
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  Sleeper s;
  engine.add(&s);
  engine.run(2);
  EXPECT_EQ(s.evals, (std::vector<Cycle>{0, 1}));
  EXPECT_EQ(engine.num_active(), 1u);

  // One more eval (cycle 2) observes the idleness, then the component
  // retires and the remaining budget is fast-forwarded in one jump.
  s.idle = true;
  engine.run(4);
  EXPECT_EQ(s.evals, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(engine.num_active(), 0u);
  EXPECT_EQ(engine.now(), 6);
  EXPECT_GE(engine.stats().cycles_skipped, 3);
}

TEST(Engine, WakeReactivatesDormantComponent) {
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  Sleeper s;
  s.idle = true;
  engine.add(&s);
  engine.run(2);  // eval once at 0, then dormant
  EXPECT_EQ(s.evals, (std::vector<Cycle>{0}));

  s.request_wake(8);
  EXPECT_EQ(engine.next_wake(), 8);
  engine.run(10);  // deadline 12: skip 2..7, eval at 8, skip 9..11
  EXPECT_EQ(s.evals, (std::vector<Cycle>{0, 8}));
  EXPECT_EQ(engine.now(), 12);
  EXPECT_EQ(engine.num_active(), 0u);
}

TEST(Engine, MidEvalSelfWakeLandsOnRequestedCycle) {
  // A component that re-arms itself from inside eval() (the injector
  // pattern): always-idle, so only the wheel keeps it running.
  struct SelfWaker final : Clocked {
    int remaining = 3;
    std::vector<Cycle> evals;
    void eval(Cycle now) override {
      evals.push_back(now);
      if (--remaining > 0) request_wake(now + 5);
    }
    void commit(Cycle) override {}
    bool is_idle() const override { return true; }
  };
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  SelfWaker w;
  engine.add(&w);
  engine.run(20);
  EXPECT_EQ(w.evals, (std::vector<Cycle>{0, 5, 10}));
  EXPECT_EQ(engine.now(), 20);
  EXPECT_GT(engine.stats().cycles_skipped, 0);
  EXPECT_EQ(engine.stats().evals, 3);
}

TEST(Engine, StepNeverSkipsCycles) {
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  Sleeper s;
  s.idle = true;
  engine.add(&s);
  for (int i = 0; i < 5; ++i) engine.step();
  EXPECT_EQ(engine.now(), 5);
  EXPECT_EQ(engine.stats().cycles_skipped, 0);
}

// ---------------------------------------------------------------------------
// Paired lockstep-vs-activity runs on real networks (bit-identity contract).

/// Runs one OWN-256 load point under `mode` with tier1-sized phases.
RunResult own256_point(KernelMode mode, PatternKind pattern_kind, double rate,
                       Engine::Stats* stats_out = nullptr,
                       const NetworkSpec* spec_override = nullptr) {
  TopologyOptions options;
  options.num_cores = 256;
  Network network(spec_override != nullptr
                      ? *spec_override
                      : build_topology(TopologyKind::kOwn, options));
  network.engine().set_mode(mode);
  TrafficPattern pattern(pattern_kind, 256);
  Injector::Params params;
  params.rate = rate;
  Injector injector(&network, pattern, params);
  network.engine().add(&injector);
  RunPhases phases;
  phases.warmup = 300;
  phases.measure = 600;
  phases.drain_limit = 8000;
  const RunResult result = run_load_point(network, injector, phases);
  if (stats_out != nullptr) *stats_out = network.engine().stats();
  return result;
}

TEST(KernelParity, Own256Uniform) {
  const RunResult lockstep =
      own256_point(KernelMode::kLockstep, PatternKind::kUniform, 0.004);
  const RunResult activity =
      own256_point(KernelMode::kActivity, PatternKind::kUniform, 0.004);
  EXPECT_TRUE(lockstep.drained);
  EXPECT_TRUE(deterministic_eq(lockstep, activity));
}

TEST(KernelParity, Own256BitReversal) {
  const RunResult lockstep =
      own256_point(KernelMode::kLockstep, PatternKind::kBitReversal, 0.004);
  const RunResult activity =
      own256_point(KernelMode::kActivity, PatternKind::kBitReversal, 0.004);
  EXPECT_TRUE(lockstep.drained);
  EXPECT_TRUE(deterministic_eq(lockstep, activity));
}

TEST(KernelParity, Own256Faulted) {
  // A failed wireless channel reroutes traffic through transit clusters;
  // the kernels must still agree flit for flit.
  TopologyOptions options;
  options.num_cores = 256;
  options.num_vcs = 5;
  FaultSet faults;
  faults.fail(0, 2);
  const NetworkSpec spec = build_own256_faulted(options, faults);
  const RunResult lockstep = own256_point(KernelMode::kLockstep,
                                          PatternKind::kUniform, 0.004,
                                          nullptr, &spec);
  const RunResult activity = own256_point(KernelMode::kActivity,
                                          PatternKind::kUniform, 0.004,
                                          nullptr, &spec);
  EXPECT_TRUE(lockstep.drained);
  EXPECT_TRUE(deterministic_eq(lockstep, activity));
}

/// One OWN-256 load point with a runtime fault campaign under `mode`; the
/// report JSON doubles as a byte-exact digest of every counter.
struct FaultPoint {
  RunResult run;
  fault::Totals totals;
  std::string report_json;
};

FaultPoint own256_fault_point(KernelMode mode,
                              const fault::CampaignConfig& fault) {
  ExperimentConfig config;
  config.options.num_cores = 256;
  config.rate = 0.004;
  config.phases.warmup = 300;
  config.phases.measure = 800;
  config.phases.drain_limit = 15000;
  config.fault = fault;
  config.fault.enabled = true;
  Network network(build_experiment_spec(config));
  network.engine().set_mode(mode);
  TrafficPattern pattern(PatternKind::kUniform, 256);
  Injector::Params params;
  params.rate = config.rate;
  Injector injector(&network, pattern, params);
  network.engine().add(&injector);
  auto campaign = make_campaign(network, config);
  campaign->attach();
  FaultPoint point;
  point.run = run_load_point(network, injector, config.phases);
  point.totals = campaign->totals();
  std::ostringstream counters;
  network.obs().write_json(counters);
  point.report_json = NetworkReport(network).to_json().dump() + counters.str();
  return point;
}

TEST(KernelParity, Own256TransientCorruption) {
  // Mid-run NACK + retransmission perturbs arrival times out of FIFO order;
  // the kernels must agree byte for byte, counters included.
  fault::CampaignConfig fault;
  fault.margin = Decibels{-8.0};
  const FaultPoint lockstep =
      own256_fault_point(KernelMode::kLockstep, fault);
  const FaultPoint activity =
      own256_fault_point(KernelMode::kActivity, fault);
  EXPECT_TRUE(lockstep.run.drained);
  EXPECT_GT(lockstep.totals.crc_errors, 0);
  EXPECT_TRUE(deterministic_eq(lockstep.run, activity.run));
  EXPECT_EQ(lockstep.report_json, activity.report_json);
}

TEST(KernelParity, Own256MidRunDeath) {
  // A channel killed mid-run plus the detector's online route patch must
  // leave both kernels on the same trajectory.
  fault::CampaignConfig fault;
  fault.ber = 0.0;
  fault::Event kill;
  kill.kind = fault::EventKind::kKill;
  kill.at = 500;
  kill.src_cluster = 0;
  kill.dst_cluster = 2;
  fault.events.push_back(kill);
  const FaultPoint lockstep =
      own256_fault_point(KernelMode::kLockstep, fault);
  const FaultPoint activity =
      own256_fault_point(KernelMode::kActivity, fault);
  EXPECT_TRUE(lockstep.run.drained);
  EXPECT_EQ(lockstep.totals.flows_degraded, 256);
  EXPECT_EQ(activity.totals.flows_degraded, 256);
  EXPECT_TRUE(deterministic_eq(lockstep.run, activity.run));
  EXPECT_EQ(lockstep.report_json, activity.report_json);
}

TEST(KernelParity, DrainPhaseSkipsAhead) {
  // At a very low load the network is empty most cycles; the activity run
  // must actually exercise the skip-ahead path while staying bit-identical.
  Engine::Stats stats;
  const RunResult lockstep =
      own256_point(KernelMode::kLockstep, PatternKind::kUniform, 0.0005);
  const RunResult activity = own256_point(KernelMode::kActivity,
                                          PatternKind::kUniform, 0.0005,
                                          &stats);
  EXPECT_TRUE(lockstep.drained);
  EXPECT_TRUE(activity.drained);
  EXPECT_TRUE(deterministic_eq(lockstep, activity));
  EXPECT_GT(stats.cycles_skipped, 0);
  EXPECT_LT(stats.cycles_stepped, activity.cycles_simulated);
}

}  // namespace
}  // namespace ownsim
