// Unit tests for the two-phase cycle engine: lockstep mechanics, the
// activity-driven kernel (idle retirement, wake ring, skip-ahead), and
// paired lockstep-vs-activity runs that pin down the bit-identity contract
// of DESIGN.md §5e on real networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
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
#include "traffic/trace.hpp"

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
  const std::int64_t skipped = engine.stats().cycles_skipped;
  engine.run(6);  // nothing is due before 8: one jump over 2..7
  EXPECT_EQ(engine.now(), 8);
  EXPECT_EQ(engine.stats().cycles_skipped - skipped, 6);
  EXPECT_EQ(s.evals, (std::vector<Cycle>{0}));
  engine.run(4);  // deadline 12: eval at 8, skip 9..11
  EXPECT_EQ(s.evals, (std::vector<Cycle>{0, 8}));
  EXPECT_EQ(engine.now(), 12);
  EXPECT_EQ(engine.stats().cycles_skipped - skipped, 9);
  EXPECT_EQ(engine.num_active(), 0u);
}

TEST(Engine, MidEvalSelfWakeLandsOnRequestedCycle) {
  // A component that re-arms itself from inside eval() (the injector
  // pattern): always-idle, so only its wakes keep it running.
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
// The scheduler's edges (sim/scheduler.hpp): wakes on either side of the
// wake ring's horizon, idle gaps across a ring wrap, duplicate wakes and
// commit-extra promotion. Each scenario runs under lockstep too, which
// evaluates everything every cycle and so gives the reference schedule.

/// Dormant between its due cycles. At a due cycle it logs the cycle and posts
/// the follow-up wakes planned for it, from inside its eval.
struct Timer final : Clocked {
  std::multimap<Cycle, Cycle> plan;  ///< due cycle -> follow-up wake
  std::set<Cycle> due;
  std::vector<Cycle> log;    ///< due cycles it ran at
  std::vector<Cycle> evals;  ///< every eval
  void wake_at(Cycle at) {
    due.insert(at);
    request_wake(at);
  }
  void eval(Cycle now) override {
    evals.push_back(now);
    if (due.erase(now) == 0) return;
    log.push_back(now);
    const auto [begin, end] = plan.equal_range(now);
    for (auto it = begin; it != end; ++it) wake_at(it->second);
  }
  void commit(Cycle) override {}
  bool is_idle() const override { return true; }
};

struct TimerRun {
  std::vector<Cycle> log;
  std::vector<Cycle> evals;
  Engine::Stats stats;
  Cycle now = 0;
};

template <typename Scenario>
TimerRun run_timer(KernelMode mode, const Scenario& scenario) {
  Engine engine;
  engine.set_mode(mode);
  Timer timer;
  engine.add(&timer);
  scenario(engine, timer);
  return {timer.log, timer.evals, engine.stats(), engine.now()};
}

/// Runs `scenario` under both kernels and returns the activity run after
/// checking it against lockstep: the same due cycles, and no eval besides
/// them and cycle 0 (every new component starts active).
template <typename Scenario>
TimerRun expect_lockstep_schedule(const Scenario& scenario) {
  const TimerRun lockstep = run_timer(KernelMode::kLockstep, scenario);
  const TimerRun activity = run_timer(KernelMode::kActivity, scenario);
  EXPECT_EQ(activity.log, lockstep.log);
  EXPECT_EQ(activity.now, lockstep.now);
  std::vector<Cycle> expected = activity.log;
  if (expected.empty() || expected.front() != 0) {
    expected.insert(expected.begin(), 0);
  }
  EXPECT_EQ(activity.evals, expected);
  return activity;
}

TEST(Scheduler, WakesAcrossTheRingHorizon) {
  // +63 lands in the ring; +64, +65 and +1000 go to the overflow heap. Once
  // posted between steps (from cycle 5), once from inside an eval (at 68).
  const TimerRun run = expect_lockstep_schedule([](Engine& engine, Timer& t) {
    engine.run(5);
    for (const Cycle ahead : {63, 64, 65, 1000}) {
      t.wake_at(5 + ahead);
      t.plan.emplace(68, 68 + ahead);
    }
    engine.run(2200);
  });
  EXPECT_EQ(run.log,
            (std::vector<Cycle>{68, 69, 70, 131, 132, 133, 1005, 1068}));
  EXPECT_EQ(run.stats.wakes, 8);
}

TEST(Scheduler, IdleGapSkipsAcrossARingWrap) {
  // The gap 111..139 crosses the wrap at cycle 128. Before it: 110 from the
  // ring (posted 50 ahead at 60) and 100 from the overflow heap (posted 99
  // ahead at 1); after it: 150 from the ring (posted 50 ahead at 100) and
  // 140 from the overflow heap (posted 139 ahead at 1).
  const TimerRun run = expect_lockstep_schedule([](Engine& engine, Timer& t) {
    engine.run(1);
    t.wake_at(60);
    t.wake_at(100);
    t.wake_at(140);
    t.plan = {{60, 110}, {100, 150}};
    engine.run(200);
  });
  EXPECT_EQ(run.log, (std::vector<Cycle>{60, 100, 110, 140, 150}));
  EXPECT_EQ(run.stats.cycles_stepped, 6);  // the five due cycles and 0
  EXPECT_EQ(run.stats.cycles_skipped, run.now - 6);
}

TEST(Scheduler, DuplicateWakesEvaluateOnce) {
  // Two wakes for one cycle, plus a wake for a component that is active
  // anyway: one eval each at cycle 9, and all three wakes are counted.
  struct Run {
    std::vector<Cycle> log, timer_evals, busy_evals;
    Engine::Stats stats;
  };
  const auto run = [](KernelMode mode) {
    Engine engine;
    engine.set_mode(mode);
    Timer timer;
    Sleeper busy;
    engine.add(&timer);
    engine.add(&busy);
    engine.run(5);
    timer.wake_at(9);
    timer.request_wake(9);
    busy.request_wake(9);
    engine.run(10);
    return Run{timer.log, timer.evals, busy.evals, engine.stats()};
  };
  const Run lockstep = run(KernelMode::kLockstep);
  const Run activity = run(KernelMode::kActivity);
  EXPECT_EQ(activity.log, (std::vector<Cycle>{9}));
  EXPECT_EQ(activity.log, lockstep.log);
  EXPECT_EQ(activity.timer_evals, (std::vector<Cycle>{0, 9}));
  EXPECT_EQ(activity.busy_evals, lockstep.busy_evals);  // once per cycle
  EXPECT_EQ(activity.stats.wakes, 3);
}

TEST(Scheduler, PromotedCommitExtraEvaluatesInIdOrder) {
  // Worker 0 stages a write into the dormant mailbox 1 at cycle 2; the
  // mailbox commits as an extra, turns non-idle and is promoted. At cycle 3
  // it must evaluate between workers 0 and 2, as lockstep does.
  using Log = std::vector<std::pair<Cycle, int>>;
  struct Mailbox final : Clocked {
    Log* log = nullptr;
    bool staged = false;
    bool latched = false;
    void stage() {
      staged = true;
      request_commit();
    }
    void eval(Cycle now) override {
      if (latched) log->emplace_back(now, 1);
      latched = false;
    }
    void commit(Cycle) override {
      latched = staged;
      staged = false;
    }
    bool is_idle() const override { return !latched && !staged; }
  };
  struct Worker final : Clocked {
    Log* log = nullptr;
    int name = 0;
    Mailbox* target = nullptr;
    void eval(Cycle now) override {
      log->emplace_back(now, name);
      if (target != nullptr && now == 2) target->stage();
    }
    void commit(Cycle) override {}
    bool is_idle() const override { return false; }
  };
  const auto run = [](KernelMode mode) {
    Log log;
    Engine engine;
    engine.set_mode(mode);
    Worker first;
    Mailbox mailbox;
    Worker last;
    first.log = mailbox.log = last.log = &log;
    first.target = &mailbox;
    last.name = 2;
    engine.add(&first);
    engine.add(&mailbox);
    engine.add(&last);
    engine.run(5);
    return log;
  };
  const Log activity = run(KernelMode::kActivity);
  EXPECT_EQ(activity, run(KernelMode::kLockstep));
  const Log cycle3{{3, 0}, {3, 1}, {3, 2}};
  EXPECT_NE(std::search(activity.begin(), activity.end(), cycle3.begin(),
                        cycle3.end()),
            activity.end());
}

TEST(Scheduler, RetireAsksIdlenessAfterEveryCommit) {
  // The reader (id 0) is busy while the writer (id 1) has latched a
  // message. Both run at cycle 3: the reader's eval sees nothing yet, then
  // the writer's commit latches. Only an idleness check after both commits
  // keeps the reader active to take the message at cycle 4, as lockstep does.
  struct Reader final : Clocked {
    bool* message = nullptr;
    std::vector<Cycle> taken;
    void eval(Cycle now) override {
      if (*message) taken.push_back(now);
      *message = false;
    }
    void commit(Cycle) override {}
    bool is_idle() const override { return !*message; }
  };
  struct Writer final : Clocked {
    bool* message = nullptr;
    bool staged = false;
    void eval(Cycle now) override { staged = now == 3; }
    void commit(Cycle) override {
      if (staged) *message = true;
    }
    bool is_idle() const override { return true; }
  };
  const auto run = [](KernelMode mode) {
    bool message = false;
    Engine engine;
    engine.set_mode(mode);
    Reader reader;
    Writer writer;
    reader.message = writer.message = &message;
    engine.add(&reader);
    engine.add(&writer);
    reader.request_wake(3);
    writer.request_wake(3);
    engine.run(8);
    return reader.taken;
  };
  EXPECT_EQ(run(KernelMode::kLockstep), (std::vector<Cycle>{4}));
  EXPECT_EQ(run(KernelMode::kActivity), (std::vector<Cycle>{4}));
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

/// OWN-256 replaying `trace` until drained under `mode`; the final cycle,
/// report JSON and every obs counter.
std::string bursty_replay_report(KernelMode mode, const Trace& trace) {
  TopologyOptions options;
  options.num_cores = 256;
  Network network(build_topology(TopologyKind::kOwn, options));
  network.engine().set_mode(mode);
  TraceInjector injector(&network, trace);
  injector.set_measure_window(0, kNeverCycle);
  network.engine().add(&injector);
  const bool drained = network.engine().run_until(
      [&] { return injector.finished() && network.drained(); }, 40000);
  EXPECT_TRUE(drained) << to_string(mode);
  std::ostringstream report;
  report << "cycle " << network.engine().now() << '\n'
         << NetworkReport(network).to_json().dump();
  network.obs().write_json(report);
  return report.str();
}

TEST(KernelParity, BurstyTraceReplay) {
  // Sparse on/off traffic: the injector's next record is often more than
  // the scheduler's 64-cycle ring horizon away, so its wakes take the
  // overflow heap, and the idle gaps between bursts skip across ring wraps.
  BurstyTraceParams params;
  params.num_nodes = 256;
  params.duration = 8000;
  params.on_rate = 0.0005;
  params.seed = 11;
  const Trace trace = generate_bursty_trace(params);
  Cycle longest_gap = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    longest_gap = std::max(longest_gap, trace.records()[i].cycle -
                                            trace.records()[i - 1].cycle);
  }
  ASSERT_GT(longest_gap, Scheduler::kHorizon);
  const std::string lockstep =
      bursty_replay_report(KernelMode::kLockstep, trace);
  EXPECT_EQ(lockstep, bursty_replay_report(KernelMode::kActivity, trace));
}

}  // namespace
}  // namespace ownsim
