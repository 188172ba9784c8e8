// Tests for the thermal/variation-driven adaptive link layer (DESIGN.md
// §5k): variation sampling determinism, the hysteresis governor, kernel
// bit-identity of the closed loop, live-BER accounting, OWN-256 wireless
// re-allocation, the adaptive-vs-static headline, and the canonical config
// round-trip of the adapt knobs.
#include <gtest/gtest.h>

#include <string>

#include "adapt/governor.hpp"
#include "adapt/variation.hpp"
#include "driver/experiment_config.hpp"
#include "driver/simulate.hpp"
#include "serve/json.hpp"

namespace ownsim {
namespace {

// ---------------------------------------------------------------------------
// Per-die variation sampling (adapt/variation.hpp).

TEST(Variation, DeterministicPerStream) {
  const adapt::VariationSample a =
      adapt::draw_variation(42, adapt::kStreamLinkBase + 3, 0.5, 1.0);
  const adapt::VariationSample b =
      adapt::draw_variation(42, adapt::kStreamLinkBase + 3, 0.5, 1.0);
  EXPECT_EQ(a.gain_offset_db, b.gain_offset_db);
  EXPECT_EQ(a.ring_detune_c, b.ring_detune_c);
  // A different stream (another entity on the same die) gets its own draw.
  const adapt::VariationSample c =
      adapt::draw_variation(42, adapt::kStreamLinkBase + 4, 0.5, 1.0);
  EXPECT_NE(a.gain_offset_db, c.gain_offset_db);
  // And a different die re-rolls the same entity.
  const adapt::VariationSample d =
      adapt::draw_variation(43, adapt::kStreamLinkBase + 3, 0.5, 1.0);
  EXPECT_NE(a.gain_offset_db, d.gain_offset_db);
}

TEST(Variation, SigmaScalesTheSpread) {
  const adapt::VariationSample zero =
      adapt::draw_variation(7, adapt::kStreamMediumBase, 0.0, 0.0);
  EXPECT_EQ(zero.gain_offset_db, 0.0);
  EXPECT_EQ(zero.ring_detune_c, 0.0);
  const adapt::VariationSample one =
      adapt::draw_variation(7, adapt::kStreamMediumBase, 1.0, 1.0);
  const adapt::VariationSample two =
      adapt::draw_variation(7, adapt::kStreamMediumBase, 2.0, 2.0);
  EXPECT_NEAR(two.gain_offset_db, 2.0 * one.gain_offset_db, 1e-12);
  EXPECT_NEAR(two.ring_detune_c, 2.0 * one.ring_detune_c, 1e-12);
  // Irwin-Hall is bounded: 12 uniforms minus 6 stays within +/- 6 sigma.
  EXPECT_LE(std::abs(one.gain_offset_db), 6.0);
}

// ---------------------------------------------------------------------------
// Hysteresis governor (adapt/governor.hpp).

adapt::Governor::Params governor_params() {
  adapt::Governor::Params p;
  p.enter_db = 1.0;
  p.exit_db = 2.0;
  p.gain_db = 3.0;
  p.max_level = 2;
  p.sustain = 2;
  return p;
}

TEST(Governor, EntersAfterSustainedLowMargin) {
  adapt::Governor governor(governor_params());
  // First low refresh only builds the streak; the second transitions.
  EXPECT_FALSE(governor.observe(0.0));
  EXPECT_EQ(governor.level(), 0);
  EXPECT_TRUE(governor.observe(0.0));
  EXPECT_EQ(governor.level(), 1);
  // With one level of gain the effective margin (0 + 3) clears the band:
  // no further escalation.
  EXPECT_FALSE(governor.observe(0.0));
  EXPECT_FALSE(governor.observe(0.0));
  EXPECT_EQ(governor.level(), 1);
}

TEST(Governor, SaturatesAtMaxLevel) {
  adapt::Governor governor(governor_params());
  for (int i = 0; i < 10; ++i) governor.observe(-10.0);
  EXPECT_EQ(governor.level(), 2);
  EXPECT_NEAR(governor.effective_db(-10.0), -4.0, 1e-12);
}

TEST(Governor, ReleaseNeedsTheExitBand) {
  adapt::Governor governor(governor_params());
  ASSERT_FALSE(governor.observe(-3.0));
  ASSERT_TRUE(governor.observe(-3.0));   // level 1, effective 0... still low
  ASSERT_FALSE(governor.observe(-3.0));  // transitions reset the streak
  ASSERT_TRUE(governor.observe(-3.0));   // second sustained vote: level 2
  ASSERT_EQ(governor.level(), 2);
  // Raw -1.5 at level 2: effective 4.5 is healthy, but stepping down would
  // leave 1.5 < exit (2.0) — the governor must hold, forever, not flap.
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(governor.observe(-1.5));
  EXPECT_EQ(governor.level(), 2);
  // A real recovery (post-release margin 3 + 2 > exit) releases after the
  // sustain streak...
  EXPECT_FALSE(governor.observe(2.0));
  EXPECT_TRUE(governor.observe(2.0));
  EXPECT_EQ(governor.level(), 1);
  // ...and any dissenting refresh resets the streak. (2.0 is NOT above the
  // exit band once the remaining level's gain is gone — it takes 2.5 raw to
  // vote for the last release.)
  EXPECT_FALSE(governor.observe(2.5));
  EXPECT_FALSE(governor.observe(-1.5));  // dissent: streak back to zero
  EXPECT_FALSE(governor.observe(2.5));
  EXPECT_TRUE(governor.observe(2.5));
  EXPECT_EQ(governor.level(), 0);
}

// ---------------------------------------------------------------------------
// The closed loop end to end (driver/simulate.hpp).

/// OWN-256 experiment with the loop armed at a fast-converging operating
/// point: refresh well inside the warmup, no smoothing memory, single-vote
/// hysteresis.
ExperimentConfig adapt_experiment() {
  ExperimentConfig config;
  config.options.num_cores = 256;
  config.rate = 0.004;
  config.phases.warmup = 300;
  config.phases.measure = 1200;
  config.phases.drain_limit = 20000;
  config.adapt.enabled = true;
  config.adapt.refresh = 100;
  config.adapt.sustain = 1;
  config.adapt.thermal_alpha = 1.0;
  return config;
}

TEST(AdaptRun, DisabledKnobsAreInert) {
  // adapt=0 must be byte-identical to today no matter how the other knobs
  // are scrambled: the controller is never built, the result JSON carries
  // no adapt block and no adapt.* counters.
  ExperimentConfig plain;
  plain.options.num_cores = 256;
  plain.rate = 0.004;
  plain.phases = adapt_experiment().phases;

  ExperimentConfig scrambled = plain;
  scrambled.adapt = adapt_experiment().adapt;
  scrambled.adapt.enabled = false;
  scrambled.adapt.base_margin = Decibels{-8.0};
  scrambled.adapt.temp_coeff_db_per_c = 5.0;

  const std::string a = experiment_result_json(run_experiment(plain));
  const std::string b = experiment_result_json(run_experiment(scrambled));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"adapt\""), std::string::npos);
  EXPECT_EQ(a.find("adapt."), std::string::npos);
}

TEST(AdaptRun, KernelsBitIdentical) {
  // The full loop — live BER, backoff, re-allocation — must produce the
  // same bytes in every kernel for any thread/partition count (§5k): the
  // controller registers last and mutates only between cycles.
  ExperimentConfig config = adapt_experiment();
  config.pattern = PatternKind::kHotspot;
  config.rate = 0.002;
  config.phases.warmup = 400;
  config.phases.measure = 1600;
  config.adapt.refresh = 200;
  config.adapt.temp_coeff_db_per_c = 1.0;  // hot-spot heating moves margins
  config.adapt.max_backoff = 2;

  config.kernel = KernelMode::kActivity;
  const std::string activity = experiment_result_json(run_experiment(config));
  config.kernel = KernelMode::kLockstep;
  const std::string lockstep = experiment_result_json(run_experiment(config));
  EXPECT_EQ(activity, lockstep);

  config.kernel = KernelMode::kParallel;
  config.threads = 2;
  config.partitions = 7;
  EXPECT_EQ(activity, experiment_result_json(run_experiment(config)));
  config.threads = 4;
  config.partitions = 0;  // topology's own partition hint
  EXPECT_EQ(activity, experiment_result_json(run_experiment(config)));
}

TEST(AdaptRun, LiveBerFeedsTheReliabilityPath) {
  // A degraded die (base margin on the steep side of the BER knee) must
  // corrupt flits through the live-BER path even with reactions off, and an
  // adapt-only run (no campaign) must fold those counters into the result.
  ExperimentConfig config = adapt_experiment();
  config.adapt.react = false;
  config.adapt.base_margin = Decibels{-8.0};
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.run.drained);
  EXPECT_GT(result.fault.crc_errors, 0);
  // Nearly every corruption NACKs a relaunch; the exceptions are the rare
  // flits whose max_attempts-th copy is the corrupted one (forced through),
  // so retransmissions tracks crc_errors without strictly dominating it.
  EXPECT_GT(result.fault.retransmissions, result.fault.crc_errors / 2);
  EXPECT_GT(result.adapt.refreshes, 0);
  EXPECT_EQ(result.adapt.backoffs, 0);  // react=0: nothing adapts
  EXPECT_LT(result.adapt.min_margin_db, -7.0);

  // The result JSON gains the adapt block (and only then).
  const std::string json = experiment_result_json(result);
  EXPECT_NE(json.find("\"adapt\":{\"backoffs\":"), std::string::npos);
}

TEST(AdaptRun, SameConfigIsBitIdentical) {
  ExperimentConfig config = adapt_experiment();
  config.adapt.base_margin = Decibels{-6.0};  // measurable BER, active loop
  const std::string a = experiment_result_json(run_experiment(config));
  const std::string b = experiment_result_json(run_experiment(config));
  EXPECT_EQ(a, b);
}

TEST(AdaptRun, HotspotTriggersReallocation) {
  // Strong thermal coupling under hot-spot traffic collapses the margins of
  // the channels into the hot cluster past the deepest backoff: the
  // controller must route those cluster pairs around on the degraded paths.
  ExperimentConfig config = adapt_experiment();
  config.pattern = PatternKind::kHotspot;
  config.rate = 0.002;
  config.phases.warmup = 400;
  config.phases.measure = 1600;
  config.adapt.refresh = 200;
  config.adapt.temp_coeff_db_per_c = 1.0;
  config.adapt.max_backoff = 2;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.adapt.reallocations, 0);
  EXPECT_GT(result.adapt.backoffs, 0);
  EXPECT_GT(result.adapt.peak_temp_c, 0.0);
  EXPECT_GT(result.adapt.refreshes, 0);
}

TEST(AdaptRun, AdaptiveBeatsStaticOnStressedHotspot) {
  // The acceptance headline (also asserted by bench_adapt at full phases):
  // on OWN-1024 with end-of-life transceivers under hot-spot heating, rate
  // backoff must deliver more accepted throughput than the static links,
  // which sit in retry storms on the hot media.
  ExperimentConfig config;
  config.options.num_cores = 1024;
  config.pattern = PatternKind::kHotspot;
  config.rate = 0.0015;
  config.phases.warmup = 400;
  config.phases.measure = 1200;
  config.phases.drain_limit = 8000;
  config.adapt.enabled = true;
  config.adapt.refresh = 200;
  config.adapt.sustain = 1;
  config.adapt.thermal_alpha = 1.0;
  config.adapt.base_margin = Decibels{-8.0};
  config.adapt.backoff_enter_db = -4.0;
  config.adapt.backoff_exit_db = -2.0;
  config.adapt.max_backoff = 3;

  config.adapt.react = false;
  const ExperimentResult static_links = run_experiment(config);
  config.adapt.react = true;
  const ExperimentResult adaptive = run_experiment(config);

  EXPECT_GT(adaptive.run.throughput, static_links.run.throughput);
  EXPECT_GT(adaptive.adapt.backoffs, 0);
  // Backoff buys margin: the adaptive run's worst margin sits above the
  // static one's.
  EXPECT_GT(adaptive.adapt.min_margin_db, static_links.adapt.min_margin_db);
}

// ---------------------------------------------------------------------------
// Canonical config JSON (driver/experiment_config.hpp).

TEST(AdaptConfigJson, CanonicalRoundTrip) {
  ExperimentConfig config;
  config.adapt.enabled = true;
  config.adapt.react = false;
  config.adapt.refresh = 250;
  config.adapt.variation_seed = 9;
  config.adapt.variation_sigma_db = 0.75;
  config.adapt.ring_sigma_c = 2.0;
  config.adapt.snr_required = Decibels{16.5};
  config.adapt.base_margin = Decibels{-8.0};
  config.adapt.temp_coeff_db_per_c = 0.25;
  config.adapt.thermal_alpha = 1.0;
  config.adapt.thermal_iterations = 200;
  config.adapt.backoff_enter_db = -4.0;
  config.adapt.backoff_exit_db = -2.0;
  config.adapt.backoff_gain_db = 2.5;
  config.adapt.max_backoff = 3;
  config.adapt.sustain = 1;
  config.adapt.realloc_enter_db = -1.0;
  config.adapt.realloc_exit_db = 0.5;
  config.adapt.trim_uw_per_c = 75.0;

  const std::string canonical = canonical_config_json(config);
  EXPECT_NE(canonical.find("\"adapt.enabled\":true"), std::string::npos);
  EXPECT_NE(canonical.find("\"adapt.base_margin_db\":-8"), std::string::npos);
  EXPECT_NE(canonical.find("\"adapt.max_backoff\":3"), std::string::npos);
  EXPECT_NE(canonical.find("\"adapt.react\":false"), std::string::npos);
  EXPECT_EQ(serve::Json::parse(canonical).dump(), canonical);

  // Different adapt knobs are different experiments.
  ExperimentConfig other = config;
  other.adapt.max_backoff = 2;
  EXPECT_NE(canonical_config_json(other), canonical);
}

}  // namespace
}  // namespace ownsim
