// Unit tests for src/common: RNG, statistics, ring buffer, config, units.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "common/config.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace ownsim {
namespace {

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42, 1);
  Rng b(42, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsAreDecorrelated) {
  Rng a(42, 0);
  Rng b(42, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(9);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(3, 6));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(3) == 1 && seen.count(6) == 1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---- RunningStat ------------------------------------------------------------

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

// ---- Histogram --------------------------------------------------------------

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(9.999);
  h.add(10.0);
  h.add(5.5);
  EXPECT_EQ(h.total(), 5);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.counts()[0], 1);
  EXPECT_EQ(h.counts()[9], 1);
  EXPECT_EQ(h.counts()[5], 1);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// ---- RingBuffer -------------------------------------------------------------

TEST(RingBuffer, FifoOrderWithWraparound) {
  RingBuffer<int> rb(4);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) rb.push(round * 10 + i);
    EXPECT_TRUE(rb.full());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rb.pop(), round * 10 + i);
    EXPECT_TRUE(rb.empty());
  }
}

TEST(RingBuffer, AtIndexesFromFront) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.pop();
  rb.push(3);
  rb.push(4);  // wraps
  EXPECT_EQ(rb.at(0), 2);
  EXPECT_EQ(rb.at(1), 3);
  EXPECT_EQ(rb.at(2), 4);
  EXPECT_EQ(rb.free_slots(), 0u);
}

// ---- Config -----------------------------------------------------------------

TEST(Config, ParsesStringForms) {
  const Config c = Config::from_string("a=1, b = 2.5; name=own  flag=true");
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_DOUBLE_EQ(c.get_double("b", 0), 2.5);
  EXPECT_EQ(c.get_string("name", ""), "own");
  EXPECT_TRUE(c.get_bool("flag", false));
}

TEST(Config, FallbacksAndRequired) {
  const Config c = Config::from_string("x=3");
  EXPECT_EQ(c.get_int("missing", 42), 42);
  EXPECT_THROW(c.require_int("missing"), std::runtime_error);
  EXPECT_EQ(c.require_int("x"), 3);
}

TEST(Config, MalformedValuesThrow) {
  const Config c = Config::from_string("x=abc y=1.2.3 z=maybe");
  EXPECT_THROW(c.get_int("x", 0), std::runtime_error);
  EXPECT_THROW(c.get_double("y", 0), std::runtime_error);
  EXPECT_THROW(c.get_bool("z", false), std::runtime_error);
}

TEST(Config, MergeOverwrites) {
  Config a = Config::from_string("x=1 y=2");
  a.merge(Config::from_string("y=3 z=4"));
  EXPECT_EQ(a.get_int("y", 0), 3);
  EXPECT_EQ(a.get_int("z", 0), 4);
  EXPECT_EQ(a.get_int("x", 0), 1);
  EXPECT_EQ(a.keys(), (std::vector<std::string>{"x", "y", "z"}));
}

// ---- units ------------------------------------------------------------------

TEST(Units, DbmRoundTrip) {
  using namespace units;
  EXPECT_NEAR(watts_to_dbm(1e-3), 0.0, 1e-12);
  EXPECT_NEAR(watts_to_dbm(dbm_to_watts(7.0)), 7.0, 1e-9);
  EXPECT_NEAR(db_to_ratio(3.0103), 2.0, 1e-3);
}

TEST(Units, WavelengthAt90GHz) {
  EXPECT_NEAR(units::wavelength_m(90e9) * 1000.0, 3.33, 0.01);  // ~3.33 mm
}

}  // namespace
}  // namespace ownsim
