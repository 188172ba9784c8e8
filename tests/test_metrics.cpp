// Tests for the metrics layer: table rendering, load sweeps and the
// post-run utilization report.
#include <gtest/gtest.h>

#include <sstream>

#include "helpers.hpp"
#include "metrics/report.hpp"
#include "metrics/sweep.hpp"
#include "metrics/table_io.hpp"
#include "topology/registry.hpp"

namespace ownsim {
namespace {

// ---- Table -------------------------------------------------------------------

TEST(TableIo, AlignsColumns) {
  Table table({"a", "long_header"});
  table.add_row({"xxxxxx", "1"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a       long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxx  1"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableIo, RejectsBadRows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableIo, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// ---- sweep -------------------------------------------------------------------

TEST(Sweep, FindsRingSaturation) {
  NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(8));
  };
  SweepOptions options;
  options.rates = {0.02, 0.05, 0.1, 0.2, 0.4, 0.8};
  options.phases.warmup = 500;
  options.phases.measure = 2000;
  options.phases.drain_limit = 20000;
  const SweepResult sweep = latency_sweep(factory, options);
  EXPECT_GT(sweep.zero_load_latency, 5.0);
  EXPECT_GT(sweep.saturation_rate, 0.0);
  EXPECT_LT(sweep.saturation_rate, 0.8);
  ASSERT_GE(sweep.points.size(), 2u);
  // Latency grows monotonically with load until saturation.
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    if (!sweep.points[i].result.drained) break;
    EXPECT_GE(sweep.points[i].result.avg_latency,
              sweep.points[i - 1].result.avg_latency * 0.95);
  }
}

TEST(Sweep, StopsAfterSaturationWhenAsked) {
  NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(6));
  };
  SweepOptions options;
  options.rates = {0.05, 0.9, 0.95, 1.0};  // 0.9 certainly saturates
  options.phases.warmup = 300;
  options.phases.measure = 1000;
  options.phases.drain_limit = 5000;
  options.stop_after_saturation = true;
  const SweepResult sweep = latency_sweep(factory, options);
  EXPECT_LT(sweep.points.size(), 4u);
}

TEST(Sweep, RejectsEmptyRates) {
  NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(4));
  };
  EXPECT_THROW(latency_sweep(factory, SweepOptions{}), std::invalid_argument);
}

// ---- NetworkReport -----------------------------------------------------------

class ReportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TopologyOptions options;
    options.num_cores = 256;
    network_ = std::make_unique<Network>(
        build_topology(TopologyKind::kOwn, options));
    pattern_ = std::make_unique<TrafficPattern>(PatternKind::kUniform, 256);
    Injector::Params params;
    params.rate = 0.004;
    injector_ = std::make_unique<Injector>(network_.get(), *pattern_, params);
    network_->engine().add(injector_.get());
    network_->engine().run(4000);
  }
  std::unique_ptr<Network> network_;
  std::unique_ptr<TrafficPattern> pattern_;
  std::unique_ptr<Injector> injector_;
};

TEST_F(ReportFixture, UtilizationInUnitRange) {
  const NetworkReport report(*network_);
  ASSERT_FALSE(report.channels().empty());
  for (const auto& channel : report.channels()) {
    EXPECT_GE(channel.utilization, 0.0) << channel.name;
    EXPECT_LE(channel.utilization, 1.0 + 1e-9) << channel.name;
  }
}

TEST_F(ReportFixture, WirelessBusierThanPhotonicPerChannel) {
  // 12 wireless channels carry 3/4 of the traffic; 64 waveguides carry the
  // rest plus the funnel hops — per-channel wireless utilization dominates.
  const NetworkReport report(*network_);
  EXPECT_GT(report.mean_utilization(MediumType::kWireless),
            report.mean_utilization(MediumType::kPhotonic));
  EXPECT_GT(report.max_utilization(MediumType::kWireless), 0.2);
}

TEST_F(ReportFixture, HottestRouterIsAGateway) {
  const NetworkReport report(*network_);
  const RouterActivity& hot = report.hottest_router();
  const int tile = hot.id % 16;
  EXPECT_TRUE(tile == 0 || tile == 3 || tile == 12) << "tile " << tile;
}

TEST_F(ReportFixture, CsvAndJsonWellFormed) {
  const NetworkReport report(*network_);
  std::ostringstream csv;
  report.write_channels_csv(csv);
  EXPECT_NE(csv.str().find("name,medium"), std::string::npos);
  // One header + one line per channel.
  const std::string text = csv.str();
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(lines, 1 + static_cast<long>(report.channels().size()));

  const serve::Json json = serve::Json::parse(report.to_json().dump());
  ASSERT_NE(json.find("channels"), nullptr);
  ASSERT_NE(json.find("routers"), nullptr);
  EXPECT_EQ(json.find("channels")->as_array().size(), report.channels().size());
  EXPECT_EQ(json.find("routers")->as_array().size(), report.routers().size());
  EXPECT_EQ(json.find("counters"), nullptr);
  // Full precision: every double survives the dump exactly.
  const serve::Json& first = json.find("channels")->as_array().front();
  EXPECT_EQ(first.find("utilization")->as_double(),
            report.channels().front().utilization);
}

TEST(Report, RequiresSimulatedNetwork) {
  Network net(testing::ring_spec(4));
  EXPECT_THROW(NetworkReport{net}, std::logic_error);
}

}  // namespace
}  // namespace ownsim
