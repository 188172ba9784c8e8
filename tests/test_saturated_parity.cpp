// Kernel byte identity at saturation, over every built-in topology.
//
// The other parity tests run moderate loads, where routers rarely stall.
// Here every topology is driven at 0.02 flits/node/cycle, far past
// saturation: routers hold flits blocked on credits, serialization slots
// and shared-medium lanes for hundreds of cycles, so the activity kernel
// puts them to sleep and relies on the sender-side wakes (DESIGN.md §5e).
// The lockstep and activity reports must be byte-identical. The test keeps
// its three-kernel name from when a third kernel existed. The 256-core
// cases are tier1; the 1024-core cases take seconds each and carry the
// `slow` label (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/simulate.hpp"
#include "topology/registry.hpp"

namespace ownsim {
namespace {

struct MatrixPoint {
  TopologyKind topology;
  int cores;
};

class SaturatedParity : public ::testing::TestWithParam<MatrixPoint> {};

std::string report(const MatrixPoint& point, KernelMode kernel) {
  ExperimentConfig config;
  config.topology = point.topology;
  config.options.num_cores = point.cores;
  config.rate = 0.02;
  config.phases.warmup = 300;
  config.phases.measure = 800;
  config.phases.drain_limit = 6000;
  config.kernel = kernel;
  return experiment_result_json(run_experiment(config));
}

TEST_P(SaturatedParity, ThreeKernelReportsAreByteIdentical) {
  const std::string lockstep = report(GetParam(), KernelMode::kLockstep);
  EXPECT_EQ(lockstep, report(GetParam(), KernelMode::kActivity));
}

std::string point_name(const ::testing::TestParamInfo<MatrixPoint>& info) {
  std::string name = to_string(info.param.topology);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + std::to_string(info.param.cores);
}

constexpr TopologyKind kBuiltIn[] = {TopologyKind::kOptXB, TopologyKind::kPClos,
                                     TopologyKind::kWirelessCMesh,
                                     TopologyKind::kCMesh, TopologyKind::kOwn};

std::vector<MatrixPoint> points(int cores) {
  std::vector<MatrixPoint> out;
  for (const TopologyKind kind : kBuiltIn) out.push_back({kind, cores});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Cores256, SaturatedParity,
                         ::testing::ValuesIn(points(256)), point_name);
INSTANTIATE_TEST_SUITE_P(Cores1024, SaturatedParity,
                         ::testing::ValuesIn(points(1024)), point_name);

}  // namespace
}  // namespace ownsim
