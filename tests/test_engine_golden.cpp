// Engine output pinned to checked-in values: four randomized 40-site CDN
// scenarios (arrival intensity, deferral budget, cadence, cost-awareness,
// failures and policy drawn per scenario) must reproduce the counters and
// the exact doubles recorded in tests/data/engine_golden.txt. Any change to
// the epoch body that moves a placement, a draw or a floating-point fold
// shows up here as a diff against that file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "carbon/service.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "util/random.hpp"

namespace carbonedge {
namespace {

constexpr int kScenarios = 4;

core::SimulationConfig randomized_config(int round) {
  util::Rng rng = util::Rng(0x5EED5).fork(static_cast<std::uint64_t>(round));
  core::SimulationConfig config;
  config.epochs = 36;
  config.workload.arrivals_per_site = 1.0 + rng.uniform(0.0, 1.5);
  config.workload.mean_lifetime_epochs = 8.0 + rng.uniform(0.0, 8.0);
  config.workload.max_defer_epochs = static_cast<std::uint32_t>(rng.uniform_index(8));
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = rng();
  config.policy = rng.bernoulli(0.5) ? core::PolicyConfig::carbon_edge()
                                     : core::PolicyConfig::latency_aware();
  config.reoptimize_every = 6 + static_cast<std::uint32_t>(rng.uniform_index(6));
  config.migration.cost_aware = rng.bernoulli(0.5);
  config.failures.mtbf_epochs = rng.bernoulli(0.5) ? 150.0 : 0.0;
  config.failures.seed = rng();
  return config;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// One "name value" line per pinned quantity, in the golden file's format.
std::string render(int round, const core::SimulationResult& r) {
  std::ostringstream out;
  out << "scenario " << round << '\n'
      << "epochs " << r.telemetry.size() << '\n'
      << "apps_placed " << r.apps_placed << '\n'
      << "apps_rejected " << r.apps_rejected << '\n'
      << "apps_deferred " << r.apps_deferred << '\n'
      << "apps_expired_deferred " << r.apps_expired_deferred << '\n'
      << "apps_redeployed " << r.apps_redeployed << '\n'
      << "migrations " << r.migrations << '\n'
      << "migrations_skipped " << r.migrations_skipped << '\n'
      << "server_failures " << r.server_failures << '\n'
      << "app_downtime_epochs " << r.app_downtime_epochs << '\n'
      << "total_carbon_g " << hex(r.telemetry.total_carbon_g()) << '\n'
      << "total_energy_wh " << hex(r.telemetry.total_energy_wh()) << '\n'
      << "mean_rtt_ms " << hex(r.telemetry.mean_rtt_ms()) << '\n'
      << "response_p50_ms " << hex(r.telemetry.response_percentile(50.0)) << '\n'
      << "response_p99_ms " << hex(r.telemetry.response_percentile(99.0)) << '\n';
  return out.str();
}

// The golden file split into one block per scenario ("scenario N" starts a
// block; '#' lines are comments).
std::vector<std::string> golden_blocks() {
  std::ifstream in(std::string(CARBONEDGE_TEST_DATA_DIR) + "/engine_golden.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/engine_golden.txt";
  std::vector<std::string> blocks;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    if (line.rfind("scenario ", 0) == 0) blocks.emplace_back();
    if (blocks.empty()) continue;
    blocks.back() += line + '\n';
  }
  return blocks;
}

TEST(EngineGolden, RandomizedScenariosMatchCheckedInValues) {
  const std::vector<std::string> golden = golden_blocks();
  ASSERT_EQ(golden.size(), static_cast<std::size_t>(kScenarios));

  const geo::Region region = geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 2, sim::DeviceType::kA2), service);
  for (int round = 0; round < kScenarios; ++round) {
    const core::SimulationResult result = simulation.run(randomized_config(round));
    EXPECT_EQ(render(round, result), golden[static_cast<std::size_t>(round)])
        << "randomized scenario round " << round;
  }
}

}  // namespace
}  // namespace carbonedge
