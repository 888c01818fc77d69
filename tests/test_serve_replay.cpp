// The serving mode's differential oracle: an epoch-aligned replay of a
// synthesized workload through serve::EventLoop must reproduce
// EdgeSimulation::run bit for bit — same placements, same counters, same
// floating-point totals — because both drivers run the one extracted
// core::SimulationEngine epoch body. Any drift between the streaming and
// batch paths is a bug in one of them.
#include "serve/event_loop.hpp"

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace carbonedge::serve {
namespace {

core::SimulationConfig replay_config(std::uint32_t epochs, std::uint64_t seed) {
  // Every engine feature the epoch body shards: deferral, fixed-cadence
  // cost-aware re-optimization, and failure injection.
  core::SimulationConfig config;
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = epochs;
  config.workload.arrivals_per_site = 1.0;
  config.workload.mean_lifetime_epochs = 12.0;
  config.workload.max_defer_epochs = 6;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = seed;
  config.reoptimize_every = 16;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 120.0;
  return config;
}

// EXPECT_EQ on doubles deliberately: the oracle demands bitwise equality,
// not tolerance — both paths must execute the identical arithmetic.
void expect_identical(const core::SimulationResult& batch,
                      const core::SimulationResult& replay) {
  EXPECT_EQ(batch.apps_placed, replay.apps_placed);
  EXPECT_EQ(batch.apps_rejected, replay.apps_rejected);
  EXPECT_EQ(batch.migrations, replay.migrations);
  EXPECT_EQ(batch.migrations_skipped, replay.migrations_skipped);
  EXPECT_EQ(batch.migration_energy_wh, replay.migration_energy_wh);
  EXPECT_EQ(batch.migration_carbon_g, replay.migration_carbon_g);
  EXPECT_EQ(batch.server_failures, replay.server_failures);
  EXPECT_EQ(batch.apps_redeployed, replay.apps_redeployed);
  EXPECT_EQ(batch.apps_deferred, replay.apps_deferred);
  EXPECT_EQ(batch.apps_expired_deferred, replay.apps_expired_deferred);
  EXPECT_EQ(batch.app_downtime_epochs, replay.app_downtime_epochs);

  EXPECT_EQ(batch.telemetry.total_carbon_g(), replay.telemetry.total_carbon_g());
  EXPECT_EQ(batch.telemetry.total_energy_wh(), replay.telemetry.total_energy_wh());
  EXPECT_EQ(batch.telemetry.mean_rtt_ms(), replay.telemetry.mean_rtt_ms());
  EXPECT_EQ(batch.telemetry.mean_response_ms(), replay.telemetry.mean_response_ms());
  EXPECT_EQ(batch.telemetry.response_percentile(50.0),
            replay.telemetry.response_percentile(50.0));
  EXPECT_EQ(batch.telemetry.response_percentile(99.0),
            replay.telemetry.response_percentile(99.0));

  ASSERT_EQ(batch.telemetry.size(), replay.telemetry.size());
  for (std::size_t e = 0; e < batch.telemetry.size(); ++e) {
    const sim::EpochRecord& b = batch.telemetry.epochs()[e];
    const sim::EpochRecord& r = replay.telemetry.epochs()[e];
    EXPECT_EQ(b.energy_wh(), r.energy_wh()) << "epoch " << e;
    EXPECT_EQ(b.carbon_g(), r.carbon_g()) << "epoch " << e;
    EXPECT_EQ(b.rps_total, r.rps_total) << "epoch " << e;
    EXPECT_EQ(b.rtt_weighted_sum_ms, r.rtt_weighted_sum_ms) << "epoch " << e;
    EXPECT_EQ(b.apps_placed, r.apps_placed) << "epoch " << e;
    EXPECT_EQ(b.apps_rejected, r.apps_rejected) << "epoch " << e;
    EXPECT_EQ(b.migrations, r.migrations) << "epoch " << e;
    EXPECT_EQ(b.failures, r.failures) << "epoch " << e;
  }
}

core::SimulationResult replay_through_serve(core::EdgeSimulation& simulation,
                                            const core::SimulationConfig& config,
                                            ServeResult* full = nullptr) {
  TraceReplaySource source(config.workload, simulation.pristine_cluster(), config.epochs,
                           config.epoch_hours);
  ServeConfig serve_config;
  serve_config.sim = config;
  serve_config.window_epochs = 8;
  EventLoop loop(simulation, serve_config);
  ServeResult result = loop.run(source);
  if (full != nullptr) *full = result;
  return std::move(result.sim);
}

TEST(ServeReplay, MatchesBatchEngineBitForBit) {
  const geo::Region region = geo::florida_region();
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);

  const core::SimulationConfig config = replay_config(/*epochs=*/40, /*seed=*/1234);
  const core::SimulationResult batch = simulation.run(config);

  ServeResult full;
  const core::SimulationResult replay = replay_through_serve(simulation, config, &full);
  expect_identical(batch, replay);

  // An epoch-aligned replay loses nothing on the way in. (apps_placed is
  // not comparable to the arrival count: it also counts re-placements of
  // displaced applications.)
  EXPECT_EQ(full.ingest.dropped(), 0u);
  EXPECT_EQ(full.ingest.clamped_stale, 0u);

  // Window accounting reconciles with the run: every epoch lands in exactly
  // one window (40 epochs in windows of 8), and the per-window placement
  // counters sum to the run totals.
  ASSERT_EQ(full.windows.size(), 5u);
  std::uint64_t window_placed = 0;
  std::uint64_t window_arrivals = 0;
  for (const WindowStats& w : full.windows) {
    EXPECT_EQ(w.epochs, 8u);
    window_placed += w.apps_placed;
    window_arrivals += w.arrivals;
  }
  EXPECT_EQ(window_placed, batch.apps_placed);
  EXPECT_EQ(window_arrivals, full.ingest.accepted);
}

TEST(ServeReplay, TenRandomizedSeedsStayIdentical) {
  const geo::Region region = geo::florida_region();
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::SimulationConfig config = replay_config(/*epochs=*/48, seed);
    const core::SimulationResult batch = simulation.run(config);
    const core::SimulationResult replay = replay_through_serve(simulation, config);
    expect_identical(batch, replay);
  }
}

TEST(ServeReplay, WindowSinkNeverPerturbsRunAccounting) {
  // Running the serve loop with windowed telemetry attached must not change
  // the engine's run-level histogram: compare the replay's percentiles
  // against a second batch run (the sink is serve-only machinery).
  const geo::Region region = geo::florida_region();
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);

  const core::SimulationConfig config = replay_config(/*epochs=*/24, /*seed=*/7);
  const core::SimulationResult batch = simulation.run(config);
  ServeResult full;
  (void)replay_through_serve(simulation, config, &full);
  EXPECT_EQ(batch.telemetry.response_percentile(95.0),
            full.sim.telemetry.response_percentile(95.0));
  // And the per-window tails are populated from the same sample stream.
  bool any_tail = false;
  for (const WindowStats& w : full.windows) {
    if (w.p99_response_ms > 0.0) any_tail = true;
    EXPECT_GE(w.p99_response_ms, w.p50_response_ms);
  }
  EXPECT_TRUE(any_tail);
}

}  // namespace
}  // namespace carbonedge::serve
