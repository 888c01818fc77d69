#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

namespace carbonedge::sim {
namespace {

EpochRecord make_record(std::uint32_t epoch, std::vector<SiteEpochRecord> sites) {
  EpochRecord r;
  r.epoch = epoch;
  r.sites = std::move(sites);
  return r;
}

TEST(EpochRecord, AggregatesSites) {
  EpochRecord r = make_record(0, {{100.0, 50.0, 500.0, 2, 10.0}, {200.0, 30.0, 150.0, 1, 5.0}});
  EXPECT_DOUBLE_EQ(r.energy_wh(), 300.0);
  EXPECT_DOUBLE_EQ(r.carbon_g(), 80.0);
}

TEST(EpochRecord, MeanLatencyIsRequestWeighted) {
  EpochRecord r;
  r.rtt_weighted_sum_ms = 100.0;
  r.response_weighted_sum_ms = 300.0;
  r.rps_total = 20.0;
  EXPECT_DOUBLE_EQ(r.mean_rtt_ms(), 5.0);
  EXPECT_DOUBLE_EQ(r.mean_response_ms(), 15.0);
  r.rps_total = 0.0;
  EXPECT_DOUBLE_EQ(r.mean_rtt_ms(), 0.0);
}

TEST(Telemetry, TotalsAcrossEpochs) {
  Telemetry t;
  t.record(make_record(0, {{100.0, 10.0, 100.0, 1, 2.0}}));
  t.record(make_record(1, {{50.0, 20.0, 400.0, 2, 3.0}}));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.total_energy_wh(), 150.0);
  EXPECT_DOUBLE_EQ(t.total_carbon_g(), 30.0);
  EXPECT_DOUBLE_EQ(t.total_carbon_kg(), 0.03);
}

TEST(Telemetry, MeanRttPoolsAcrossEpochs) {
  Telemetry t;
  EpochRecord a;
  a.rtt_weighted_sum_ms = 10.0;
  a.rps_total = 2.0;
  EpochRecord b;
  b.rtt_weighted_sum_ms = 50.0;
  b.rps_total = 8.0;
  t.record(a);
  t.record(b);
  EXPECT_DOUBLE_EQ(t.mean_rtt_ms(), 6.0);
}

TEST(Telemetry, AppsBySiteAveragesWindow) {
  Telemetry t;
  t.record(make_record(0, {{0, 0, 0, 4, 0}}));
  t.record(make_record(1, {{0, 0, 0, 6, 0}}));
  const auto avg = t.apps_by_site(0, 2);
  ASSERT_EQ(avg.size(), 1u);
  EXPECT_DOUBLE_EQ(avg[0], 5.0);
}

TEST(Telemetry, LoadIntensitySampleWeightsByRps) {
  Telemetry t;
  // Site 0 hosts 3 rps at 100 g/kWh; site 1 idle.
  t.record(make_record(0, {{0, 0, 100.0, 1, 3.0}, {0, 0, 900.0, 0, 0.0}}));
  const auto sample = t.load_intensity_sample();
  ASSERT_EQ(sample.size(), 3u);
  for (const double v : sample) EXPECT_DOUBLE_EQ(v, 100.0);
}

TEST(Telemetry, EmptyTelemetryIsZero) {
  const Telemetry t;
  EXPECT_DOUBLE_EQ(t.total_carbon_g(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean_rtt_ms(), 0.0);
  EXPECT_TRUE(t.load_intensity_sample().empty());
}

}  // namespace
}  // namespace carbonedge::sim
