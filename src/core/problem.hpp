// Placement problem construction: turns cluster state + carbon forecasts +
// site latency + a policy into a solver::AssignmentProblem (the Eq. 1-7
// model after Algorithm 1's latency pre-filtering). Only pairs that pass
// the filter exist: the problem's pair list and the physical quantities
// behind each pair's cost share one pair index.
#pragma once

#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/service.hpp"
#include "core/policy.hpp"
#include "geo/sparse_latency.hpp"
#include "sim/datacenter.hpp"
#include "sim/workload.hpp"
#include "solver/assignment.hpp"

namespace carbonedge::core {

/// Inputs shared by every placement call of one epoch.
struct PlacementInput {
  sim::EdgeCluster* cluster = nullptr;
  const geo::BandedLatencyMatrix* latency = nullptr;  // site x site one-way ms
  const carbon::CarbonIntensityService* carbon = nullptr;
  carbon::HourIndex now = 0;
  std::uint32_t forecast_horizon_hours = 1;  // window for the mean forecast Ī_j
  double epoch_hours = 1.0;                  // energy integration window
};

/// The built problem plus the physical quantities behind the policy costs,
/// kept for accounting and for the multi-objective normalization.
struct BuiltProblem {
  solver::AssignmentProblem problem{0, 0, 1};
  std::vector<sim::EdgeCluster::ServerRef> servers;  // server index order
  // Per pair of `problem` (same index): network round-trip (ms), per-epoch
  // dynamic energy (Wh) and operational carbon (g).
  std::vector<double> rtt_ms;
  std::vector<double> energy_wh;
  std::vector<double> carbon_g;
  std::vector<double> mean_intensity;  // Ī per server
};

/// The Eq. 2 latency filter, in one place for the problem build and the
/// engine's own scans: true when a round trip of `rtt_ms` breaks the app's
/// SLO (1e-9 ms slack so a pair exactly at the limit stays feasible).
[[nodiscard]] inline bool exceeds_rtt_limit(const sim::Application& app, double rtt_ms) noexcept {
  return rtt_ms > app.latency_limit_rtt_ms + 1e-9;
}

/// Build the assignment problem for a batch of applications under `policy`.
/// Resource dimensions: device memory (MB) and compute busy-fraction, taken
/// from each server's *remaining* capacity (incremental placement).
[[nodiscard]] BuiltProblem build_problem(const PlacementInput& input,
                                         std::span<const sim::Application> apps,
                                         const PolicyConfig& policy);

}  // namespace carbonedge::core
