#include "core/problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace carbonedge::core {
namespace {

using solver::kInfinity;

/// Min/max over finite entries of a matrix (for Eq. 8 normalization).
std::pair<double, double> finite_range(const std::vector<double>& values) {
  double lo = kInfinity;
  double hi = -kInfinity;
  for (const double v : values) {
    if (v >= kInfinity) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (lo > hi) return {0.0, 0.0};
  return {lo, hi};
}

}  // namespace

BuiltProblem build_problem(const PlacementInput& input, std::span<const sim::Application> apps,
                           const PolicyConfig& policy) {
  if (input.cluster == nullptr || input.latency == nullptr || input.carbon == nullptr) {
    throw std::invalid_argument("placement input must supply cluster, latency, and carbon");
  }

  BuiltProblem built;
  built.servers = input.cluster->all_servers();
  const std::size_t num_apps = apps.size();
  const std::size_t num_servers = built.servers.size();
  const std::size_t cells = num_apps * num_servers;

  built.energy_wh.assign(cells, kInfinity);
  built.carbon_g.assign(cells, kInfinity);
  built.rtt_ms.assign(cells, kInfinity);
  built.activation_energy_wh.assign(num_servers, 0.0);
  built.activation_carbon_g.assign(num_servers, 0.0);
  built.mean_intensity.assign(num_servers, 0.0);

  // Per-column mean forecast intensity Ī_j and activation terms.
  for (std::size_t j = 0; j < num_servers; ++j) {
    const auto& ref = built.servers[j];
    const sim::EdgeDataCenter& site = input.cluster->sites()[ref.site];
    const double intensity =
        input.carbon->mean_forecast(site.zone(), input.now, input.forecast_horizon_hours);
    built.mean_intensity[j] = intensity;
    if (!ref.server->powered_on()) {
      const double energy = ref.server->config().base_power_w * input.epoch_hours;  // Wh
      built.activation_energy_wh[j] = energy;
      built.activation_carbon_g[j] = energy / 1000.0 * intensity;
    }
  }

  // Physical matrices over feasible (latency + model-support + fit) pairs.
  // Per-app site RTTs are gathered once ahead of the server loop from the
  // origin's neighborhood (every other site is +inf, exactly what the Eq. 2
  // filter drops), so the inner loop does an array lookup instead of a
  // provider query per server — and under a banded provider the build stops
  // scaling with n^2 site pairs.
  const std::size_t num_sites = input.cluster->sites().size();
  std::vector<double> site_rtt(num_sites, kInfinity);
  for (std::size_t i = 0; i < num_apps; ++i) {
    const sim::Application& app = apps[i];
    std::fill(site_rtt.begin(), site_rtt.end(), kInfinity);
    for (const std::uint32_t s : input.latency->neighbors(app.origin_site)) {
      site_rtt[s] = 2.0 * input.latency->one_way_ms(app.origin_site, s);
    }
    for (std::size_t j = 0; j < num_servers; ++j) {
      const auto& ref = built.servers[j];
      if (ref.server->failed()) continue;  // crashed servers take no load
      const double rtt = site_rtt[ref.site];
      if (rtt > app.latency_limit_rtt_ms + 1e-9) continue;  // Eq. 2 filter
      const sim::ProfileResult prof = sim::profile_of(app.model, ref.server->device());
      if (!prof.supported) continue;
      const std::size_t cell = built.index(i, j);
      const double watts = prof.profile.energy_j * app.rps;  // dynamic draw
      const double energy = watts * input.epoch_hours;       // Wh over the epoch
      built.energy_wh[cell] = energy;
      built.carbon_g[cell] = energy / 1000.0 * built.mean_intensity[j];
      built.rtt_ms[cell] = rtt;
    }
  }

  // Assemble the assignment problem: 2 resources (memory MB, compute).
  solver::AssignmentProblem problem(num_apps, num_servers, 2);
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    problem.set_capacity(j, 0, server.memory_free_mb());
    problem.set_capacity(j, 1, server.compute_free());
    problem.set_initially_on(j, server.powered_on());
  }
  for (std::size_t i = 0; i < num_apps; ++i) {
    const sim::Application& app = apps[i];
    for (std::size_t j = 0; j < num_servers; ++j) {
      if (built.rtt_ms[built.index(i, j)] >= kInfinity) continue;
      const sim::EdgeServer& server = *built.servers[j].server;
      const sim::WorkloadProfile prof = sim::require_profile(app.model, server.device());
      problem.set_demand(i, j, 0, prof.memory_mb);
      problem.set_demand(i, j, 1, sim::compute_demand_per_rps(app.model, server.device()) * app.rps);
    }
  }

  // Policy-specific objective.
  const auto [energy_lo, energy_hi] = finite_range(built.energy_wh);
  const auto [carbon_lo, carbon_hi] = finite_range(built.carbon_g);
  for (std::size_t i = 0; i < num_apps; ++i) {
    for (std::size_t j = 0; j < num_servers; ++j) {
      const std::size_t cell = built.index(i, j);
      if (built.rtt_ms[cell] >= kInfinity) continue;
      double cost = 0.0;
      switch (policy.kind) {
        case PolicyKind::kLatencyAware:
          cost = built.rtt_ms[cell];
          break;
        case PolicyKind::kEnergyAware:
          cost = built.energy_wh[cell];
          break;
        case PolicyKind::kIntensityAware:
          cost = built.mean_intensity[j];
          break;
        case PolicyKind::kCarbonEdge:
          cost = built.carbon_g[cell];
          break;
        case PolicyKind::kMultiObjective: {
          const double e = util::minmax_normalize(built.energy_wh[cell], energy_lo, energy_hi);
          const double c = util::minmax_normalize(built.carbon_g[cell], carbon_lo, carbon_hi);
          cost = policy.alpha * e + (1.0 - policy.alpha) * c;
          break;
        }
      }
      problem.set_cost(i, j, cost);
    }
  }
  // Activation costs in the policy's own units (Eq. 6's second term for
  // CarbonEdge; energy for Energy-aware; normalized blend for Eq. 8).
  for (std::size_t j = 0; j < num_servers; ++j) {
    double activation = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware:
        activation = 0.0;  // latency policy is indifferent to power state
        break;
      case PolicyKind::kEnergyAware:
        activation = built.activation_energy_wh[j];
        break;
      case PolicyKind::kIntensityAware:
        activation = 0.0;  // greedy on intensity only
        break;
      case PolicyKind::kCarbonEdge:
        activation = built.activation_carbon_g[j];
        break;
      case PolicyKind::kMultiObjective: {
        const double e =
            util::minmax_normalize(built.activation_energy_wh[j], energy_lo, energy_hi);
        const double c =
            util::minmax_normalize(built.activation_carbon_g[j], carbon_lo, carbon_hi);
        activation = policy.alpha * e + (1.0 - policy.alpha) * c;
        break;
      }
    }
    problem.set_activation_cost(j, activation);
  }

  built.problem = std::move(problem);
  return built;
}

}  // namespace carbonedge::core
