#include "core/problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace carbonedge::core {
namespace {

/// Min/max of the per-pair values (for Eq. 8 normalization); {0, 0} when
/// there are no pairs.
std::pair<double, double> value_range(const std::vector<double>& values) {
  if (values.empty()) return {0.0, 0.0};
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return {*lo, *hi};
}

double policy_cost(const PolicyConfig& policy, double rtt_ms, double energy_wh, double carbon_g,
                   double intensity, std::pair<double, double> energy_range,
                   std::pair<double, double> carbon_range) {
  switch (policy.kind) {
    case PolicyKind::kLatencyAware:
      return rtt_ms;
    case PolicyKind::kEnergyAware:
      return energy_wh;
    case PolicyKind::kIntensityAware:
      return intensity;
    case PolicyKind::kCarbonEdge:
      return carbon_g;
    case PolicyKind::kMultiObjective: {
      const double e = util::minmax_normalize(energy_wh, energy_range.first, energy_range.second);
      const double c = util::minmax_normalize(carbon_g, carbon_range.first, carbon_range.second);
      return policy.alpha * e + (1.0 - policy.alpha) * c;
    }
  }
  return 0.0;
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

  // Per-server mean forecast intensity Ī_j.
  built.mean_intensity.assign(num_servers, 0.0);
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeDataCenter& site = input.cluster->sites()[built.servers[j].site];
    built.mean_intensity[j] =
        input.carbon->mean_forecast(site.zone(), input.now, input.forecast_horizon_hours);
  }

  // Pass 1: the physical pairs (latency + model-support + live server), in
  // ascending (app, server) order, with their demands. Servers are numbered
  // site-major, so walking the origin's latency row (sites ascending) and
  // each in-SLO site's server range visits servers in ascending order while
  // skipping every site out of the band or the Eq. 2 limit — the build
  // scales with the neighborhood, not with n^2 site pairs.
  struct PairDemand {
    std::size_t app;
    std::size_t server;
    double memory_mb;
    double compute;
  };
  std::vector<PairDemand> pairs;
  std::vector<std::size_t> site_first(input.cluster->sites().size() + 1, 0);
  for (const sim::EdgeCluster::ServerRef& ref : built.servers) ++site_first[ref.site + 1];
  for (std::size_t s = 0; s + 1 < site_first.size(); ++s) site_first[s + 1] += site_first[s];
  for (std::size_t i = 0; i < num_apps; ++i) {
    const sim::Application& app = apps[i];
    const auto sites = input.latency->neighbors(app.origin_site);
    const auto one_way = input.latency->neighbor_ms(app.origin_site);
    for (std::size_t k = 0; k < sites.size(); ++k) {
      const double rtt = 2.0 * one_way[k];
      if (exceeds_rtt_limit(app, rtt)) continue;  // Eq. 2 filter
      for (std::size_t j = site_first[sites[k]]; j < site_first[sites[k] + 1]; ++j) {
        const sim::EdgeServer& server = *built.servers[j].server;
        if (server.failed()) continue;  // crashed servers take no load
        const sim::ProfileResult prof = sim::profile_of(app.model, server.device());
        if (!prof.supported) continue;
        const double watts = prof.profile.energy_j * app.rps;  // dynamic draw
        const double energy = watts * input.epoch_hours;       // Wh over the epoch
        built.rtt_ms.push_back(rtt);
        built.energy_wh.push_back(energy);
        built.carbon_g.push_back(energy / 1000.0 * built.mean_intensity[j]);
        pairs.push_back({i, j, prof.profile.memory_mb,
                         sim::compute_demand_per_rps(app.model, server.device()) * app.rps});
      }
    }
  }

  // Pass 2: assemble the assignment problem with the policy's objective;
  // 2 resources (memory MB, compute).
  const std::pair<double, double> energy_range = value_range(built.energy_wh);
  const std::pair<double, double> carbon_range = value_range(built.carbon_g);
  solver::AssignmentProblem problem(num_apps, num_servers, 2);
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    problem.set_capacity(j, 0, server.memory_free_mb());
    problem.set_capacity(j, 1, server.compute_free());
    problem.set_initially_on(j, server.powered_on());
    // Activation costs in the policy's own units (Eq. 6's second term for
    // CarbonEdge; energy for Energy-aware; normalized blend for Eq. 8): an
    // initially-off server draws its base power for the epoch. Zero RTT and
    // intensity make the latency and intensity policies indifferent to
    // power state.
    const bool off = !server.powered_on();
    const double energy = off ? server.config().base_power_w * input.epoch_hours : 0.0;  // Wh
    const double carbon = off ? energy / 1000.0 * built.mean_intensity[j] : 0.0;
    problem.set_activation_cost(
        j, policy_cost(policy, 0.0, energy, carbon, 0.0, energy_range, carbon_range));
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PairDemand& pair = pairs[p];
    const double cost =
        policy_cost(policy, built.rtt_ms[p], built.energy_wh[p], built.carbon_g[p],
                    built.mean_intensity[pair.server], energy_range, carbon_range);
    problem.add_pair(pair.app, pair.server, cost, {pair.memory_mb, pair.compute});
  }

  built.problem = std::move(problem);
  return built;
}

}  // namespace carbonedge::core
