#include "core/placement_service.hpp"

#include <stdexcept>

#include "obs/span.hpp"

namespace carbonedge::core {

namespace {

obs::Phase& place_phase() {
  static obs::Phase phase("core.place");
  return phase;
}

}  // namespace

PlacementService::PlacementService(PolicyConfig policy) : policy_(policy) {}

PlacementResult PlacementService::place(const PlacementInput& input,
                                        std::span<const sim::Application> apps) {
  PlacementResult result;
  if (apps.empty()) return result;

  const obs::Span span(place_phase());
  BuiltProblem built = build_problem(input, apps, policy_);
  const solver::AssignmentSolution solution = solver::solve_auto(built.problem);
  result.objective = solution.total_cost;
  result.solver_stats = solution.stats;

  // Commit: power on activated servers first (Eq. 5), then host. solve_auto
  // answers with evaluate()'s power states, where an initially-off server
  // is on only when it received an app.
  for (std::size_t j = 0; j < built.servers.size(); ++j) {
    sim::EdgeServer& server = *built.servers[j].server;
    if (!server.powered_on() && solution.powered_on[j]) {
      server.set_powered_on(true);
      result.activated.push_back(j);
    }
  }

  for (std::size_t i = 0; i < apps.size(); ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == solver::kUnassigned) {
      result.rejected.push_back(apps[i].id);
      continue;
    }
    const auto& ref = built.servers[j];
    if (!ref.server->can_host(apps[i].model, apps[i].rps)) {
      // Defense in depth: heuristic solutions are validated upstream, but a
      // placement that no longer fits (e.g. float-boundary drift) is
      // rejected rather than corrupting server state.
      result.rejected.push_back(apps[i].id);
      continue;
    }
    ref.server->host(sim::AppInstance{apps[i].id, apps[i].model, apps[i].rps});
    PlacementDecision decision;
    decision.app = apps[i].id;
    decision.site = ref.site;
    decision.server = ref.server->id();
    const std::size_t pair = built.problem.find(i, j);
    decision.rtt_ms = built.rtt_ms[pair];
    decision.energy_wh = built.energy_wh[pair];
    decision.carbon_g = built.carbon_g[pair];
    result.decisions.push_back(decision);
  }
  return result;
}

}  // namespace carbonedge::core
