#include "solver/assignment.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "solver/decompose.hpp"

namespace carbonedge::solver {

namespace {

// Registry mirrors of SolveStats, aggregated at the solve_auto entry (the
// path every placement goes through). All integer counts of deterministic
// solver decisions, so deterministic view even when solves run on worker
// lanes. The size histogram observes integer values only — its sum stays
// exact and commutative, hence thread-count independent.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& components;
  obs::Counter& exact_shards;
  obs::Counter& heuristic_shards;
  obs::Counter& unplaceable_apps;
  obs::Counter& milp_nodes;
  obs::Histogram& problem_apps;
};

SolverMetrics& solver_metrics() {
  obs::Registry& registry = obs::Registry::global();
  static SolverMetrics metrics{
      registry.counter("solver.solves", "assignment problems solved (solve_auto entries)",
                       obs::View::kDeterministic),
      registry.counter("solver.components", "connected components across all solves",
                       obs::View::kDeterministic),
      registry.counter("solver.exact_shards", "components solved by the MILP",
                       obs::View::kDeterministic),
      registry.counter("solver.heuristic_shards",
                       "components solved by greedy + local search",
                       obs::View::kDeterministic),
      registry.counter("solver.unplaceable_apps", "apps with no feasible server at all",
                       obs::View::kDeterministic),
      registry.counter("solver.milp_nodes", "B&B nodes explored across exact shards",
                       obs::View::kDeterministic),
      registry.histogram("solver.problem_apps", "apps per solved assignment problem",
                         obs::View::kDeterministic,
                         {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
                          4096.0})};
  return metrics;
}

obs::Phase& solve_phase() {
  static obs::Phase phase("solver.solve");
  return phase;
}

obs::Phase& milp_phase() {
  static obs::Phase phase("solver.milp");
  return phase;
}

}  // namespace

AssignmentProblem::AssignmentProblem(std::size_t num_apps, std::size_t num_servers,
                                     std::size_t num_resources)
    : num_apps_(num_apps),
      num_servers_(num_servers),
      num_resources_(num_resources == 0 ? 1 : num_resources),
      cost_(num_apps * num_servers, kInfinity),
      demand_(num_apps * num_servers * num_resources_, 0.0),
      capacity_(num_servers * num_resources_, 0.0),
      activation_cost_(num_servers, 0.0),
      initially_on_(num_servers, 1) {}

void AssignmentProblem::set_cost(std::size_t app, std::size_t server, double cost) {
  cost_[app * num_servers_ + server] = cost;
}

void AssignmentProblem::set_demand(std::size_t app, std::size_t server, std::size_t resource,
                                   double demand) {
  demand_[(app * num_servers_ + server) * num_resources_ + resource] = demand;
}

void AssignmentProblem::set_capacity(std::size_t server, std::size_t resource, double capacity) {
  capacity_[server * num_resources_ + resource] = capacity;
}

void AssignmentProblem::set_activation_cost(std::size_t server, double cost) {
  activation_cost_[server] = cost;
}

void AssignmentProblem::set_initially_on(std::size_t server, bool on) {
  initially_on_[server] = on ? 1 : 0;
}

AssignmentSolution evaluate(const AssignmentProblem& problem,
                            const std::vector<std::size_t>& assignment) {
  AssignmentSolution solution;
  solution.assignment = assignment;
  solution.assignment.resize(problem.num_apps(), kUnassigned);
  solution.powered_on.assign(problem.num_servers(), 0);
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    solution.powered_on[j] = problem.initially_on(j) ? 1 : 0;
  }
  double total = 0.0;
  solution.unassigned_count = 0;
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) {
      ++solution.unassigned_count;
      continue;
    }
    if (j >= problem.num_servers()) continue;  // validate() below rejects it
    total += problem.cost(i, j);
    if (!solution.powered_on[j]) {
      solution.powered_on[j] = 1;
      total += problem.activation_cost(j);
    }
  }
  solution.total_cost = total;
  solution.feasible = solution.unassigned_count == 0 && validate(problem, solution);
  return solution;
}

bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution, double tol) {
  if (solution.assignment.size() != problem.num_apps()) return false;
  std::vector<double> load(problem.num_servers() * problem.num_resources(), 0.0);
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) continue;
    if (j >= problem.num_servers()) return false;
    if (!problem.feasible_pair(i, j)) return false;  // Eq. 2 (latency) encoded as inf cost
    if (!solution.powered_on.empty() && !solution.powered_on[j]) return false;  // Eq. 5
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      load[j * problem.num_resources() + k] += problem.demand(i, j, k);
    }
  }
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    // Eq. 4: initially-on servers stay on.
    if (!solution.powered_on.empty() && problem.initially_on(j) && !solution.powered_on[j]) {
      return false;
    }
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      if (load[j * problem.num_resources() + k] > problem.capacity(j, k) + tol) {
        return false;  // Eq. 1
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Exact MILP path
// ---------------------------------------------------------------------------

AssignmentSolution solve_exact(const AssignmentProblem& problem, const MilpOptions& options) {
  const obs::Span span(milp_phase());
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();

  LinearProgram lp;
  std::vector<int> integer_vars;
  // Variable maps: x_var[i][j] >= 0 only for feasible pairs; y_var[j] only
  // for initially-off servers with at least one feasible pair.
  std::vector<std::vector<int>> x_var(apps, std::vector<int>(servers, -1));
  std::vector<int> y_var(servers, -1);

  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      if (!problem.feasible_pair(i, j)) continue;
      x_var[i][j] = lp.add_variable(problem.cost(i, j), 0.0, 1.0);
      integer_vars.push_back(x_var[i][j]);
    }
  }
  for (std::size_t j = 0; j < servers; ++j) {
    if (problem.initially_on(j)) continue;
    bool any = false;
    for (std::size_t i = 0; i < apps && !any; ++i) any = x_var[i][j] >= 0;
    if (!any) continue;
    y_var[j] = lp.add_variable(problem.activation_cost(j), 0.0, 1.0);
    integer_vars.push_back(y_var[j]);
  }

  // Eq. 3: each app placed exactly once.
  for (std::size_t i = 0; i < apps; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t j = 0; j < servers; ++j) {
      if (x_var[i][j] >= 0) terms.emplace_back(x_var[i][j], 1.0);
    }
    if (terms.empty()) {
      AssignmentSolution infeasible;
      infeasible.assignment.assign(apps, kUnassigned);
      infeasible.unassigned_count = apps;
      // No shard was actually solved (the MILP was never built), so
      // exact_shards stays 0. This monolithic path reports one component
      // regardless of how many apps are unplaceable; only the sharded path
      // isolates each unplaceable app as its own singleton component.
      infeasible.stats.components = 1;
      for (std::size_t a = 0; a < apps; ++a) {
        bool any = false;
        for (std::size_t j = 0; j < servers && !any; ++j) any = problem.feasible_pair(a, j);
        if (!any) ++infeasible.stats.unplaceable_apps;
      }
      return infeasible;  // some app has no feasible server at all
    }
    lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
  }
  // Eq. 1: capacity per server/resource, gated by y for off servers.
  for (std::size_t j = 0; j < servers; ++j) {
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      std::vector<std::pair<int, double>> terms;
      for (std::size_t i = 0; i < apps; ++i) {
        if (x_var[i][j] >= 0) terms.emplace_back(x_var[i][j], problem.demand(i, j, k));
      }
      if (terms.empty()) continue;
      if (y_var[j] >= 0) {
        terms.emplace_back(y_var[j], -problem.capacity(j, k));
        lp.add_constraint(std::move(terms), Sense::kLessEqual, 0.0);
      } else {
        lp.add_constraint(std::move(terms), Sense::kLessEqual, problem.capacity(j, k));
      }
    }
    // Eq. 5 linking, per pair: x_ij <= y_j. The aggregated big-M form
    // (sum_i x_ij <= apps * y_j) admits fractional y_j = 1/apps at the
    // relaxation, so its LP bound barely reflects activation costs; the
    // per-pair rows are the tightest linear linking and make incumbent
    // pruning bite far earlier (fewer B&B nodes per exact solve).
    if (y_var[j] >= 0) {
      for (std::size_t i = 0; i < apps; ++i) {
        if (x_var[i][j] < 0) continue;
        lp.add_constraint({{x_var[i][j], 1.0}, {y_var[j], -1.0}}, Sense::kLessEqual, 0.0);
      }
    }
  }

  // Warm start from the greedy heuristic to seed the incumbent.
  std::optional<std::vector<double>> warm;
  AssignmentSolution greedy = solve_greedy(problem);
  if (greedy.feasible) {
    improve_local_search(problem, greedy);
    std::vector<double> values(lp.num_variables(), 0.0);
    for (std::size_t i = 0; i < apps; ++i) {
      const std::size_t j = greedy.assignment[i];
      if (j != kUnassigned && x_var[i][j] >= 0) values[static_cast<std::size_t>(x_var[i][j])] = 1.0;
    }
    for (std::size_t j = 0; j < servers; ++j) {
      if (y_var[j] >= 0 && greedy.powered_on[j]) values[static_cast<std::size_t>(y_var[j])] = 1.0;
    }
    if (lp.is_feasible(values)) warm = std::move(values);
  }

  const MilpSolution milp = solve_milp(lp, integer_vars, options, warm);
  if (milp.status != MilpStatus::kOptimal && milp.status != MilpStatus::kFeasible) {
    // The search came up empty (node budget exhausted before any incumbent,
    // or a numerically stranded warm start). The greedy placement is still a
    // valid answer that direct callers would otherwise lose — return it
    // instead of an all-kUnassigned shell.
    if (greedy.feasible) {
      greedy.stats.components = 1;
      greedy.stats.heuristic_shards = 1;
      greedy.stats.milp_nodes = milp.nodes_explored;
      return greedy;
    }
    AssignmentSolution infeasible;
    infeasible.assignment.assign(apps, kUnassigned);
    infeasible.unassigned_count = apps;
    infeasible.stats.components = 1;
    infeasible.stats.exact_shards = 1;
    infeasible.stats.milp_nodes = milp.nodes_explored;
    return infeasible;
  }

  std::vector<std::size_t> assignment(apps, kUnassigned);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      if (x_var[i][j] >= 0 && milp.values[static_cast<std::size_t>(x_var[i][j])] > 0.5) {
        assignment[i] = j;
        break;
      }
    }
  }
  AssignmentSolution solution = evaluate(problem, assignment);
  solution.stats.components = 1;
  solution.stats.exact_shards = 1;
  solution.stats.milp_nodes = milp.nodes_explored;
  return solution;
}

// ---------------------------------------------------------------------------
// Regret greedy + local search
// ---------------------------------------------------------------------------

namespace {

struct GreedyState {
  std::vector<double> remaining;       // server x resource
  std::vector<std::uint8_t> planned_on;
  std::vector<std::size_t> load_count;  // apps per server

  explicit GreedyState(const AssignmentProblem& p)
      : remaining(p.num_servers() * p.num_resources()),
        planned_on(p.num_servers()),
        load_count(p.num_servers(), 0) {
    for (std::size_t j = 0; j < p.num_servers(); ++j) {
      planned_on[j] = p.initially_on(j) ? 1 : 0;
      for (std::size_t k = 0; k < p.num_resources(); ++k) {
        remaining[j * p.num_resources() + k] = p.capacity(j, k);
      }
    }
  }

  [[nodiscard]] bool fits(const AssignmentProblem& p, std::size_t i, std::size_t j) const {
    for (std::size_t k = 0; k < p.num_resources(); ++k) {
      if (p.demand(i, j, k) > remaining[j * p.num_resources() + k] + 1e-9) return false;
    }
    return true;
  }

  [[nodiscard]] double effective_cost(const AssignmentProblem& p, std::size_t i,
                                      std::size_t j) const {
    double c = p.cost(i, j);
    if (!planned_on[j]) c += p.activation_cost(j);
    return c;
  }

  void commit(const AssignmentProblem& p, std::size_t i, std::size_t j) {
    for (std::size_t k = 0; k < p.num_resources(); ++k) {
      remaining[j * p.num_resources() + k] -= p.demand(i, j, k);
    }
    planned_on[j] = 1;
    ++load_count[j];
  }
};

}  // namespace

AssignmentSolution solve_greedy(const AssignmentProblem& problem) {
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  GreedyState state(problem);
  std::vector<std::size_t> assignment(apps, kUnassigned);
  std::vector<std::uint8_t> placed(apps, 0);

  for (std::size_t round = 0; round < apps; ++round) {
    // Pick the unplaced app with the largest regret (gap between its best
    // and second-best feasible option); ties favor the costlier best option.
    std::size_t pick = kUnassigned;
    std::size_t pick_server = kUnassigned;
    double pick_regret = -1.0;
    double pick_best_cost = -kInfinity;
    for (std::size_t i = 0; i < apps; ++i) {
      if (placed[i]) continue;
      double best = kInfinity;
      double second = kInfinity;
      std::size_t best_server = kUnassigned;
      for (std::size_t j = 0; j < servers; ++j) {
        if (!problem.feasible_pair(i, j) || !state.fits(problem, i, j)) continue;
        const double c = state.effective_cost(problem, i, j);
        if (c < best) {
          second = best;
          best = c;
          best_server = j;
        } else if (c < second) {
          second = c;
        }
      }
      if (best_server == kUnassigned) {
        // This app can no longer be placed; greedy fails over to a partial
        // answer which evaluate() marks infeasible.
        continue;
      }
      const double regret = (second == kInfinity) ? kInfinity : second - best;
      if (regret > pick_regret ||
          (regret == pick_regret && best > pick_best_cost)) {
        pick_regret = regret;
        pick_best_cost = best;
        pick = i;
        pick_server = best_server;
      }
    }
    if (pick == kUnassigned) break;  // nothing placeable remains
    assignment[pick] = pick_server;
    placed[pick] = 1;
    state.commit(problem, pick, pick_server);
  }
  AssignmentSolution solution = evaluate(problem, assignment);
  solution.stats.components = 1;
  solution.stats.heuristic_shards = 1;
  return solution;
}

std::size_t improve_local_search(const AssignmentProblem& problem, AssignmentSolution& solution,
                                 std::size_t max_rounds) {
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  const std::size_t resources = problem.num_resources();

  std::vector<double> load(servers * resources, 0.0);
  std::vector<std::size_t> count(servers, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) continue;
    for (std::size_t k = 0; k < resources; ++k) load[j * resources + k] += problem.demand(i, j, k);
    ++count[j];
  }

  const auto activation_delta_gain = [&](std::size_t j) {
    // Cost of powering on j if it is off and currently unused.
    return (!problem.initially_on(j) && count[j] == 0) ? problem.activation_cost(j) : 0.0;
  };
  const auto activation_delta_release = [&](std::size_t j) {
    // Saving from vacating the last app of an initially-off server.
    return (!problem.initially_on(j) && count[j] == 1) ? problem.activation_cost(j) : 0.0;
  };
  const auto fits_after = [&](std::size_t i, std::size_t to, std::size_t ignore_app) {
    for (std::size_t k = 0; k < resources; ++k) {
      double used = load[to * resources + k];
      if (ignore_app != kUnassigned && solution.assignment[ignore_app] == to) {
        used -= problem.demand(ignore_app, to, k);
      }
      if (used + problem.demand(i, to, k) > problem.capacity(to, k) + 1e-9) return false;
    }
    return true;
  };

  std::size_t improvements = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;

    // Relocate moves. `from` is refreshed after every applied move: the app
    // now lives on its new server and further candidate targets must be
    // evaluated against that.
    for (std::size_t i = 0; i < apps; ++i) {
      std::size_t from = solution.assignment[i];
      if (from == kUnassigned) continue;
      for (std::size_t to = 0; to < servers; ++to) {
        if (to == from || !problem.feasible_pair(i, to)) continue;
        if (!fits_after(i, to, kUnassigned)) continue;
        const double delta = problem.cost(i, to) - problem.cost(i, from) +
                             activation_delta_gain(to) - activation_delta_release(from);
        if (delta < -1e-9) {
          for (std::size_t k = 0; k < resources; ++k) {
            load[from * resources + k] -= problem.demand(i, from, k);
            load[to * resources + k] += problem.demand(i, to, k);
          }
          --count[from];
          ++count[to];
          solution.assignment[i] = to;
          from = to;
          improved = true;
          ++improvements;
        }
      }
    }

    // Pairwise swaps. `sa` is refreshed after every applied swap — app a
    // moved, so later candidates must see its new server.
    for (std::size_t a = 0; a < apps; ++a) {
      std::size_t sa = solution.assignment[a];
      if (sa == kUnassigned) continue;
      for (std::size_t b = a + 1; b < apps; ++b) {
        const std::size_t sb = solution.assignment[b];
        if (sb == kUnassigned || sb == sa) continue;
        if (!problem.feasible_pair(a, sb) || !problem.feasible_pair(b, sa)) continue;
        if (!fits_after(a, sb, b) || !fits_after(b, sa, a)) continue;
        const double delta = problem.cost(a, sb) + problem.cost(b, sa) -
                             problem.cost(a, sa) - problem.cost(b, sb);
        if (delta < -1e-9) {
          for (std::size_t k = 0; k < resources; ++k) {
            load[sa * resources + k] += problem.demand(b, sa, k) - problem.demand(a, sa, k);
            load[sb * resources + k] += problem.demand(a, sb, k) - problem.demand(b, sb, k);
          }
          solution.assignment[a] = sb;
          solution.assignment[b] = sa;
          sa = sb;
          improved = true;
          ++improvements;
        }
      }
    }

    if (!improved) break;
  }

  AssignmentSolution refreshed = evaluate(problem, solution.assignment);
  refreshed.stats = solution.stats;  // improvement does not change the path taken
  solution = std::move(refreshed);
  return improvements;
}

namespace {

// Largest apps x servers a component may have to go through the exact MILP
// (testbed scale); larger components take greedy + local search.
constexpr std::size_t kExactSizeLimit = 64;
constexpr std::size_t kLocalSearchRounds = 20;

// One (assumed connected) instance: the exact MILP when within
// kExactSizeLimit, else — or when the MILP finds no feasible answer —
// greedy + local search.
AssignmentSolution solve_connected(const AssignmentProblem& problem) {
  if (problem.num_apps() * problem.num_servers() <= kExactSizeLimit) {
    AssignmentSolution exact = solve_exact(problem);
    if (exact.feasible) return exact;
  }
  AssignmentSolution solution = solve_greedy(problem);
  improve_local_search(problem, solution, kLocalSearchRounds);
  return solution;
}

// Each component goes through solve_connected in component order and the
// sub-solutions are stitched back. Exact whenever every component is solved
// exactly; the returned stats report the decomposition shape and per-shard
// paths.
AssignmentSolution solve_decomposed(const AssignmentProblem& problem) {
  const std::vector<Component> components = connected_components(problem);
  if (components.size() == 1 && components.front().apps.size() == problem.num_apps() &&
      components.front().servers.size() == problem.num_servers()) {
    // Nothing to shard and nothing to drop: skip the extraction copy.
    return solve_connected(problem);
  }

  std::vector<std::size_t> assignment(problem.num_apps(), kUnassigned);
  SolveStats stats;
  stats.components = components.size();
  for (const Component& component : components) {
    if (component.servers.empty()) {
      // Unplaceable app(s): they stay kUnassigned.
      stats.unplaceable_apps += component.apps.size();
      continue;
    }
    const AssignmentSolution sub = solve_connected(extract_component(problem, component));
    for (std::size_t k = 0; k < component.apps.size(); ++k) {
      const std::size_t jj = sub.assignment[k];
      if (jj != kUnassigned) assignment[component.apps[k]] = component.servers[jj];
    }
    stats.exact_shards += sub.stats.exact_shards;
    stats.heuristic_shards += sub.stats.heuristic_shards;
    stats.unplaceable_apps += sub.stats.unplaceable_apps;
    stats.milp_nodes += sub.stats.milp_nodes;
  }

  // Components are server-disjoint, so re-evaluating the stitched assignment
  // against the parent problem reproduces the sum of the sub-costs
  // (placement plus activation) exactly.
  AssignmentSolution result = evaluate(problem, assignment);
  result.stats = stats;
  return result;
}

}  // namespace

AssignmentSolution solve_auto(const AssignmentProblem& problem) {
  const obs::Span span(solve_phase());
  AssignmentSolution solution = solve_decomposed(problem);
  SolverMetrics& metrics = solver_metrics();
  metrics.solves.add();
  metrics.components.add(solution.stats.components);
  metrics.exact_shards.add(solution.stats.exact_shards);
  metrics.heuristic_shards.add(solution.stats.heuristic_shards);
  metrics.unplaceable_apps.add(solution.stats.unplaceable_apps);
  metrics.milp_nodes.add(solution.stats.milp_nodes);
  metrics.problem_apps.observe(static_cast<double>(problem.num_apps()));
  return solution;
}

}  // namespace carbonedge::solver
