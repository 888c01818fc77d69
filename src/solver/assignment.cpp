#include "solver/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
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
  obs::Counter& milp_limit_hits;
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
      registry.counter("solver.milp_limit_hits",
                       "B&B searches stopped at the node budget (answer not proven)",
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

// Eq. 1: every server's load, summed in app order over the apps' pairs
// (kNoPair: none), within its capacity plus tol.
bool capacities_hold(const AssignmentProblem& problem, const std::vector<std::size_t>& pairs,
                     double tol) {
  const std::size_t resources = problem.num_resources();
  std::vector<double> load(problem.num_servers() * resources, 0.0);
  for (const std::size_t pair : pairs) {
    if (pair == kNoPair) continue;
    const std::size_t j = problem.server(pair);
    for (std::size_t k = 0; k < resources; ++k) load[j * resources + k] += problem.demand(pair, k);
  }
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    for (std::size_t k = 0; k < resources; ++k) {
      if (load[j * resources + k] > problem.capacity(j, k) + tol) return false;
    }
  }
  return true;
}

// evaluate() given each app's pair as well: kNoPair for an app that is
// unassigned or sits on a server it has no pair with. The heuristics know
// their pairs, so only evaluate() itself looks them up.
AssignmentSolution evaluate_pairs(const AssignmentProblem& problem,
                                  std::vector<std::size_t> assignment,
                                  const std::vector<std::size_t>& pairs) {
  AssignmentSolution solution;
  solution.assignment = std::move(assignment);
  solution.powered_on.assign(problem.num_servers(), 0);
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    solution.powered_on[j] = problem.initially_on(j) ? 1 : 0;
  }
  bool on_pairs = true;  // validate()'s Eq. 2 check
  double total = 0.0;
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) {
      ++solution.unassigned_count;
      continue;
    }
    on_pairs = on_pairs && pairs[i] != kNoPair;
    if (j >= problem.num_servers()) continue;
    total += pairs[i] == kNoPair ? kInfinity : problem.cost(pairs[i]);
    if (!solution.powered_on[j]) {
      solution.powered_on[j] = 1;
      total += problem.activation_cost(j);
    }
  }
  solution.total_cost = total;
  // Every used server is powered on, so validate()'s Eq. 4-5 checks hold.
  solution.feasible =
      solution.unassigned_count == 0 && on_pairs && capacities_hold(problem, pairs, 1e-6);
  return solution;
}

}  // namespace

AssignmentProblem::AssignmentProblem(std::size_t num_apps, std::size_t num_servers,
                                     std::size_t num_resources)
    : num_apps_(num_apps),
      num_servers_(num_servers),
      num_resources_(num_resources == 0 ? 1 : num_resources),
      capacity_(num_servers * num_resources_, 0.0),
      activation_cost_(num_servers, 0.0),
      initially_on_(num_servers, 1) {}

void AssignmentProblem::add_pair(std::size_t app, std::size_t server, double cost,
                                 std::span<const double> demands) {
  if (app >= num_apps_ || server >= num_servers_) {
    throw std::invalid_argument("assignment pair index out of range");
  }
  // row_begin_.size() - 1 is the app of the last pair.
  if (!pair_server_.empty() && (app + 1 < row_begin_.size() ||
                                (app + 1 == row_begin_.size() && server <= pair_server_.back()))) {
    throw std::invalid_argument("assignment pairs must be added in ascending (app, server) order");
  }
  if (!std::isfinite(cost)) throw std::invalid_argument("assignment pair cost must be finite");
  if (demands.size() != num_resources_) {
    throw std::invalid_argument("assignment pair needs one demand per resource");
  }
  while (row_begin_.size() <= app) row_begin_.push_back(num_pairs());
  pair_server_.push_back(server);
  pair_cost_.push_back(cost);
  pair_demand_.insert(pair_demand_.end(), demands.begin(), demands.end());
}

std::size_t AssignmentProblem::find(std::size_t app, std::size_t server) const noexcept {
  const auto first = pair_server_.begin() + static_cast<std::ptrdiff_t>(row_start(app));
  const auto last = pair_server_.begin() + static_cast<std::ptrdiff_t>(row_start(app + 1));
  const auto it = std::lower_bound(first, last, server);
  if (it == last || *it != server) return kNoPair;
  return static_cast<std::size_t>(it - pair_server_.begin());
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
  std::vector<std::size_t> padded = assignment;
  padded.resize(problem.num_apps(), kUnassigned);
  std::vector<std::size_t> pairs(problem.num_apps(), kNoPair);
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    if (padded[i] != kUnassigned) pairs[i] = problem.find(i, padded[i]);
  }
  return evaluate_pairs(problem, std::move(padded), pairs);
}

bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution, double tol) {
  if (solution.assignment.size() != problem.num_apps()) return false;
  const bool has_power = !solution.powered_on.empty();
  if (has_power && solution.powered_on.size() != problem.num_servers()) return false;
  std::vector<std::size_t> pairs(problem.num_apps(), kNoPair);
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) continue;
    pairs[i] = problem.find(i, j);
    if (pairs[i] == kNoPair) return false;  // out of range, or Eq. 2 (latency) filtered
    if (has_power && !solution.powered_on[j]) return false;  // Eq. 5
  }
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    // Eq. 4: initially-on servers stay on.
    if (has_power && problem.initially_on(j) && !solution.powered_on[j]) return false;
  }
  return capacities_hold(problem, pairs, tol);
}

// ---------------------------------------------------------------------------
// Exact MILP path
// ---------------------------------------------------------------------------

AssignmentSolution solve_exact(const AssignmentProblem& problem, const MilpOptions& options) {
  const obs::Span span(milp_phase());
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  const std::size_t resources = problem.num_resources();

  std::size_t unplaceable = 0;
  for (std::size_t i = 0; i < apps; ++i) unplaceable += problem.row(i).empty() ? 1 : 0;
  if (unplaceable > 0) {
    // Eq. 3 cannot hold, so the MILP is never built and exact_shards stays 0.
    // Only the sharded path isolates each unplaceable app as a component.
    AssignmentSolution infeasible;
    infeasible.assignment.assign(apps, kUnassigned);
    infeasible.unassigned_count = apps;
    infeasible.stats.components = 1;
    infeasible.stats.unplaceable_apps = unplaceable;
    return infeasible;
  }

  LinearProgram lp;
  std::vector<int> integer_vars;
  // Variable p is x for pair p. Eq. 1 terms per (server, resource) are
  // gathered in pair order, so each lists its apps in ascending order.
  std::vector<std::vector<std::pair<int, double>>> capacity_terms(servers * resources);
  for (std::size_t p = 0; p < problem.num_pairs(); ++p) {
    integer_vars.push_back(lp.add_variable(problem.cost(p), 0.0, 1.0));
    for (std::size_t k = 0; k < resources; ++k) {
      capacity_terms[problem.server(p) * resources + k].emplace_back(static_cast<int>(p),
                                                                     problem.demand(p, k));
    }
  }
  // y_var[j] exists only for initially-off servers with at least one pair.
  std::vector<int> y_var(servers, -1);
  for (std::size_t j = 0; j < servers; ++j) {
    if (problem.initially_on(j) || capacity_terms[j * resources].empty()) continue;
    y_var[j] = lp.add_variable(problem.activation_cost(j), 0.0, 1.0);
    integer_vars.push_back(y_var[j]);
  }

  // Eq. 3: each app placed exactly once.
  for (std::size_t i = 0; i < apps; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (const std::size_t p : problem.row(i)) terms.emplace_back(static_cast<int>(p), 1.0);
    lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
  }
  // Eq. 1: capacity per server/resource, gated by y for off servers.
  for (std::size_t j = 0; j < servers; ++j) {
    for (std::size_t k = 0; k < resources; ++k) {
      std::vector<std::pair<int, double>> terms = capacity_terms[j * resources + k];
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
      for (const auto& term : capacity_terms[j * resources]) {
        lp.add_constraint({{term.first, 1.0}, {y_var[j], -1.0}}, Sense::kLessEqual, 0.0);
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
      const std::size_t p = problem.find(i, greedy.assignment[i]);
      if (p != kNoPair) values[p] = 1.0;
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
      greedy.stats.milp_limit_hits = milp.limit_hit ? 1 : 0;
      return greedy;
    }
    AssignmentSolution infeasible;
    infeasible.assignment.assign(apps, kUnassigned);
    infeasible.unassigned_count = apps;
    infeasible.stats.components = 1;
    infeasible.stats.exact_shards = 1;
    infeasible.stats.milp_nodes = milp.nodes_explored;
    infeasible.stats.milp_limit_hits = milp.limit_hit ? 1 : 0;
    return infeasible;
  }

  std::vector<std::size_t> assignment(apps, kUnassigned);
  for (std::size_t i = 0; i < apps; ++i) {
    for (const std::size_t p : problem.row(i)) {
      if (milp.values[p] > 0.5) {
        assignment[i] = problem.server(p);
        break;
      }
    }
  }
  AssignmentSolution solution = evaluate(problem, assignment);
  solution.stats.components = 1;
  solution.stats.exact_shards = 1;
  solution.stats.milp_nodes = milp.nodes_explored;
  solution.stats.milp_limit_hits = milp.limit_hit ? 1 : 0;
  return solution;
}

// ---------------------------------------------------------------------------
// Regret greedy + local search
// ---------------------------------------------------------------------------

namespace {

// Server -> pairs transpose of the CSR pair list, built by a counting sort:
// column j lists j's pairs in ascending app order, each with its app.
// Per-call scratch for the greedy and the local search; the problem itself
// keeps only the pair list.
class ColumnIndex {
 public:
  struct Entry {
    std::size_t app;
    std::size_t pair;
  };

  explicit ColumnIndex(const AssignmentProblem& problem)
      : begin_(problem.num_servers() + 1, 0), entries_(problem.num_pairs()) {
    for (std::size_t p = 0; p < problem.num_pairs(); ++p) ++begin_[problem.server(p) + 1];
    for (std::size_t j = 0; j < problem.num_servers(); ++j) begin_[j + 1] += begin_[j];
    std::vector<std::size_t> next(begin_.begin(), begin_.end() - 1);
    for (std::size_t i = 0; i < problem.num_apps(); ++i) {
      for (const std::size_t p : problem.row(i)) entries_[next[problem.server(p)]++] = {i, p};
    }
  }

  [[nodiscard]] std::span<const Entry> column(std::size_t server) const noexcept {
    return {entries_.data() + begin_[server], begin_[server + 1] - begin_[server]};
  }

 private:
  std::vector<std::size_t> begin_;  // num_servers + 1 offsets into entries_
  std::vector<Entry> entries_;
};

struct GreedyState {
  std::vector<double> remaining;       // server x resource
  std::vector<std::uint8_t> planned_on;

  explicit GreedyState(const AssignmentProblem& p)
      : remaining(p.num_servers() * p.num_resources()),
        planned_on(p.num_servers()) {
    for (std::size_t j = 0; j < p.num_servers(); ++j) {
      planned_on[j] = p.initially_on(j) ? 1 : 0;
      for (std::size_t k = 0; k < p.num_resources(); ++k) {
        remaining[j * p.num_resources() + k] = p.capacity(j, k);
      }
    }
  }

  [[nodiscard]] bool fits(const AssignmentProblem& p, std::size_t pair) const {
    const std::size_t j = p.server(pair);
    for (std::size_t k = 0; k < p.num_resources(); ++k) {
      if (p.demand(pair, k) > remaining[j * p.num_resources() + k] + 1e-9) return false;
    }
    return true;
  }

  [[nodiscard]] double effective_cost(const AssignmentProblem& p, std::size_t pair) const {
    double c = p.cost(pair);
    if (!planned_on[p.server(pair)]) c += p.activation_cost(p.server(pair));
    return c;
  }

  void commit(const AssignmentProblem& p, std::size_t pair) {
    const std::size_t j = p.server(pair);
    for (std::size_t k = 0; k < p.num_resources(); ++k) {
      remaining[j * p.num_resources() + k] -= p.demand(pair, k);
    }
    planned_on[j] = 1;
  }
};

}  // namespace

AssignmentSolution solve_greedy(const AssignmentProblem& problem) {
  const std::size_t apps = problem.num_apps();
  GreedyState state(problem);
  const ColumnIndex columns(problem);
  std::vector<std::size_t> placed(apps, kNoPair);  // each app's committed pair

  // Per app, the two cheapest effective costs among its pairs that still
  // fit, and the pair of the cheapest (the first in row order on a tie).
  struct Options {
    double best = kInfinity;
    double second = kInfinity;
    std::size_t best_pair = kNoPair;
  };
  std::vector<Options> options(apps);
  const auto rescan = [&](std::size_t i) {
    Options o;
    for (const std::size_t p : problem.row(i)) {
      // A pair no cheaper than the second option changes neither, so its
      // fit is tested only when it could.
      const double c = state.effective_cost(problem, p);
      if (c >= o.second || !state.fits(problem, p)) continue;
      if (c < o.best) {
        o.second = o.best;
        o.best = c;
        o.best_pair = p;
      } else if (c < o.second) {
        o.second = c;
      }
    }
    options[i] = o;
  };
  for (std::size_t i = 0; i < apps; ++i) rescan(i);

  // Unplaced apps in ascending order. An app none of whose pairs fits is
  // dropped for good: capacity only shrinks. Greedy then fails over to a
  // partial answer, which evaluate() marks infeasible.
  std::vector<std::size_t> open(apps);
  std::iota(open.begin(), open.end(), std::size_t{0});
  for (;;) {
    // Pick the unplaced app with the largest regret (gap between its best
    // and second-best feasible option); ties favor the costlier best option.
    std::size_t pick = kUnassigned;
    std::size_t pick_slot = 0;
    std::size_t pick_pair = kNoPair;
    double pick_regret = -1.0;
    double pick_best_cost = -kInfinity;
    std::size_t kept = 0;
    for (const std::size_t i : open) {
      const Options& o = options[i];
      if (o.best_pair == kNoPair) continue;
      const double regret = (o.second == kInfinity) ? kInfinity : o.second - o.best;
      if (regret > pick_regret || (regret == pick_regret && o.best > pick_best_cost)) {
        pick_regret = regret;
        pick_best_cost = o.best;
        pick = i;
        pick_slot = kept;
        pick_pair = o.best_pair;
      }
      open[kept++] = i;
    }
    open.resize(kept);
    if (pick == kUnassigned) break;  // nothing placeable remains
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick_slot));

    const std::size_t j = problem.server(pick_pair);
    const bool was_on = state.planned_on[j] != 0;
    placed[pick] = pick_pair;
    state.commit(problem, pick_pair);
    // A pair's fit and effective cost depend on its own server only, so
    // only apps in j's column can see their options change.
    for (const ColumnIndex::Entry& entry : columns.column(j)) {
      const Options& o = options[entry.app];
      if (placed[entry.app] != kNoPair || o.best_pair == kNoPair) continue;
      if (!was_on) {
        // Powering j on lowered the cost of every pair on it.
        rescan(entry.app);
        continue;
      }
      // j's costs are unchanged and its capacity only shrank: the options
      // change only if a pair stopped fitting that was the best or could
      // have been the second.
      const bool counted = entry.pair == o.best_pair || problem.cost(entry.pair) <= o.second;
      if (counted && !state.fits(problem, entry.pair)) rescan(entry.app);
    }
  }
  std::vector<std::size_t> assignment(apps, kUnassigned);
  for (std::size_t i = 0; i < apps; ++i) {
    if (placed[i] != kNoPair) assignment[i] = problem.server(placed[i]);
  }
  AssignmentSolution solution = evaluate_pairs(problem, std::move(assignment), placed);
  solution.stats.components = 1;
  solution.stats.heuristic_shards = 1;
  return solution;
}

std::size_t improve_local_search(const AssignmentProblem& problem, AssignmentSolution& solution,
                                 std::size_t max_rounds) {
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  const std::size_t resources = problem.num_resources();
  // A hand-built assignment may be short: its missing apps are unassigned,
  // as evaluate() reads them.
  solution.assignment.resize(apps, kUnassigned);

  // Each app's current pair: kNoPair when the app is unassigned or sits on a
  // server it has no pair with (such an app stays put; evaluate() below
  // marks the answer infeasible).
  std::vector<std::size_t> current(apps, kNoPair);
  std::vector<double> load(servers * resources, 0.0);
  std::vector<std::size_t> count(servers, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    const std::size_t p = problem.find(i, solution.assignment[i]);
    if (p == kNoPair) continue;
    current[i] = p;
    const std::size_t j = problem.server(p);
    for (std::size_t k = 0; k < resources; ++k) load[j * resources + k] += problem.demand(p, k);
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
  // Whether pair `to` fits on its server once pair `leaving` (kNoPair: none)
  // has moved off it.
  const auto fits_after = [&](std::size_t to, std::size_t leaving) {
    const std::size_t j = problem.server(to);
    for (std::size_t k = 0; k < resources; ++k) {
      double used = load[j * resources + k];
      if (leaving != kNoPair) used -= problem.demand(leaving, k);
      if (used + problem.demand(to, k) > problem.capacity(j, k) + 1e-9) return false;
    }
    return true;
  };

  const ColumnIndex columns(problem);
  std::vector<std::size_t> pair_of_a(servers, kNoPair);
  std::size_t improvements = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;

    // Relocate moves over the app's row. `from` is re-read for every
    // candidate: after an applied move the app lives on its new server and
    // further targets must be evaluated against that.
    for (std::size_t i = 0; i < apps; ++i) {
      if (current[i] == kNoPair) continue;
      for (const std::size_t to : problem.row(i)) {
        const std::size_t from = current[i];
        if (to == from) continue;
        const std::size_t from_server = problem.server(from);
        const std::size_t to_server = problem.server(to);
        const double delta = problem.cost(to) - problem.cost(from) +
                             activation_delta_gain(to_server) -
                             activation_delta_release(from_server);
        if (delta < -1e-9 && fits_after(to, kNoPair)) {
          for (std::size_t k = 0; k < resources; ++k) {
            load[from_server * resources + k] -= problem.demand(from, k);
            load[to_server * resources + k] += problem.demand(to, k);
          }
          --count[from_server];
          ++count[to_server];
          solution.assignment[i] = to_server;
          current[i] = to;
          improved = true;
          ++improvements;
        }
      }
    }

    // Pairwise swaps of a with every later app b. A swap needs b to have a
    // pair on a's server, so b walks that server's column in ascending app
    // order; a's row is spread over a server-indexed scratch so its
    // targets are one lookup. After an applied swap a sits on b's server,
    // and the walk goes on past b in that server's column.
    for (std::size_t a = 0; a < apps; ++a) {
      if (current[a] == kNoPair) continue;
      for (const std::size_t p : problem.row(a)) pair_of_a[problem.server(p)] = p;
      std::size_t last_b = a;
      for (bool moved = true; moved;) {
        moved = false;
        const std::size_t pa = current[a];
        const std::size_t sa = problem.server(pa);
        const auto column = columns.column(sa);
        auto entry = std::upper_bound(
            column.begin(), column.end(), last_b,
            [](std::size_t app, const ColumnIndex::Entry& e) { return app < e.app; });
        for (; entry != column.end(); ++entry) {
          const std::size_t b = entry->app;
          const std::size_t pb = current[b];
          if (pb == kNoPair) continue;
          const std::size_t sb = problem.server(pb);
          const std::size_t a_to = pair_of_a[sb];
          if (sb == sa || a_to == kNoPair) continue;
          const std::size_t b_to = entry->pair;
          const double delta =
              problem.cost(a_to) + problem.cost(b_to) - problem.cost(pa) - problem.cost(pb);
          if (delta < -1e-9 && fits_after(a_to, pb) && fits_after(b_to, pa)) {
            for (std::size_t k = 0; k < resources; ++k) {
              load[sa * resources + k] += problem.demand(b_to, k) - problem.demand(pa, k);
              load[sb * resources + k] += problem.demand(a_to, k) - problem.demand(pb, k);
            }
            solution.assignment[a] = sb;
            solution.assignment[b] = sa;
            current[a] = a_to;
            current[b] = b_to;
            improved = true;
            ++improvements;
            last_b = b;
            moved = true;
            break;
          }
        }
      }
      for (const std::size_t p : problem.row(a)) pair_of_a[problem.server(p)] = kNoPair;
    }

    if (!improved) break;
  }

  AssignmentSolution refreshed = evaluate_pairs(problem, std::move(solution.assignment), current);
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
  std::size_t limit_hits = 0;
  if (problem.num_apps() * problem.num_servers() <= kExactSizeLimit) {
    AssignmentSolution exact = solve_exact(problem);
    if (exact.feasible) return exact;
    // A search that ran out of nodes before any incumbent is still counted.
    limit_hits = exact.stats.milp_limit_hits;
  }
  AssignmentSolution solution = solve_greedy(problem);
  improve_local_search(problem, solution, kLocalSearchRounds);
  solution.stats.milp_limit_hits = limit_hits;
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
    stats.milp_limit_hits += sub.stats.milp_limit_hits;
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
  metrics.milp_limit_hits.add(solution.stats.milp_limit_hits);
  metrics.problem_apps.observe(static_cast<double>(problem.num_apps()));
  return solution;
}

}  // namespace carbonedge::solver
