// The placement-shaped optimization problem (paper Eq. 1-7 after latency
// filtering) and its solution paths.
//
// An AssignmentProblem has `num_apps` applications to place on
// `num_servers` servers with multi-dimensional capacities. Only the
// feasible (app, server) pairs exist — Eq. 2's latency pre-filter removes
// the rest before the problem is built — and they are stored once, in CSR
// form: a list in strictly ascending (app, server) order with per-app row
// offsets. Pair p carries its server, its cost (the objective contribution
// of placing its app there; the policies encode E_ij * Ī_j, energy, or
// blended objectives here) and `num_resources` demands. A pair that is not
// in the list cannot be used. Servers that are initially off incur
// activation_cost(j) once if they receive any application (Eq. 6's second
// term; Eq. 4-5 power-state constraints).
//
// Two solution paths, cross-validated in tests:
//  * solve_exact   — branch-and-bound MILP; exact, testbed scale.
//  * solve_greedy + improve_local_search — regret greedy with relocate/swap
//                    improvement; any scale, near-optimal in practice.
// solve_auto, the one entry point placement uses, first shards the instance
// into connected components of the feasible-pair graph (see decompose.hpp —
// latency pre-filtering makes real batches block-diagonal, and the
// decomposition is exact) and then solves each component exactly when it is
// testbed scale, else with the heuristic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <span>
#include <vector>

#include "solver/milp.hpp"

namespace carbonedge::solver {

inline constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

/// Pair index returned by AssignmentProblem::find for a pair not in the list.
inline constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);

struct Component;  // solver/decompose.hpp

class AssignmentProblem {
 public:
  AssignmentProblem(std::size_t num_apps, std::size_t num_servers, std::size_t num_resources = 1);

  [[nodiscard]] std::size_t num_apps() const noexcept { return num_apps_; }
  [[nodiscard]] std::size_t num_servers() const noexcept { return num_servers_; }
  [[nodiscard]] std::size_t num_resources() const noexcept { return num_resources_; }
  [[nodiscard]] std::size_t num_pairs() const noexcept { return pair_server_.size(); }

  /// Appends a feasible pair. Pairs must arrive in strictly ascending
  /// (app, server) order with a finite cost and one demand per resource;
  /// anything else throws std::invalid_argument.
  void add_pair(std::size_t app, std::size_t server, double cost,
                std::span<const double> demands);
  void add_pair(std::size_t app, std::size_t server, double cost,
                std::initializer_list<double> demands) {
    add_pair(app, server, cost, std::span<const double>(demands.begin(), demands.size()));
  }

  /// Indices of `app`'s pairs, in ascending server order.
  [[nodiscard]] auto row(std::size_t app) const noexcept {
    return std::views::iota(row_start(app), row_start(app + 1));
  }
  /// Index of the (app, server) pair, or kNoPair when it is not feasible.
  [[nodiscard]] std::size_t find(std::size_t app, std::size_t server) const noexcept;

  [[nodiscard]] std::size_t server(std::size_t pair) const noexcept { return pair_server_[pair]; }
  [[nodiscard]] double cost(std::size_t pair) const noexcept { return pair_cost_[pair]; }
  [[nodiscard]] double demand(std::size_t pair, std::size_t resource) const noexcept {
    return pair_demand_[pair * num_resources_ + resource];
  }
  [[nodiscard]] std::span<const double> demands(std::size_t pair) const noexcept {
    return {pair_demand_.data() + pair * num_resources_, num_resources_};
  }

  void set_capacity(std::size_t server, std::size_t resource, double capacity);
  [[nodiscard]] double capacity(std::size_t server, std::size_t resource) const noexcept {
    return capacity_[server * num_resources_ + resource];
  }

  void set_activation_cost(std::size_t server, double cost);
  [[nodiscard]] double activation_cost(std::size_t server) const noexcept {
    return activation_cost_[server];
  }
  void set_initially_on(std::size_t server, bool on);
  [[nodiscard]] bool initially_on(std::size_t server) const noexcept {
    return initially_on_[server] != 0;
  }

 private:
  // Copies a component's already-validated rows straight into the
  // sub-problem's arrays, without add_pair's per-pair checks.
  friend AssignmentProblem extract_component(const AssignmentProblem& problem,
                                             const Component& component);

  [[nodiscard]] std::size_t row_start(std::size_t app) const noexcept {
    return app < row_begin_.size() ? row_begin_[app] : num_pairs();
  }

  std::size_t num_apps_;
  std::size_t num_servers_;
  std::size_t num_resources_;
  // row_begin_[i] is the first pair of app i, for every app up to the last
  // one with a pair; later apps have empty rows at the end of the list.
  std::vector<std::size_t> row_begin_;
  std::vector<std::size_t> pair_server_;
  std::vector<double> pair_cost_;
  std::vector<double> pair_demand_;  // [pair x resource]
  std::vector<double> capacity_;
  std::vector<double> activation_cost_;
  std::vector<std::uint8_t> initially_on_;
};

/// How a solver call answered: the decomposition shape and the path that
/// solved each shard. Solvers fill this in on the solutions they return;
/// evaluate() leaves it zeroed (a hand-built solution has no solve path).
struct SolveStats {
  std::size_t components = 0;       // connected components (1 = monolithic)
  std::size_t exact_shards = 0;     // components solved by the MILP
  std::size_t heuristic_shards = 0; // components solved by greedy + local search
  std::size_t unplaceable_apps = 0; // apps with no feasible server at all
  std::size_t milp_nodes = 0;       // total B&B nodes across exact shards
  std::size_t milp_limit_hits = 0;  // B&B searches stopped at max_nodes, so unproven
};

struct AssignmentSolution {
  bool feasible = false;
  std::vector<std::size_t> assignment;    // app -> server, kUnassigned if unplaced
  std::vector<std::uint8_t> powered_on;   // final y_j
  double total_cost = 0.0;                // placement + activation of new servers
  std::size_t unassigned_count = 0;
  SolveStats stats;                       // telemetry; not part of the answer
};

/// Recompute cost/power state/feasibility of an assignment vector. An app
/// placed on a server it has no pair with adds kInfinity to the cost.
[[nodiscard]] AssignmentSolution evaluate(const AssignmentProblem& problem,
                                          const std::vector<std::size_t>& assignment);

/// Check all Eq. 1-5 analogues: capacities respected, only feasible pairs
/// used, power states consistent (an empty `powered_on` skips the power
/// checks; any other length but num_servers() is rejected).
[[nodiscard]] bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution,
                            double tol = 1e-6);

[[nodiscard]] AssignmentSolution solve_exact(const AssignmentProblem& problem,
                                             const MilpOptions& options = {});
[[nodiscard]] AssignmentSolution solve_greedy(const AssignmentProblem& problem);

/// Relocate/swap improvement; returns the number of improving moves applied.
/// An assignment shorter than num_apps() is padded with kUnassigned, as
/// evaluate() reads it.
std::size_t improve_local_search(const AssignmentProblem& problem, AssignmentSolution& solution,
                                 std::size_t max_rounds = 20);

/// Shard into connected components (exact) and solve each one: the exact
/// MILP when its apps x servers is testbed scale, else — or when the MILP
/// finds no feasible answer — greedy + local search.
[[nodiscard]] AssignmentSolution solve_auto(const AssignmentProblem& problem);

}  // namespace carbonedge::solver
