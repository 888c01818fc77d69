// The placement-shaped optimization problem (paper Eq. 1-7 after latency
// filtering) and its solution paths.
//
// An AssignmentProblem has `num_apps` applications to place on
// `num_servers` servers with multi-dimensional capacities. cost(i,j) is the
// objective contribution of placing app i on server j (the policies encode
// E_ij * Ī_j, energy, or blended objectives here); +infinity marks a
// latency-infeasible pair (Eq. 2 pre-filtered). Servers that are initially
// off incur activation_cost(j) once if they receive any application
// (Eq. 6's second term; Eq. 4-5 power-state constraints).
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
#include <vector>

#include "solver/lp.hpp"
#include "solver/milp.hpp"

namespace carbonedge::solver {

inline constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

class AssignmentProblem {
 public:
  AssignmentProblem(std::size_t num_apps, std::size_t num_servers, std::size_t num_resources = 1);

  [[nodiscard]] std::size_t num_apps() const noexcept { return num_apps_; }
  [[nodiscard]] std::size_t num_servers() const noexcept { return num_servers_; }
  [[nodiscard]] std::size_t num_resources() const noexcept { return num_resources_; }

  void set_cost(std::size_t app, std::size_t server, double cost);
  [[nodiscard]] double cost(std::size_t app, std::size_t server) const noexcept {
    return cost_[app * num_servers_ + server];
  }
  [[nodiscard]] bool feasible_pair(std::size_t app, std::size_t server) const noexcept {
    return cost(app, server) < kInfinity;
  }

  void set_demand(std::size_t app, std::size_t server, std::size_t resource, double demand);
  [[nodiscard]] double demand(std::size_t app, std::size_t server,
                              std::size_t resource) const noexcept {
    return demand_[(app * num_servers_ + server) * num_resources_ + resource];
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
  std::size_t num_apps_;
  std::size_t num_servers_;
  std::size_t num_resources_;
  std::vector<double> cost_;
  std::vector<double> demand_;
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
};

struct AssignmentSolution {
  bool feasible = false;
  std::vector<std::size_t> assignment;    // app -> server, kUnassigned if unplaced
  std::vector<std::uint8_t> powered_on;   // final y_j
  double total_cost = 0.0;                // placement + activation of new servers
  std::size_t unassigned_count = 0;
  SolveStats stats;                       // telemetry; not part of the answer
};

/// Recompute cost/power state/feasibility of an assignment vector.
[[nodiscard]] AssignmentSolution evaluate(const AssignmentProblem& problem,
                                          const std::vector<std::size_t>& assignment);

/// Check all Eq. 1-5 analogues: capacities respected, only feasible pairs
/// used, power states consistent.
[[nodiscard]] bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution,
                            double tol = 1e-6);

[[nodiscard]] AssignmentSolution solve_exact(const AssignmentProblem& problem,
                                             const MilpOptions& options = {});
[[nodiscard]] AssignmentSolution solve_greedy(const AssignmentProblem& problem);

/// Relocate/swap improvement; returns the number of improving moves applied.
std::size_t improve_local_search(const AssignmentProblem& problem, AssignmentSolution& solution,
                                 std::size_t max_rounds = 20);

/// Shard into connected components (exact) and solve each one: the exact
/// MILP when its apps x servers is testbed scale, else — or when the MILP
/// finds no feasible answer — greedy + local search.
[[nodiscard]] AssignmentSolution solve_auto(const AssignmentProblem& problem);

}  // namespace carbonedge::solver
