#include "solver/assignment.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

// Tiny helper: fully feasible 1-resource problem with unit demands.
AssignmentProblem simple_problem(std::size_t apps, std::size_t servers) {
  AssignmentProblem p(apps, servers, 1);
  for (std::size_t j = 0; j < servers; ++j) p.set_capacity(j, 0, static_cast<double>(apps));
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) p.add_pair(i, j, static_cast<double>(i + j), {1.0});
  }
  return p;
}

TEST(AssignmentProblem, FreshProblemHasNoPairs) {
  const AssignmentProblem p(2, 2, 1);
  EXPECT_EQ(p.num_pairs(), 0u);
  EXPECT_TRUE(p.row(0).empty());
  EXPECT_EQ(p.find(0, 0), kNoPair);
  EXPECT_TRUE(p.initially_on(0));
}

TEST(AssignmentProblem, RowsAndFindFollowThePairList) {
  AssignmentProblem p(4, 3, 2);
  p.add_pair(0, 1, 5.0, {1.0, 2.0});
  p.add_pair(0, 2, 6.0, {3.0, 4.0});
  p.add_pair(2, 0, 7.0, {5.0, 6.0});  // app 1 and app 3 have no pairs
  ASSERT_EQ(p.num_pairs(), 3u);
  EXPECT_EQ(p.row(0).size(), 2u);
  EXPECT_TRUE(p.row(1).empty());
  EXPECT_EQ(p.row(2).front(), 2u);
  EXPECT_TRUE(p.row(3).empty());
  EXPECT_EQ(p.find(0, 2), 1u);
  EXPECT_EQ(p.find(0, 0), kNoPair);
  EXPECT_EQ(p.find(0, 7), kNoPair);  // out-of-range server
  EXPECT_EQ(p.find(3, 0), kNoPair);
  EXPECT_EQ(p.server(2), 0u);
  EXPECT_EQ(p.cost(1), 6.0);
  EXPECT_EQ(p.demand(1, 1), 4.0);
  EXPECT_EQ(p.demands(2)[0], 5.0);
}

TEST(AssignmentProblem, AddPairRejectsDescendingOrder) {
  AssignmentProblem p(2, 2, 1);
  p.add_pair(1, 0, 1.0, {1.0});
  EXPECT_THROW(p.add_pair(0, 1, 1.0, {1.0}), std::invalid_argument);  // earlier app
  EXPECT_THROW(p.add_pair(1, 0, 1.0, {1.0}), std::invalid_argument);  // duplicate pair
  p.add_pair(1, 1, 1.0, {1.0});
  EXPECT_EQ(p.num_pairs(), 2u);
}

TEST(AssignmentProblem, AddPairRejectsOutOfRangeIndex) {
  AssignmentProblem p(2, 2, 1);
  EXPECT_THROW(p.add_pair(2, 0, 1.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(p.add_pair(0, 2, 1.0, {1.0}), std::invalid_argument);
  EXPECT_EQ(p.num_pairs(), 0u);
}

TEST(AssignmentProblem, AddPairRejectsNonFiniteCost) {
  AssignmentProblem p(1, 1, 1);
  EXPECT_THROW(p.add_pair(0, 0, kInfinity, {1.0}), std::invalid_argument);
  EXPECT_THROW(p.add_pair(0, 0, std::nan(""), {1.0}), std::invalid_argument);
  EXPECT_EQ(p.num_pairs(), 0u);
}

TEST(AssignmentProblem, AddPairRejectsWrongDemandCount) {
  AssignmentProblem p(1, 1, 2);
  EXPECT_THROW(p.add_pair(0, 0, 1.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(p.add_pair(0, 0, 1.0, {1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_EQ(p.num_pairs(), 0u);
}

TEST(Evaluate, ComputesCostAndPowerStates) {
  AssignmentProblem p = simple_problem(2, 2);
  p.set_initially_on(1, false);
  p.set_activation_cost(1, 10.0);
  const AssignmentSolution sol = evaluate(p, {0, 1});
  EXPECT_TRUE(sol.feasible);
  // cost(0,0)=0 + cost(1,1)=2 + activation(1)=10.
  EXPECT_DOUBLE_EQ(sol.total_cost, 12.0);
  EXPECT_TRUE(sol.powered_on[1]);
}

TEST(Evaluate, CountsUnassigned) {
  const AssignmentProblem p = simple_problem(3, 2);
  const AssignmentSolution sol = evaluate(p, {0, kUnassigned, 1});
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.unassigned_count, 1u);
}

// Regression: a server index past the end used to be read from the cost
// matrix and written into powered_on out of bounds. It must only make the
// answer infeasible.
TEST(Evaluate, RejectsOutOfRangeServer) {
  const AssignmentProblem p = simple_problem(2, 2);
  const AssignmentSolution sol = evaluate(p, {0, 2});
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.powered_on.size(), 2u);
  EXPECT_DOUBLE_EQ(sol.total_cost, 0.0);  // only the in-range cost(0,0)
}

TEST(Validate, RejectsCapacityViolation) {
  AssignmentProblem p = simple_problem(3, 1);
  p.set_capacity(0, 0, 2.0);  // only two unit slots
  AssignmentSolution sol = evaluate(p, {0, 0, 0});
  EXPECT_FALSE(sol.feasible);
  EXPECT_FALSE(validate(p, sol));
}

TEST(Validate, RejectsInfeasiblePairUse) {
  AssignmentProblem p(2, 2, 1);
  for (std::size_t j = 0; j < 2; ++j) p.set_capacity(j, 0, 2.0);
  p.add_pair(0, 0, 0.0, {1.0});  // (0, 1) is latency-infeasible: no pair
  p.add_pair(1, 0, 1.0, {1.0});
  p.add_pair(1, 1, 2.0, {1.0});
  AssignmentSolution sol;
  sol.assignment = {1, 0};
  sol.powered_on = {1, 1};
  EXPECT_FALSE(validate(p, sol));
}

TEST(Validate, RejectsPoweredOffHosting) {
  AssignmentProblem p = simple_problem(1, 1);
  AssignmentSolution sol;
  sol.assignment = {0};
  sol.powered_on = {0};  // claims server off while hosting (Eq. 5)
  EXPECT_FALSE(validate(p, sol));
}

// Regression: a non-empty power-state vector shorter than the server list
// used to be read past its end.
TEST(Validate, RejectsPowerStateOfWrongLength) {
  const AssignmentProblem p = simple_problem(1, 2);
  AssignmentSolution sol;
  sol.assignment = {1};
  sol.powered_on = {1};
  EXPECT_FALSE(validate(p, sol));
}

TEST(Validate, RejectsPoweringOffInitiallyOnServer) {
  AssignmentProblem p = simple_problem(1, 2);
  AssignmentSolution sol;
  sol.assignment = {0};
  sol.powered_on = {1, 0};  // server 1 initially on but reported off (Eq. 4)
  EXPECT_FALSE(validate(p, sol));
}

TEST(SolveExact, PicksCheapestFeasible) {
  AssignmentProblem p = simple_problem(2, 3);
  const AssignmentSolution sol = solve_exact(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.assignment[0], 0u);
  EXPECT_EQ(sol.assignment[1], 0u);  // costs i+j favor server 0
  EXPECT_DOUBLE_EQ(sol.total_cost, 0.0 + 1.0);
}

TEST(SolveExact, RespectsCapacity) {
  AssignmentProblem p = simple_problem(2, 2);
  p.set_capacity(0, 0, 1.0);
  const AssignmentSolution sol = solve_exact(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_NE(sol.assignment[0], sol.assignment[1]);
}

TEST(SolveExact, WeighsActivationAgainstPlacement) {
  // Server 1 is cheaper per-app but off with a big activation cost: with one
  // app the optimizer stays on server 0; with three apps activation
  // amortizes and server 1 wins.
  const auto build = [](std::size_t apps) {
    AssignmentProblem p(apps, 2, 1);
    p.set_capacity(0, 0, 10.0);
    p.set_capacity(1, 0, 10.0);
    p.set_initially_on(1, false);
    p.set_activation_cost(1, 5.0);
    for (std::size_t i = 0; i < apps; ++i) {
      p.add_pair(i, 0, 4.0, {1.0});
      p.add_pair(i, 1, 1.0, {1.0});
    }
    return p;
  };
  const AssignmentSolution one = solve_exact(build(1));
  ASSERT_TRUE(one.feasible);
  EXPECT_EQ(one.assignment[0], 0u);  // 4 < 1 + 5
  const AssignmentSolution three = solve_exact(build(3));
  ASSERT_TRUE(three.feasible);
  for (const std::size_t j : three.assignment) EXPECT_EQ(j, 1u);  // 3+5 < 12
}

TEST(SolveExact, InfeasibleWhenAppHasNoServer) {
  AssignmentProblem p(1, 1, 1);  // no pairs
  const AssignmentSolution sol = solve_exact(p);
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.unassigned_count, 1u);
}

TEST(SolveGreedy, FeasibleAndReasonable) {
  AssignmentProblem p = simple_problem(5, 3);
  const AssignmentSolution sol = solve_greedy(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_TRUE(validate(p, sol));
}

TEST(SolveGreedy, HandlesTightCapacities) {
  AssignmentProblem p = simple_problem(4, 4);
  for (std::size_t j = 0; j < 4; ++j) p.set_capacity(j, 0, 1.0);
  const AssignmentSolution sol = solve_greedy(p);
  ASSERT_TRUE(sol.feasible);
  // All four servers used exactly once.
  std::array<int, 4> used{};
  for (const std::size_t j : sol.assignment) ++used[j];
  for (const int u : used) EXPECT_EQ(u, 1);
}

TEST(LocalSearch, FixesGreedyMisstep) {
  // Construct an instance where a swap strictly improves: two apps with
  // opposite preferences on capacity-1 servers.
  AssignmentProblem p(2, 2, 1);
  p.set_capacity(0, 0, 1.0);
  p.set_capacity(1, 0, 1.0);
  p.add_pair(0, 0, 5.0, {1.0});
  p.add_pair(0, 1, 1.0, {1.0});
  p.add_pair(1, 0, 1.0, {1.0});
  p.add_pair(1, 1, 5.0, {1.0});
  AssignmentSolution sol = evaluate(p, {0, 1});  // the bad crossing, cost 10
  EXPECT_DOUBLE_EQ(sol.total_cost, 10.0);
  const std::size_t moves = improve_local_search(p, sol);
  EXPECT_GE(moves, 1u);
  EXPECT_DOUBLE_EQ(sol.total_cost, 2.0);
  EXPECT_TRUE(validate(p, sol));
}

// Regression: a hand-built solution with a short assignment used to be read
// and written past its end. Missing apps are unassigned, as in evaluate().
TEST(LocalSearch, PadsShortAssignment) {
  const AssignmentProblem p = simple_problem(3, 2);
  AssignmentSolution empty;
  EXPECT_EQ(improve_local_search(p, empty), 0u);
  ASSERT_EQ(empty.assignment.size(), 3u);
  for (const std::size_t j : empty.assignment) EXPECT_EQ(j, kUnassigned);
  EXPECT_EQ(empty.unassigned_count, 3u);
  EXPECT_FALSE(empty.feasible);

  AssignmentSolution partial;
  partial.assignment = {1};  // app 0 on its costlier server
  EXPECT_EQ(improve_local_search(p, partial), 1u);
  EXPECT_EQ(partial.assignment, (std::vector<std::size_t>{0, kUnassigned, kUnassigned}));
  EXPECT_DOUBLE_EQ(partial.total_cost, 0.0);
}

// Two apps that both prefer server 0, which holds one and a half of them:
// the root relaxation splits app 0, so B&B has to branch.
AssignmentProblem fractional_root_problem() {
  AssignmentProblem p(2, 2, 1);
  p.set_capacity(0, 0, 1.5);
  p.set_capacity(1, 0, 1.5);
  p.add_pair(0, 0, 1.0, {1.0});
  p.add_pair(0, 1, 2.0, {1.0});
  p.add_pair(1, 0, 1.0, {1.0});
  p.add_pair(1, 1, 3.0, {1.0});
  return p;
}

TEST(SolveExact, CountsNodeLimitHits) {
  const AssignmentProblem p = fractional_root_problem();
  MilpOptions options;
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
    options.max_nodes = budget;
    const AssignmentSolution capped = solve_exact(p, options);
    // The greedy warm start is the incumbent, and here also optimal.
    ASSERT_TRUE(capped.feasible) << "max_nodes " << budget;
    EXPECT_DOUBLE_EQ(capped.total_cost, 3.0);
    EXPECT_EQ(capped.stats.exact_shards, 1u);
    EXPECT_EQ(capped.stats.milp_nodes, budget);
    EXPECT_EQ(capped.stats.milp_limit_hits, 1u) << "max_nodes " << budget;
  }
  const AssignmentSolution proven = solve_exact(p);
  EXPECT_DOUBLE_EQ(proven.total_cost, 3.0);
  EXPECT_GT(proven.stats.milp_nodes, 1u);
  EXPECT_EQ(proven.stats.milp_limit_hits, 0u);
  EXPECT_EQ(solve_auto(p).stats.milp_limit_hits, 0u);
}

// Regression (fallback bug): when B&B comes up with no incumbent at all
// (node budget exhausted before the first integer point, or a numerically
// stranded warm start — simulated here by rejecting every warm value via a
// hostile integrality tolerance on a zero-node budget), solve_exact used to
// discard the feasible greedy placement it had already computed and return
// an all-kUnassigned shell. It must return the greedy incumbent instead.
TEST(SolveExact, ReturnsGreedyIncumbentWhenSearchComesUpEmpty) {
  AssignmentProblem p = simple_problem(3, 2);
  MilpOptions starved;
  starved.max_nodes = 0;
  starved.integrality_tolerance = -1.0;
  const AssignmentSolution sol = solve_exact(p, starved);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.unassigned_count, 0u);
  EXPECT_TRUE(validate(p, sol));
  // The answer is the heuristic incumbent, not a proven optimum.
  EXPECT_EQ(sol.stats.heuristic_shards, 1u);
  EXPECT_EQ(sol.stats.exact_shards, 0u);
  EXPECT_EQ(sol.stats.milp_limit_hits, 1u);
}

// Property suite: random multi-resource instances — exact is never worse
// than greedy+LS, and both are valid.
class RandomAssignment : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssignment, SolverHierarchyHolds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271828 + 7);
  const std::size_t apps = 2 + rng.uniform_index(5);
  const std::size_t servers = 2 + rng.uniform_index(3);
  AssignmentProblem p(apps, servers, 2);
  for (std::size_t j = 0; j < servers; ++j) {
    p.set_capacity(j, 0, rng.uniform(2.0, 8.0));
    p.set_capacity(j, 1, rng.uniform(2.0, 8.0));
    if (rng.bernoulli(0.3)) {
      p.set_initially_on(j, false);
      p.set_activation_cost(j, rng.uniform(0.0, 5.0));
    }
  }
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      if (rng.bernoulli(0.15)) continue;  // latency-infeasible pair
      const double cost = rng.uniform(0.0, 10.0);
      const double memory = rng.uniform(0.3, 1.5);
      p.add_pair(i, j, cost, {memory, rng.uniform(0.3, 1.5)});
    }
  }

  const AssignmentSolution exact = solve_exact(p);
  AssignmentSolution heuristic = solve_greedy(p);
  improve_local_search(p, heuristic);

  if (exact.feasible) {
    EXPECT_TRUE(validate(p, exact));
    if (heuristic.feasible) {
      EXPECT_LE(exact.total_cost, heuristic.total_cost + 1e-6) << "seed " << GetParam();
    }
  } else {
    // If the exact solver proves infeasibility the heuristic cannot find a
    // valid full assignment either.
    EXPECT_FALSE(heuristic.feasible) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomAssignment, ::testing::Range(0, 60));

}  // namespace
}  // namespace carbonedge::solver
