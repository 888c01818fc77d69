#include "solver/decompose.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

// K independent blocks glued into one problem: block-diagonal feasibility,
// two resources, one cold spare per block so activation decisions are in
// play. Mirrors a latency-filtered multi-metro batch. `skip_app` (if any)
// gets no pairs; `bridge` (if any) is one extra cost-5 pair.
struct Bridge {
  std::size_t app;
  std::size_t server;
};

AssignmentProblem block_instance(std::size_t blocks, std::size_t apps_per,
                                 std::size_t servers_per, std::uint64_t seed,
                                 double infeasible_p = 0.1, std::size_t skip_app = kUnassigned,
                                 std::optional<Bridge> bridge = std::nullopt) {
  util::Rng rng(seed);
  AssignmentProblem p(blocks * apps_per, blocks * servers_per, 2);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < servers_per; ++j) {
      p.set_capacity(b * servers_per + j, 0, rng.uniform(2.0, 6.0));
      p.set_capacity(b * servers_per + j, 1, rng.uniform(2.0, 6.0));
    }
    p.set_initially_on(b * servers_per + servers_per - 1, false);
    p.set_activation_cost(b * servers_per + servers_per - 1, rng.uniform(1.0, 6.0));
    for (std::size_t i = 0; i < apps_per; ++i) {
      const std::size_t row = b * apps_per + i;
      for (std::size_t j = 0; j < servers_per; ++j) {
        if (rng.bernoulli(infeasible_p)) continue;
        const std::size_t col = b * servers_per + j;
        const double cost = rng.uniform(0.5, 10.0);
        const double memory = rng.uniform(0.2, 1.2);
        const double compute = rng.uniform(0.2, 1.2);
        if (row != skip_app) p.add_pair(row, col, cost, {memory, compute});
      }
      if (bridge && bridge->app == row) p.add_pair(row, bridge->server, 5.0, {0.5, 0.5});
    }
  }
  return p;
}

TEST(ConnectedComponents, SplitsBlockDiagonalInstances) {
  const AssignmentProblem p = block_instance(3, 2, 2, 42, /*infeasible_p=*/0.0);
  const std::vector<Component> components = connected_components(p);
  ASSERT_EQ(components.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(components[b].apps, (std::vector<std::size_t>{2 * b, 2 * b + 1}));
    EXPECT_EQ(components[b].servers, (std::vector<std::size_t>{2 * b, 2 * b + 1}));
  }
}

TEST(ConnectedComponents, UnplaceableAppIsAnAppOnlySingleton) {
  AssignmentProblem p(3, 2, 1);
  p.add_pair(0, 0, 1.0, {0.0});
  p.add_pair(2, 1, 1.0, {0.0});  // app 1 has no feasible server
  const std::vector<Component> components = connected_components(p);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[1].apps, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(components[1].servers.empty());
}

TEST(ConnectedComponents, ServerWithoutFeasiblePairsJoinsNoComponent) {
  AssignmentProblem p(2, 3, 1);
  p.add_pair(0, 0, 1.0, {0.0});
  p.add_pair(1, 2, 1.0, {0.0});  // server 1 never appears
  const std::vector<Component> components = connected_components(p);
  ASSERT_EQ(components.size(), 2u);
  for (const Component& component : components) {
    for (const std::size_t j : component.servers) EXPECT_NE(j, 1u);
  }
}

TEST(ConnectedComponents, BridgingAppMergesBlocks) {
  ASSERT_EQ(connected_components(block_instance(2, 2, 2, 7, /*infeasible_p=*/0.0)).size(), 2u);
  // The same instance where app 0 can also reach block 2's server 3.
  const AssignmentProblem bridged =
      block_instance(2, 2, 2, 7, /*infeasible_p=*/0.0, kUnassigned, Bridge{0, 3});
  EXPECT_EQ(connected_components(bridged).size(), 1u);
}

TEST(ExtractComponent, PreservesCostsDemandsCapacitiesAndPowerState) {
  const AssignmentProblem p = block_instance(2, 3, 2, 11);
  const std::vector<Component> components = connected_components(p);
  for (const Component& component : components) {
    const AssignmentProblem sub = extract_component(p, component);
    ASSERT_EQ(sub.num_apps(), component.apps.size());
    ASSERT_EQ(sub.num_servers(), component.servers.size());
    ASSERT_EQ(sub.num_resources(), p.num_resources());
    for (std::size_t ii = 0; ii < component.apps.size(); ++ii) {
      const std::size_t i = component.apps[ii];
      ASSERT_EQ(sub.row(ii).size(), p.row(i).size());
      for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
        const std::size_t j = component.servers[jj];
        const std::size_t sub_pair = sub.find(ii, jj);
        const std::size_t pair = p.find(i, j);
        ASSERT_EQ(sub_pair == kNoPair, pair == kNoPair);
        if (pair == kNoPair) continue;
        EXPECT_EQ(sub.cost(sub_pair), p.cost(pair));
        for (std::size_t k = 0; k < p.num_resources(); ++k) {
          EXPECT_EQ(sub.demand(sub_pair, k), p.demand(pair, k));
        }
      }
    }
    for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
      const std::size_t j = component.servers[jj];
      for (std::size_t k = 0; k < p.num_resources(); ++k) {
        EXPECT_EQ(sub.capacity(jj, k), p.capacity(j, k));
      }
      EXPECT_EQ(sub.activation_cost(jj), p.activation_cost(j));
      EXPECT_EQ(sub.initially_on(jj), p.initially_on(j));
    }
  }
}

// Differential property: the stitched sharded solve must reproduce the
// monolithic exact optimum on multi-component instances (the decomposition
// is exact — nothing couples components).
class ShardedVsMonolithic : public ::testing::TestWithParam<int> {};

TEST_P(ShardedVsMonolithic, StitchedCostEqualsMonolithicExact) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::size_t blocks = 2 + seed % 3;
  const AssignmentProblem p = block_instance(blocks, 3, 2, seed * 6151 + 13);

  const AssignmentSolution mono = solve_exact(p);
  const AssignmentSolution sharded = solve_auto(p);  // every component is testbed scale

  // Random infeasible pairs can split a block further (or strand an app),
  // so the block count is a lower bound; every solved shard must have gone
  // through the MILP at this size limit.
  EXPECT_GE(sharded.stats.components, blocks) << "seed " << seed;
  ASSERT_EQ(mono.feasible, sharded.feasible) << "seed " << seed;
  if (!mono.feasible) return;
  EXPECT_TRUE(validate(p, sharded)) << "seed " << seed;
  EXPECT_NEAR(mono.total_cost, sharded.total_cost, 1e-6) << "seed " << seed;
  // A fully placed sharded answer means every component went through the
  // MILP at this size limit (no unplaceable singletons, no fallbacks).
  EXPECT_EQ(sharded.stats.exact_shards, sharded.stats.components) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedVsMonolithic, ::testing::Range(0, 30));

// Sharded solve_auto must never do worse than the monolithic heuristic
// (greedy + local search over the whole batch).
class ShardedVsUnsharded : public ::testing::TestWithParam<int> {};

TEST_P(ShardedVsUnsharded, AutoCostNeverWorseThanMonolithicAuto) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const AssignmentProblem p = block_instance(2 + seed % 4, 3, 2, seed * 2953 + 5);

  const AssignmentSolution sharded = solve_auto(p);
  AssignmentSolution mono = solve_greedy(p);
  improve_local_search(p, mono);

  // Sharding never loses a placement the monolith found (each component is
  // testbed scale here, so every shard solves exactly); the reverse can
  // happen — the monolithic heuristic may strand a placeable app.
  if (mono.feasible) {
    ASSERT_TRUE(sharded.feasible) << "seed " << seed;
  }
  if (!sharded.feasible) return;
  EXPECT_TRUE(validate(p, sharded)) << "seed " << seed;
  // The sharded answer solves every component exactly, so it can only match
  // or beat the monolithic heuristic.
  if (mono.feasible) {
    EXPECT_LE(sharded.total_cost, mono.total_cost + 1e-6) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedVsUnsharded, ::testing::Range(0, 30));

TEST(SolveSharded, UnplaceableAppsAreIsolatedNotContagious) {
  // One app with no feasible server must not drag the rest of the batch
  // off the exact path: the other components still solve and stitch.
  const AssignmentProblem p =
      block_instance(2, 2, 2, 21, /*infeasible_p=*/0.0, /*skip_app=*/2);
  const AssignmentSolution sharded = solve_auto(p);
  EXPECT_FALSE(sharded.feasible);  // the batch as a whole is not fully placed
  EXPECT_EQ(sharded.unassigned_count, 1u);
  EXPECT_EQ(sharded.assignment[2], kUnassigned);
  EXPECT_EQ(sharded.stats.unplaceable_apps, 1u);
  // Every other app landed.
  for (const std::size_t i : {0u, 1u, 3u}) EXPECT_NE(sharded.assignment[i], kUnassigned);
}

TEST(SolveAuto, ShardingKeepsLargeMultiComponentBatchesExact) {
  // 6 blocks x (3x2) = 18x12 = 216 pairs: far beyond solve_auto's
  // exact-size limit as a monolith, yet every component is 6 pairs. The
  // sharded auto must agree with the (limit-free) monolithic exact optimum.
  const AssignmentProblem p = block_instance(6, 3, 2, 1234);
  const AssignmentSolution sharded = solve_auto(p);
  const AssignmentSolution exact = solve_exact(p);
  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(sharded.feasible);
  EXPECT_NEAR(sharded.total_cost, exact.total_cost, 1e-6);
  EXPECT_EQ(sharded.stats.components, 6u);
  EXPECT_EQ(sharded.stats.exact_shards, 6u);
  EXPECT_EQ(sharded.stats.heuristic_shards, 0u);
}

TEST(SolveSharded, SingleComponentSpanningProblemSkipsExtraction) {
  // Fully connected instance: one component covering everything is solved
  // without extraction (stats come back monolithic).
  AssignmentProblem p(2, 2, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) p.add_pair(i, j, static_cast<double>(i + j + 1), {1.0});
    p.set_capacity(i, 0, 2.0);
  }
  const AssignmentSolution sol = solve_auto(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.stats.components, 1u);
}

}  // namespace
}  // namespace carbonedge::solver
