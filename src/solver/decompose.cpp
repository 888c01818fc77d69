#include "solver/decompose.hpp"

#include <algorithm>
#include <numeric>

namespace carbonedge::solver {

namespace {

// Union-find with path halving; unions keep the smaller root, so component
// representatives (and therefore component order) are input-deterministic.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<Component> connected_components(const AssignmentProblem& problem) {
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  // One pass over the cost matrix up front; the union-find then walks only
  // the feasible support (short rows under banded geographies) in the same
  // ascending order as the old dense double scan — identical components.
  const FeasiblePairs pairs = enumerate_feasible_pairs(problem);
  UnionFind uf(apps + servers);
  std::vector<std::uint8_t> server_used(servers, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    for (const std::uint32_t j : pairs.of(i)) {
      uf.unite(i, apps + j);
      server_used[j] = 1;
    }
  }

  // Bucket members by root. Every component contains an app, so scanning
  // apps in index order discovers every component exactly once and fixes
  // the "ordered by smallest app index" contract.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> component_of_root(apps + servers, kNone);
  std::vector<Component> components;
  for (std::size_t i = 0; i < apps; ++i) {
    const std::size_t root = uf.find(i);
    if (component_of_root[root] == kNone) {
      component_of_root[root] = components.size();
      components.emplace_back();
    }
    components[component_of_root[root]].apps.push_back(i);
  }
  for (std::size_t j = 0; j < servers; ++j) {
    if (!server_used[j]) continue;
    components[component_of_root[uf.find(apps + j)]].servers.push_back(j);
  }
  return components;
}

AssignmentProblem extract_component(const AssignmentProblem& problem,
                                    const Component& component) {
  const std::size_t resources = problem.num_resources();
  AssignmentProblem sub(component.apps.size(), component.servers.size(), resources);
  for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
    const std::size_t j = component.servers[jj];
    for (std::size_t k = 0; k < resources; ++k) sub.set_capacity(jj, k, problem.capacity(j, k));
    sub.set_activation_cost(jj, problem.activation_cost(j));
    sub.set_initially_on(jj, problem.initially_on(j));
  }
  for (std::size_t ii = 0; ii < component.apps.size(); ++ii) {
    const std::size_t i = component.apps[ii];
    for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
      const std::size_t j = component.servers[jj];
      sub.set_cost(ii, jj, problem.cost(i, j));
      for (std::size_t k = 0; k < resources; ++k) {
        sub.set_demand(ii, jj, k, problem.demand(i, j, k));
      }
    }
  }
  return sub;
}

AssignmentSolution solve_sharded(const AssignmentProblem& problem,
                                 const AssignmentOptions& options) {
  const std::vector<Component> components = connected_components(problem);
  if (components.size() == 1 && components.front().apps.size() == problem.num_apps() &&
      components.front().servers.size() == problem.num_servers()) {
    // Nothing to shard and nothing to drop: skip the extraction copy.
    return solve_unsharded(problem, options);
  }

  std::vector<std::size_t> assignment(problem.num_apps(), kUnassigned);
  SolveStats stats;
  stats.components = components.size();
  for (const Component& component : components) {
    stats.largest_shard_apps = std::max(stats.largest_shard_apps, component.apps.size());
    if (component.servers.empty()) {
      // Unplaceable app(s): they stay kUnassigned.
      stats.unplaceable_apps += component.apps.size();
      continue;
    }
    const AssignmentSolution sub =
        solve_unsharded(extract_component(problem, component), options);
    for (std::size_t k = 0; k < component.apps.size(); ++k) {
      const std::size_t jj = sub.assignment[k];
      if (jj != kUnassigned) assignment[component.apps[k]] = component.servers[jj];
    }
    stats.exact_shards += sub.stats.exact_shards;
    stats.flow_shards += sub.stats.flow_shards;
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

}  // namespace carbonedge::solver
