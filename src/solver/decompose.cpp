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
  // One pass over the pair list in ascending (app, server) order, uniting
  // every pair's app and server.
  UnionFind uf(apps + servers);
  std::vector<std::uint8_t> server_used(servers, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    for (const std::size_t p : problem.row(i)) {
      const std::size_t j = problem.server(p);
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
  // Dense parent server -> local column map; only component servers are
  // written, and only they are read.
  std::vector<std::size_t> local(problem.num_servers());
  for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
    const std::size_t j = component.servers[jj];
    local[j] = jj;
    for (std::size_t k = 0; k < resources; ++k) sub.set_capacity(jj, k, problem.capacity(j, k));
    sub.set_activation_cost(jj, problem.activation_cost(j));
    sub.set_initially_on(jj, problem.initially_on(j));
  }
  // Every pair of a component app lands on a component server, and the
  // local numbering keeps the servers' order, so each parent row is
  // already a valid, ascending sub-problem row: copy it, renumbering only
  // its servers. A row's costs and demands are contiguous in the parent.
  std::size_t pairs = 0;
  for (const std::size_t i : component.apps) pairs += problem.row(i).size();
  sub.pair_server_.reserve(pairs);
  sub.pair_cost_.reserve(pairs);
  sub.pair_demand_.reserve(pairs * resources);
  for (std::size_t ii = 0; ii < component.apps.size(); ++ii) {
    const auto row = problem.row(component.apps[ii]);
    if (row.empty()) continue;
    // Rows up to ii start here; later empty rows stay implicit, as add_pair
    // leaves them.
    sub.row_begin_.resize(ii + 1, sub.num_pairs());
    const auto first = static_cast<std::ptrdiff_t>(row.front());
    const auto last = static_cast<std::ptrdiff_t>(row.back() + 1);
    const auto width = static_cast<std::ptrdiff_t>(resources);
    for (const std::size_t p : row) sub.pair_server_.push_back(local[problem.server(p)]);
    sub.pair_cost_.insert(sub.pair_cost_.end(), problem.pair_cost_.begin() + first,
                          problem.pair_cost_.begin() + last);
    sub.pair_demand_.insert(sub.pair_demand_.end(), problem.pair_demand_.begin() + first * width,
                            problem.pair_demand_.begin() + last * width);
  }
  return sub;
}

}  // namespace carbonedge::solver
