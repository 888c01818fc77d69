// Placement-instance sharding: connected-component decomposition of the
// feasible-pair bipartite graph.
//
// Eq. 2 latency pre-filtering makes real placement batches block-diagonal:
// an application in one metro cannot land on another metro's servers, so
// the AssignmentProblem almost always splits into independent components
// (union-find over apps ∪ servers, one union per entry of the problem's
// pair list). Costs,
// demands, capacities, and activation costs never couple two components —
// every server belongs to at most one — so solving each component
// separately and stitching the sub-solutions back is exact: the stitched
// cost equals the monolithic optimum whenever every component is solved
// exactly. solve_auto solves the components one after another in component
// order and applies its exact-size limit per component, so batches that
// would be heuristic-only as monoliths become exactly solvable shard by
// shard.
#pragma once

#include <cstddef>
#include <vector>

#include "solver/assignment.hpp"

namespace carbonedge::solver {

/// One connected component of the feasible-pair graph: parent-problem app
/// and server indices, each in increasing order (extraction preserves
/// relative order, so per-component solves are deterministic).
struct Component {
  std::vector<std::size_t> apps;
  std::vector<std::size_t> servers;
};

/// Connected components, ordered by smallest app index. Every component has
/// at least one app; an app with no feasible server forms an app-only
/// singleton (empty server list). Servers with no feasible app belong to no
/// component — they cannot receive load and keep their initial power state.
[[nodiscard]] std::vector<Component> connected_components(const AssignmentProblem& problem);

/// The sub-problem induced by `component`: app `k` / server `k` of the
/// result is app `component.apps[k]` / server `component.servers[k]` of
/// `problem`, and its pair list holds those apps' pairs, renumbered and
/// still in ascending (app, server) order.
[[nodiscard]] AssignmentProblem extract_component(const AssignmentProblem& problem,
                                                  const Component& component);

}  // namespace carbonedge::solver
