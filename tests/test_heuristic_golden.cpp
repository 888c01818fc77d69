// Heuristic solver output pinned to checked-in answers: two hundred seeded
// instances shaped like the shards a year-long cdn_us sweep sends down the
// heuristic path must reproduce, bit for bit, what solve_greedy and
// improve_local_search recorded in tests/data/heuristic_golden.txt. Each
// instance has 20-130 apps with about ten pairs per row on servers the rows
// share, integer costs and demands (so regret and cost ties are common),
// initially-off servers with activation costs, and capacities tight enough
// that pairs stop fitting and apps are stranded. Local search runs twice:
// from the greedy answer and from a first-fit start that leaves it many
// relocations and swaps to make. A change to the greedy or the local search
// that moves a pick, a move or a floating-point sum shows up here as a diff
// against that file. (solver_golden.txt pins solve_auto, whose heuristic
// shards stay below 15 apps.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "solver/assignment.hpp"
#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

constexpr int kInstances = 200;

AssignmentProblem shard_instance(int round) {
  util::Rng rng = util::Rng(0x6E0215).fork(static_cast<std::uint64_t>(round));
  const std::size_t apps = 20 + rng.uniform_index(111);
  const std::size_t servers = 8 + rng.uniform_index(33);
  const double pair_p = std::min(1.0, 10.0 / static_cast<double>(servers));
  // Demands average 2 per resource; capacities sum to about `tightness` times
  // the total demand.
  const double tightness = rng.uniform(0.8, 2.4);
  const auto cap_span = static_cast<std::uint64_t>(
      std::max(1.0, 4.0 * static_cast<double>(apps) * tightness / static_cast<double>(servers)));

  AssignmentProblem p(apps, servers, 2);
  for (std::size_t j = 0; j < servers; ++j) {
    p.set_capacity(j, 0, static_cast<double>(1 + rng.uniform_index(cap_span)));
    p.set_capacity(j, 1, static_cast<double>(1 + rng.uniform_index(cap_span)));
    if (rng.bernoulli(0.4)) {
      p.set_initially_on(j, false);
      p.set_activation_cost(j, static_cast<double>(1 + rng.uniform_index(12)));
    }
  }
  for (std::size_t i = 0; i < apps; ++i) {
    if (rng.bernoulli(0.02)) continue;  // no feasible server at all
    for (std::size_t j = 0; j < servers; ++j) {
      if (!rng.bernoulli(pair_p)) continue;
      const auto cost = static_cast<double>(1 + rng.uniform_index(9));
      const auto memory = static_cast<double>(1 + rng.uniform_index(3));
      const auto compute = static_cast<double>(1 + rng.uniform_index(3));
      p.add_pair(i, j, cost, {memory, compute});
    }
  }
  return p;
}

// Each app, in index order, on the first server of its row with room left.
AssignmentSolution first_fit(const AssignmentProblem& p) {
  std::vector<double> remaining(p.num_servers() * p.num_resources());
  for (std::size_t j = 0; j < p.num_servers(); ++j) {
    for (std::size_t k = 0; k < p.num_resources(); ++k) {
      remaining[j * p.num_resources() + k] = p.capacity(j, k);
    }
  }
  std::vector<std::size_t> assignment(p.num_apps(), kUnassigned);
  for (std::size_t i = 0; i < p.num_apps(); ++i) {
    for (const std::size_t pair : p.row(i)) {
      const std::size_t j = p.server(pair);
      bool fits = true;
      for (std::size_t k = 0; k < p.num_resources(); ++k) {
        fits = fits && p.demand(pair, k) <= remaining[j * p.num_resources() + k];
      }
      if (!fits) continue;
      for (std::size_t k = 0; k < p.num_resources(); ++k) {
        remaining[j * p.num_resources() + k] -= p.demand(pair, k);
      }
      assignment[i] = j;
      break;
    }
  }
  return evaluate(p, assignment);
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void render_solution(std::ostringstream& out, const char* label, const AssignmentSolution& s) {
  out << label;
  for (const std::size_t j : s.assignment) {
    out << ' ';
    if (j == kUnassigned) {
      out << '-';
    } else {
      out << j;
    }
  }
  out << '\n'
      << label << "_cost " << hex(s.total_cost) << '\n'
      << label << "_unassigned " << s.unassigned_count << '\n';
}

// One "name value" line per pinned quantity, in the golden file's format.
std::string render(int round, const AssignmentProblem& problem) {
  std::ostringstream out;
  out << "instance " << round << '\n'
      << "shape " << problem.num_apps() << 'x' << problem.num_servers() << ' '
      << problem.num_pairs() << '\n';
  AssignmentSolution greedy = solve_greedy(problem);
  render_solution(out, "greedy", greedy);
  const std::size_t greedy_moves = improve_local_search(problem, greedy);
  out << "greedy_ls_moves " << greedy_moves << '\n';
  render_solution(out, "greedy_ls", greedy);
  AssignmentSolution start = first_fit(problem);
  const std::size_t start_moves = improve_local_search(problem, start);
  out << "first_fit_ls_moves " << start_moves << '\n';
  render_solution(out, "first_fit_ls", start);
  return out.str();
}

// The golden file split into one block per instance ("instance N" starts a
// block; '#' lines are comments).
std::vector<std::string> golden_blocks() {
  std::ifstream in(std::string(CARBONEDGE_TEST_DATA_DIR) + "/heuristic_golden.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/heuristic_golden.txt";
  std::vector<std::string> blocks;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    if (line.rfind("instance ", 0) == 0) blocks.emplace_back();
    if (blocks.empty()) continue;
    blocks.back() += line + '\n';
  }
  return blocks;
}

TEST(HeuristicGolden, ShardShapedInstancesMatchCheckedInAnswers) {
  const std::vector<std::string> golden = golden_blocks();
  ASSERT_EQ(golden.size(), static_cast<std::size_t>(kInstances));
  for (int round = 0; round < kInstances; ++round) {
    EXPECT_EQ(render(round, shard_instance(round)), golden[static_cast<std::size_t>(round)])
        << "seeded instance " << round;
  }
}

}  // namespace
}  // namespace carbonedge::solver
