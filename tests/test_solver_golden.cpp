// Solver output pinned to checked-in answers: twenty seeded block-diagonal
// instances (random latency-infeasible pairs, initially-off servers, an
// occasional app with no feasible server, components on both sides of
// solve_auto's exact-size limit) must reproduce the assignment, the exact
// total cost and the solve statistics recorded in
// tests/data/solver_golden.txt. A change to the problem representation or
// to any solve path that moves a placement, a B&B node or a floating-point
// sum shows up here as a diff against that file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "solver/assignment.hpp"
#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

constexpr int kInstances = 20;

// Blocks of up to 14 apps x 8 servers (up to 112 pairs, so both sides of
// the 64 apps x servers exact-size limit), two resources. Capacities hold
// only two or three apps, so greedy strands apps and local-search swaps
// change answers.
AssignmentProblem randomized_instance(int round) {
  util::Rng rng = util::Rng(0x50175).fork(static_cast<std::uint64_t>(round));
  const std::size_t blocks = 1 + rng.uniform_index(4);
  std::vector<std::size_t> apps_per(blocks);
  std::vector<std::size_t> servers_per(blocks);
  std::size_t apps = 0;
  std::size_t servers = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    apps_per[b] = 2 + rng.uniform_index(13);
    servers_per[b] = 2 + rng.uniform_index(7);
    apps += apps_per[b];
    servers += servers_per[b];
  }
  const double infeasible_p = rng.uniform(0.0, 0.4);
  const std::size_t unplaceable = rng.bernoulli(0.3) ? rng.uniform_index(apps) : kUnassigned;

  AssignmentProblem p(apps, servers, 2);
  for (std::size_t j = 0; j < servers; ++j) {
    p.set_capacity(j, 0, rng.uniform(1.0, 3.0));
    p.set_capacity(j, 1, rng.uniform(1.0, 3.0));
    if (rng.bernoulli(0.3)) {
      p.set_initially_on(j, false);
      p.set_activation_cost(j, rng.uniform(0.5, 6.0));
    }
  }
  std::size_t first_app = 0;
  std::size_t first_server = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = first_app; i < first_app + apps_per[b]; ++i) {
      for (std::size_t j = first_server; j < first_server + servers_per[b]; ++j) {
        if (rng.bernoulli(infeasible_p)) continue;
        const double cost = rng.uniform(0.5, 10.0);
        const double memory = rng.uniform(0.4, 1.0);
        const double compute = rng.uniform(0.4, 1.0);
        if (i != unplaceable) p.add_pair(i, j, cost, {memory, compute});
      }
    }
    first_app += apps_per[b];
    first_server += servers_per[b];
  }
  return p;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// One "name value" line per pinned quantity, in the golden file's format.
std::string render(int round, const AssignmentProblem& problem, const AssignmentSolution& s) {
  std::ostringstream out;
  out << "instance " << round << '\n'
      << "shape " << problem.num_apps() << 'x' << problem.num_servers() << '\n'
      << "assignment";
  for (const std::size_t j : s.assignment) {
    out << ' ';
    if (j == kUnassigned) {
      out << '-';
    } else {
      out << j;
    }
  }
  out << '\n'
      << "total_cost " << hex(s.total_cost) << '\n'
      << "components " << s.stats.components << '\n'
      << "exact_shards " << s.stats.exact_shards << '\n'
      << "heuristic_shards " << s.stats.heuristic_shards << '\n'
      << "unplaceable_apps " << s.stats.unplaceable_apps << '\n'
      << "milp_nodes " << s.stats.milp_nodes << '\n';
  return out.str();
}

// The golden file split into one block per instance ("instance N" starts a
// block; '#' lines are comments).
std::vector<std::string> golden_blocks() {
  std::ifstream in(std::string(CARBONEDGE_TEST_DATA_DIR) + "/solver_golden.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/solver_golden.txt";
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

TEST(SolverGolden, RandomizedInstancesMatchCheckedInAnswers) {
  const std::vector<std::string> golden = golden_blocks();
  ASSERT_EQ(golden.size(), static_cast<std::size_t>(kInstances));
  for (int round = 0; round < kInstances; ++round) {
    const AssignmentProblem problem = randomized_instance(round);
    EXPECT_EQ(render(round, problem, solve_auto(problem)),
              golden[static_cast<std::size_t>(round)])
        << "randomized instance " << round;
  }
}

}  // namespace
}  // namespace carbonedge::solver
