// LP solver output pinned to checked-in answers: one hundred seeded linear
// programs must reproduce the status, the objective and every variable
// value recorded in tests/data/lp_golden.txt, bit for bit. The families
// reach the standardization and solve branches that the placement LP never
// does: >= and = rows, a negative (shifted) rhs that flips a row's sense,
// one variable named twice in a row, finite non-zero lower bounds, infinite
// upper bounds, LPs with no rows, redundant equalities whose artificial
// stays basic, Chvatal's cycling example (which only the Bland fallback
// gets out of), infeasible and unbounded LPs, and the iteration limit.
// A change to the simplex kernel that moves a pivot or a single bit of a
// tableau entry shows up here as a diff against that file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "solver/lp.hpp"
#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

constexpr int kInstances = 100;
constexpr int kFamilies = 10;

Sense random_sense(util::Rng& rng) {
  switch (rng.uniform_index(3)) {
    case 0: return Sense::kLessEqual;
    case 1: return Sense::kGreaterEqual;
    default: return Sense::kEqual;
  }
}

// Up to 10 variables and 10 rows of mixed sense around a point x0 inside
// the bounds, so most instances are feasible; the bounds, the costs and
// the row offsets decide between optimal and unbounded. A third of the
// lower bounds are finite and non-zero, half the upper bounds infinite,
// and some rows name a variable twice.
LinearProgram general_lp(util::Rng& rng) {
  LinearProgram lp;
  const std::size_t n = 1 + rng.uniform_index(10);
  std::vector<double> x0(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cost = rng.bernoulli(0.15) ? 0.0 : rng.uniform(-5.0, 5.0);
    const double lower = rng.bernoulli(0.35) ? rng.uniform(-3.0, 3.0) : 0.0;
    const double upper = rng.bernoulli(0.5) ? kInfinity : lower + rng.uniform(0.5, 6.0);
    lp.add_variable(cost, lower, upper);
    x0[i] = lower + rng.uniform(0.0, 2.0);
    if (x0[i] > upper) x0[i] = upper;
  }
  const std::size_t m = rng.uniform_index(11);
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    const std::size_t k = 1 + rng.uniform_index(4);
    double lhs = 0.0;
    for (std::size_t t = 0; t < k; ++t) {
      const int var = static_cast<int>(rng.uniform_index(n));
      const double coeff = rng.uniform(-4.0, 4.0);
      terms.emplace_back(var, coeff);
      lhs += coeff * x0[static_cast<std::size_t>(var)];
      if (rng.bernoulli(0.2)) {
        const double again = rng.uniform(-2.0, 2.0);
        terms.emplace_back(var, again);
        lhs += again * x0[static_cast<std::size_t>(var)];
      }
    }
    const Sense sense = random_sense(rng);
    double rhs = lhs;
    if (sense == Sense::kLessEqual) rhs += rng.uniform(0.0, 3.0);
    if (sense == Sense::kGreaterEqual) rhs -= rng.uniform(0.0, 3.0);
    lp.add_constraint(std::move(terms), sense, rhs);
  }
  return lp;
}

// A general LP plus a contradictory pair sum <= t and sum >= t + gap.
LinearProgram infeasible_lp(util::Rng& rng) {
  LinearProgram lp = general_lp(rng);
  const int a = static_cast<int>(rng.uniform_index(lp.num_variables()));
  const int b = static_cast<int>(rng.uniform_index(lp.num_variables()));
  const double t = rng.uniform(-4.0, 4.0);
  lp.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLessEqual, t);
  lp.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kGreaterEqual, t + rng.uniform(0.5, 3.0));
  return lp;
}

// A general LP plus a ray: a fresh variable with negative cost and no
// upper bound that only loosens a >= row when it grows.
LinearProgram unbounded_lp(util::Rng& rng) {
  LinearProgram lp = general_lp(rng);
  const int ray = lp.add_variable(-rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0));
  const int other = static_cast<int>(rng.uniform_index(lp.num_variables() - 1));
  lp.add_constraint({{ray, rng.uniform(0.5, 2.0)}, {other, rng.uniform(-1.0, 1.0)}},
                    Sense::kGreaterEqual, rng.uniform(-6.0, 6.0));
  return lp;
}

// The placement LP's shape (binary-bounded x_ij, one = row per app, <=
// capacity rows), sometimes with an app's = row repeated: the repeat is
// redundant, so its artificial is still basic after phase 1.
LinearProgram placement_like_lp(util::Rng& rng) {
  LinearProgram lp;
  const std::size_t apps = 2 + rng.uniform_index(5);
  const std::size_t servers = 2 + rng.uniform_index(4);
  std::vector<std::vector<int>> x(apps, std::vector<int>(servers));
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      x[i][j] = lp.add_variable(rng.uniform(0.5, 10.0), 0.0, 1.0);
    }
  }
  for (std::size_t i = 0; i < apps; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t j = 0; j < servers; ++j) terms.emplace_back(x[i][j], 1.0);
    const bool repeat = rng.bernoulli(0.4);
    if (repeat) lp.add_constraint(terms, Sense::kEqual, 1.0);
    lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
  }
  for (std::size_t j = 0; j < servers; ++j) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t i = 0; i < apps; ++i) terms.emplace_back(x[i][j], rng.uniform(0.4, 1.0));
    lp.add_constraint(std::move(terms), Sense::kLessEqual, rng.uniform(1.0, 3.0));
  }
  return lp;
}

// Bounds only, no rows: with every upper bound infinite the tableau is
// empty and a negative cost means unboundedness.
LinearProgram rowless_lp(util::Rng& rng) {
  LinearProgram lp;
  const std::size_t n = 1 + rng.uniform_index(6);
  const bool finite_uppers = rng.bernoulli(0.3);
  for (std::size_t i = 0; i < n; ++i) {
    const double lower = rng.bernoulli(0.5) ? rng.uniform(-3.0, 3.0) : 0.0;
    const double upper = finite_uppers ? lower + rng.uniform(0.0, 4.0) : kInfinity;
    lp.add_variable(rng.bernoulli(0.2) ? -rng.uniform(0.5, 2.0) : rng.uniform(0.0, 3.0),
                    lower, upper);
  }
  return lp;
}

// Chvatal's example (Linear Programming, 1983, ch. 3): largest-coefficient
// pricing with smallest-index ratio ties cycles through six degenerate
// bases, so the solve ends only once the stall counter switches to Bland's
// rule. The costs are scaled by a power of two, and idle variables with a
// positive cost (some with an upper-bound row) follow; neither changes a
// pricing or ratio decision.
LinearProgram cycling_lp(util::Rng& rng) {
  const double c = static_cast<double>(1u << rng.uniform_index(4));
  LinearProgram lp;
  const int x1 = lp.add_variable(-10.0 * c);
  const int x2 = lp.add_variable(57.0 * c);
  const int x3 = lp.add_variable(9.0 * c);
  const int x4 = lp.add_variable(24.0 * c);
  lp.add_constraint({{x1, 0.5}, {x2, -5.5}, {x3, -2.5}, {x4, 9.0}}, Sense::kLessEqual, 0.0);
  lp.add_constraint({{x1, 0.5}, {x2, -1.5}, {x3, -0.5}, {x4, 1.0}}, Sense::kLessEqual, 0.0);
  lp.add_constraint({{x1, 1.0}}, Sense::kLessEqual, 1.0);
  const std::size_t idle = rng.uniform_index(4);
  for (std::size_t i = 0; i < idle; ++i) {
    const double lower = rng.uniform(-2.0, 2.0);
    lp.add_variable(rng.uniform(0.5, 3.0), lower,
                    rng.bernoulli(0.5) ? lower + rng.uniform(0.5, 3.0) : kInfinity);
  }
  return lp;
}

LinearProgram randomized_lp(int round) {
  util::Rng rng = util::Rng(0x1B601D).fork(static_cast<std::uint64_t>(round));
  switch (round % kFamilies) {
    case 5: return infeasible_lp(rng);
    case 6: return unbounded_lp(rng);
    case 7: return placement_like_lp(rng);
    case 8: return rowless_lp(rng);
    case 9: return cycling_lp(rng);
    default: return general_lp(rng);
  }
}

// A few placement-like instances stop at a small iteration limit.
LpOptions options_for(int round) {
  LpOptions options;
  if (round % 20 == 17) options.max_iterations = 2 + static_cast<std::size_t>(round % 7);
  return options;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// One "name value" line per pinned quantity, in the golden file's format.
std::string render(int round, const LinearProgram& lp, const LpSolution& s) {
  std::ostringstream out;
  out << "instance " << round << '\n'
      << "shape " << lp.num_constraints() << 'x' << lp.num_variables() << '\n'
      << "status " << to_string(s.status) << '\n'
      << "objective " << hex(s.objective) << '\n'
      << "values";
  for (const double v : s.values) out << ' ' << hex(v);
  out << '\n';
  return out.str();
}

// The golden file split into one block per instance ("instance N" starts a
// block; '#' lines are comments).
std::vector<std::string> golden_blocks() {
  std::ifstream in(std::string(CARBONEDGE_TEST_DATA_DIR) + "/lp_golden.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/lp_golden.txt";
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

TEST(LpGolden, SeededLinearProgramsMatchCheckedInAnswers) {
  const std::vector<std::string> golden = golden_blocks();
  ASSERT_EQ(golden.size(), static_cast<std::size_t>(kInstances));
  for (int round = 0; round < kInstances; ++round) {
    const LinearProgram lp = randomized_lp(round);
    EXPECT_EQ(render(round, lp, solve_lp(lp, options_for(round))),
              golden[static_cast<std::size_t>(round)])
        << "seeded LP " << round;
  }
}

}  // namespace
}  // namespace carbonedge::solver
