// Linear programming: model container and a two-phase primal simplex.
//
// Substitutes for Google OR-Tools (unavailable offline). The callers are
// the branch-and-bound nodes of the exact placement MILP (milp.hpp), whose
// shards hold at most 64 apps x servers pairs. On the year-long cdn_us
// serve replay a node LP standardizes to about 64 rows x 108 columns and
// takes about 31 pivots; the pivot row has about 6 nonzeros, and about 5
// other rows have a nonzero in the pivot column.
//
// The tableau is one flat row-major array (the reduced-cost row last),
// filled straight from the constraint terms. A pivot scales only the
// nonzeros of the pivot row, then updates only the rows with a nonzero in
// the pivot column, and only at the pivot row's nonzero columns. This is
// bit-exact with a dense sweep over every entry: a skipped update could at
// most flip the sign of a zero, and no pricing, ratio or stall test tells
// -0 from +0 (lp.cpp spells out the argument). It relies on products not
// being fused into FMAs, which CMakeLists.txt pins with -ffp-contract=off.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace carbonedge::solver {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense : std::uint8_t { kLessEqual, kGreaterEqual, kEqual };

/// A linear program: minimize c.x subject to row constraints and variable
/// bounds lb <= x <= ub (lb defaults to 0).
class LinearProgram {
 public:
  /// Adds a variable; returns its index.
  int add_variable(double objective, double lower = 0.0, double upper = kInfinity);

  /// Adds a constraint sum(coeff_k * x_{var_k}) sense rhs.
  void add_constraint(std::vector<std::pair<int, double>> terms, Sense sense, double rhs);

  [[nodiscard]] std::size_t num_variables() const noexcept { return objective_.size(); }
  [[nodiscard]] std::size_t num_constraints() const noexcept { return rows_.size(); }

  [[nodiscard]] double objective_coeff(int var) const { return objective_.at(var); }
  [[nodiscard]] double lower_bound(int var) const { return lower_.at(var); }
  [[nodiscard]] double upper_bound(int var) const { return upper_.at(var); }
  void set_bounds(int var, double lower, double upper);

  struct Row {
    std::vector<std::pair<int, double>> terms;
    Sense sense = Sense::kLessEqual;
    double rhs = 0.0;
  };
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  /// Objective value of a candidate point.
  [[nodiscard]] double evaluate(const std::vector<double>& x) const;

  /// True if x satisfies all constraints and bounds within `tol`.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Row> rows_;
};

enum class LpStatus : std::uint8_t { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] const char* to_string(LpStatus status) noexcept;

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> values;  // one per variable, empty unless kOptimal
};

struct LpOptions {
  std::size_t max_iterations = 50'000;
  double pivot_tolerance = 1e-9;
  double feasibility_tolerance = 1e-7;
};

/// Solve with the two-phase primal simplex (Dantzig pricing with a Bland
/// fallback for anti-cycling). Finite variable bounds are handled by
/// shifting lower bounds to zero and emitting upper-bound rows.
[[nodiscard]] LpSolution solve_lp(const LinearProgram& lp, const LpOptions& options = {});

}  // namespace carbonedge::solver
