#include "solver/lp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace carbonedge::solver {

int LinearProgram::add_variable(double objective, double lower, double upper) {
  if (lower > upper) throw std::invalid_argument("lp: lower bound exceeds upper bound");
  if (!std::isfinite(lower)) throw std::invalid_argument("lp: lower bound must be finite");
  objective_.push_back(objective);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return static_cast<int>(objective_.size()) - 1;
}

void LinearProgram::add_constraint(std::vector<std::pair<int, double>> terms, Sense sense,
                                   double rhs) {
  for (const auto& [var, coeff] : terms) {
    (void)coeff;
    if (var < 0 || static_cast<std::size_t>(var) >= objective_.size()) {
      throw std::out_of_range("lp: constraint references unknown variable");
    }
  }
  rows_.push_back(Row{std::move(terms), sense, rhs});
}

void LinearProgram::set_bounds(int var, double lower, double upper) {
  if (lower > upper) throw std::invalid_argument("lp: lower bound exceeds upper bound");
  lower_.at(var) = lower;
  upper_.at(var) = upper;
}

double LinearProgram::evaluate(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::size_t i = 0; i < objective_.size(); ++i) total += objective_[i] * x.at(i);
  return total;
}

bool LinearProgram::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != objective_.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < lower_[i] - tol || x[i] > upper_[i] + tol) return false;
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.terms) lhs += coeff * x[var];
    switch (row.sense) {
      case Sense::kLessEqual:
        if (lhs > row.rhs + tol) return false;
        break;
      case Sense::kGreaterEqual:
        if (lhs < row.rhs - tol) return false;
        break;
      case Sense::kEqual:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

const char* to_string(LpStatus status) noexcept {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration_limit";
  }
  return "?";
}

namespace {

/// Simplex tableau over the standardized problem, stored flat and updated
/// only where the pivot row is nonzero.
///
/// The sparse updates are bit-exact with a dense sweep over every entry:
/// - A skipped update is `x - f * (+-0)`, which at most flips the sign of
///   a zero x (all entries are finite, so f * 0 is a zero).
/// - Every nonzero entry still gets `target[j] -= factor * prow[j]`,
///   verbatim, so it carries the same bits.
/// - No decision tells -0 from +0: `a <= tol`, `obj[j] < best_value`,
///   `factor == 0.0`, the 1e-12 ratio tie-break, the stall test and
///   `std::abs(x) > tol`. Dantzig pricing, the Bland fallback and every
///   pivot are therefore the same, and so is every returned value.
class SimplexTableau {
 public:
  SimplexTableau(const LinearProgram& lp, const LpOptions& options)
      : lp_(lp), options_(options) {}

  LpSolution solve();

 private:
  // Standardized data: minimize cost.z over A z = b, z >= 0, where z holds
  // the shifted structural variables followed by slack/surplus/artificials.
  void standardize();
  bool phase(bool phase_one);
  void pivot(std::size_t pivot_row, std::size_t col);
  void price_out_objective(const std::vector<double>& cost);
  [[nodiscard]] std::size_t choose_entering(bool bland) const;
  [[nodiscard]] std::size_t choose_leaving(std::size_t col) const;

  [[nodiscard]] double* row(std::size_t r) noexcept { return tableau_.data() + r * stride_; }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return tableau_.data() + r * stride_;
  }
  [[nodiscard]] double* obj() noexcept { return row(rows_); }
  [[nodiscard]] const double* obj() const noexcept { return row(rows_); }

  const LinearProgram& lp_;
  LpOptions options_;

  std::size_t num_struct_ = 0;   // structural (shifted) variables
  std::size_t num_total_ = 0;    // structural + slack + artificial
  std::size_t first_artificial_ = 0;
  std::size_t rows_ = 0;
  // rows_ + 1 rows of stride_ = num_total_ + 1 entries (last = rhs),
  // row-major. Row rows_ is the reduced-cost row; its rhs slot holds
  // -objective value.
  std::size_t stride_ = 0;
  std::vector<double> tableau_;
  std::vector<std::size_t> pivot_nonzeros_;  // columns where the pivot row is nonzero
  std::vector<std::size_t> basis_;      // basis_[r] = column basic in row r
  std::vector<double> struct_cost_;     // phase-2 costs over all columns
  std::size_t entering_limit_ = 0;      // columns eligible to enter the basis
  std::size_t iterations_ = 0;
  static constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);
};

void SimplexTableau::standardize() {
  const std::size_t n = lp_.num_variables();
  num_struct_ = n;

  // Shift x = z + lb so structural z >= 0; finite upper bounds become
  // <= rows after the constraint rows. A row whose shifted rhs is negative
  // is negated, which swaps <= and >=.
  struct Shape {
    double rhs;
    Sense sense;
    double sign;  // -1 for a negated row
  };
  std::vector<Shape> shapes;
  shapes.reserve(lp_.num_constraints());
  std::size_t num_upper = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isfinite(lp_.upper_bound(static_cast<int>(i)))) ++num_upper;
  }
  std::size_t num_slack = num_upper;
  std::size_t num_artificial = 0;
  for (const LinearProgram::Row& lp_row : lp_.rows()) {
    Shape shape{lp_row.rhs, lp_row.sense, 1.0};
    for (const auto& [var, coeff] : lp_row.terms) shape.rhs -= coeff * lp_.lower_bound(var);
    if (shape.rhs < 0.0) {
      shape.rhs = -shape.rhs;
      shape.sign = -1.0;
      if (shape.sense == Sense::kLessEqual) {
        shape.sense = Sense::kGreaterEqual;
      } else if (shape.sense == Sense::kGreaterEqual) {
        shape.sense = Sense::kLessEqual;
      }
    }
    if (shape.sense != Sense::kEqual) ++num_slack;
    if (shape.sense != Sense::kLessEqual) ++num_artificial;
    shapes.push_back(shape);
  }

  rows_ = shapes.size() + num_upper;
  first_artificial_ = num_struct_ + num_slack;
  num_total_ = first_artificial_ + num_artificial;
  stride_ = num_total_ + 1;
  tableau_.assign((rows_ + 1) * stride_, 0.0);
  pivot_nonzeros_.reserve(stride_);
  basis_.assign(rows_, kNoCol);

  std::size_t slack_col = num_struct_;
  std::size_t art_col = first_artificial_;
  for (std::size_t r = 0; r < shapes.size(); ++r) {
    double* t = row(r);
    const Shape& shape = shapes[r];
    for (const auto& [var, coeff] : lp_.rows()[r].terms) {
      t[static_cast<std::size_t>(var)] += shape.sign * coeff;
    }
    t[num_total_] = shape.rhs;
    switch (shape.sense) {
      case Sense::kLessEqual:
        t[slack_col] = 1.0;
        basis_[r] = slack_col++;
        break;
      case Sense::kGreaterEqual:
        t[slack_col] = -1.0;
        ++slack_col;
        t[art_col] = 1.0;
        basis_[r] = art_col++;
        break;
      case Sense::kEqual:
        t[art_col] = 1.0;
        basis_[r] = art_col++;
        break;
    }
  }
  std::size_t r = shapes.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double ub = lp_.upper_bound(static_cast<int>(i));
    if (!std::isfinite(ub)) continue;
    double* t = row(r);
    t[i] = 1.0;
    t[num_total_] = ub - lp_.lower_bound(static_cast<int>(i));
    t[slack_col] = 1.0;
    basis_[r++] = slack_col++;
  }

  struct_cost_.assign(num_total_, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    struct_cost_[i] = lp_.objective_coeff(static_cast<int>(i));
  }
}

void SimplexTableau::price_out_objective(const std::vector<double>& cost) {
  double* o = obj();
  std::copy(cost.begin(), cost.end(), o);
  o[num_total_] = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double cb = cost[basis_[r]];
    if (cb == 0.0) continue;
    const double* t = row(r);
    for (std::size_t j = 0; j < stride_; ++j) {
      if (t[j] != 0.0) o[j] -= cb * t[j];
    }
  }
}

std::size_t SimplexTableau::choose_entering(bool bland) const {
  // entering_limit_ excludes artificial columns during phase 2: once driven
  // out they must never re-enter, or the equality constraints they stand in
  // for silently relax.
  const double tol = options_.pivot_tolerance;
  const double* o = obj();
  if (bland) {
    for (std::size_t j = 0; j < entering_limit_; ++j) {
      if (o[j] < -tol) return j;
    }
    return kNoCol;
  }
  std::size_t best = kNoCol;
  double best_value = -tol;
  for (std::size_t j = 0; j < entering_limit_; ++j) {
    if (o[j] < best_value) {
      best_value = o[j];
      best = j;
    }
  }
  return best;
}

std::size_t SimplexTableau::choose_leaving(std::size_t col) const {
  const double tol = options_.pivot_tolerance;
  std::size_t best_row = kNoCol;
  double best_ratio = kInfinity;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* t = row(r);
    const double a = t[col];
    if (a <= tol) continue;
    const double ratio = t[num_total_] / a;
    // Bland tie-break on the basic column index for anti-cycling.
    if (ratio < best_ratio - 1e-12 ||
        (ratio < best_ratio + 1e-12 && best_row != kNoCol && basis_[r] < basis_[best_row])) {
      best_ratio = ratio;
      best_row = r;
    }
  }
  return best_row;
}

void SimplexTableau::pivot(std::size_t pivot_row, std::size_t col) {
  double* prow = row(pivot_row);
  const double inv = 1.0 / prow[col];
  pivot_nonzeros_.clear();
  for (std::size_t j = 0; j < stride_; ++j) {
    if (prow[j] == 0.0) continue;
    prow[j] *= inv;
    pivot_nonzeros_.push_back(j);
  }
  prow[col] = 1.0;  // exact

  // Every other row, the reduced-cost row included.
  for (std::size_t r = 0; r <= rows_; ++r) {
    if (r == pivot_row) continue;
    double* target = row(r);
    const double factor = target[col];
    if (factor == 0.0) continue;
    for (const std::size_t j : pivot_nonzeros_) target[j] -= factor * prow[j];
    target[col] = 0.0;
  }
  basis_[pivot_row] = col;
}

bool SimplexTableau::phase(bool phase_one) {
  // Returns false on unboundedness (phase 2 only) or iteration limit.
  std::size_t stall = 0;
  for (;;) {
    if (++iterations_ > options_.max_iterations) return false;
    const bool bland = stall > rows_ + num_total_;  // switch after long stall
    const std::size_t col = choose_entering(bland);
    if (col == kNoCol) return true;  // optimal for this phase
    const std::size_t r = choose_leaving(col);
    if (r == kNoCol) {
      if (phase_one) return true;  // phase-1 objective bounded below by 0
      return false;                // genuine unboundedness
    }
    const double before = obj()[num_total_];
    pivot(r, col);
    stall = std::abs(obj()[num_total_] - before) < 1e-12 ? stall + 1 : 0;
  }
}

LpSolution SimplexTableau::solve() {
  standardize();
  LpSolution solution;

  if (rows_ == 0) {
    // No constraints and no finite upper bounds: each variable sits at its
    // lower bound unless its cost is negative, which means unboundedness.
    for (std::size_t i = 0; i < num_struct_; ++i) {
      if (lp_.objective_coeff(static_cast<int>(i)) < 0.0) {
        solution.status = LpStatus::kUnbounded;
        return solution;
      }
    }
  }

  if (rows_ > 0) {
    // Phase 1: minimize sum of artificials.
    entering_limit_ = num_total_;
    std::vector<double> phase1_cost(num_total_, 0.0);
    for (std::size_t j = first_artificial_; j < num_total_; ++j) phase1_cost[j] = 1.0;
    price_out_objective(phase1_cost);
    if (!phase(/*phase_one=*/true)) {
      solution.status = LpStatus::kIterationLimit;
      return solution;
    }
    if (-obj()[num_total_] > options_.feasibility_tolerance) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    // Drive any remaining artificial out of the basis where possible.
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < first_artificial_) continue;
      const double* t = row(r);
      std::size_t col = kNoCol;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(t[j]) > options_.pivot_tolerance) {
          col = j;
          break;
        }
      }
      if (col != kNoCol) pivot(r, col);
      // else: redundant row with zero rhs; it stays basic in an artificial
      // at value 0, harmless for phase 2 since its cost is 0 there.
    }
    // Phase 2: original objective; artificial columns are frozen out.
    entering_limit_ = first_artificial_;
    price_out_objective(struct_cost_);
    if (!phase(/*phase_one=*/false)) {
      solution.status =
          iterations_ > options_.max_iterations ? LpStatus::kIterationLimit : LpStatus::kUnbounded;
      return solution;
    }
  }

  solution.status = LpStatus::kOptimal;
  solution.values.assign(lp_.num_variables(), 0.0);
  std::vector<double> z(num_total_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) z[basis_[r]] = row(r)[num_total_];
  for (std::size_t i = 0; i < num_struct_; ++i) {
    solution.values[i] = z[i] + lp_.lower_bound(static_cast<int>(i));
  }
  solution.objective = lp_.evaluate(solution.values);
  return solution;
}

}  // namespace

LpSolution solve_lp(const LinearProgram& lp, const LpOptions& options) {
  if (lp.num_variables() == 0) {
    LpSolution trivial;
    trivial.status = LpStatus::kOptimal;
    trivial.objective = 0.0;
    return trivial;
  }
  SimplexTableau tableau(lp, options);
  return tableau.solve();
}

}  // namespace carbonedge::solver
