// Descriptive statistics and empirical distributions used throughout the
// evaluation harness (CDFs of carbon savings, latency percentiles, min-max
// normalization for the multi-objective policy, ...).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace carbonedge::util {

/// Linear-interpolated percentile, p in [0, 100]. 0 for empty spans.
[[nodiscard]] double percentile(std::span<const double> values, double p);

/// Median (50th percentile).
[[nodiscard]] double median(std::span<const double> values);

/// Min-max normalization of `value` into [0,1] given observed bounds.
/// Degenerate ranges (hi <= lo) normalize to 0.
[[nodiscard]] double minmax_normalize(double value, double lo, double hi) noexcept;

/// Empirical cumulative distribution function over a sample.
///
/// Built once from a sample; queries are O(log n). Used for the Figure 5
/// radius-saving CDFs and the Figure 11 load-distribution CDFs.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> sample);

  /// Fraction of sample values <= x, in [0, 1].
  [[nodiscard]] double at(double x) const noexcept;

  /// Inverse CDF: smallest sample value v with CDF(v) >= q, q in (0, 1].
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] const std::vector<double>& sorted_sample() const noexcept { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace carbonedge::util
