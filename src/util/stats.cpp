#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace carbonedge::util {

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

double minmax_normalize(double value, double lo, double hi) noexcept {
  if (hi <= lo) return 0.0;
  return std::clamp((value - lo) / (hi - lo), 0.0, 1.0);
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const noexcept {
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(sorted_.size());
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  index = std::min(index, sorted_.size() - 1);
  return sorted_[index];
}

}  // namespace carbonedge::util
