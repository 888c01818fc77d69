// Site-indexed one-way latency (L_ij in Table 2): what placement and the
// simulation engine read, stored as a threshold band.
//
// Placement only ever asks "is this pair within the app's RTT budget" — for
// a mesoscale or CDN geography almost every cross-continent pair fails that
// test, yet a full n^2 table materializes (and the feasibility loops scan)
// all of them. BandedLatencyMatrix stores only pairs whose modeled one-way
// latency is within `band_one_way_ms` (CSR, diagonal always present) and
// reports +infinity for the rest, so both memory and the feasible-pair
// enumeration scale with the neighborhood size instead of n^2. The default
// band is +infinity, which keeps every pair: a small region's full table is
// the unbounded band.
//
// Candidate pairs come from a SpatialIndex radius query with the
// conservative inversion of the latency model: one_way = base + km/fiber *
// inflation with inflation >= inflation_min, so any pair within the band
// satisfies km <= (band - base) * fiber / inflation_min. Every candidate is
// then scored with the exact model, so each stored value is exactly
// LatencyModel::one_way_ms of its city pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geo/latency.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {

class BandedLatencyMatrix {
 public:
  /// Builds the band over `cities` (indices into this span). Throws
  /// std::invalid_argument unless the band exceeds the zero-distance base
  /// latency (a NaN band included).
  BandedLatencyMatrix(const LatencyModel& model, std::span<const City> cities,
                      double band_one_way_ms = std::numeric_limits<double>::infinity());

  /// Number of sites covered (indices are [0, size())).
  [[nodiscard]] std::size_t size() const noexcept { return row_start_.size() - 1; }
  /// One-way latency in ms between site indices; +infinity when the pair is
  /// outside the band. A binary search of row `i`: scans over a row read
  /// neighbor_ms(i) instead.
  [[nodiscard]] double one_way_ms(std::size_t i, std::size_t j) const noexcept;
  /// Sites within the band of site `i`, indices ascending; every site
  /// outside the list is +infinity.
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i) const noexcept {
    return std::span<const std::uint32_t>(cols_).subspan(row_start_[i], row_length(i));
  }
  /// Row `i`'s one-way latencies (ms), aligned with neighbors(i).
  [[nodiscard]] std::span<const double> neighbor_ms(std::size_t i) const noexcept {
    return std::span<const double>(values_).subspan(row_start_[i], row_length(i));
  }

  [[nodiscard]] double band_one_way_ms() const noexcept { return band_ms_; }
  /// Stored (directed) entries, diagonal included — the measure of how far
  /// below n^2 the band stays.
  [[nodiscard]] std::size_t stored_entries() const noexcept { return cols_.size(); }

 private:
  [[nodiscard]] std::size_t row_length(std::size_t i) const noexcept {
    return row_start_[i + 1] - row_start_[i];
  }

  double band_ms_;
  std::vector<std::size_t> row_start_;
  std::vector<std::uint32_t> cols_;  // ascending within each row
  std::vector<double> values_;
};

}  // namespace carbonedge::geo
