#include "geo/sparse_latency.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geo/spatial_index.hpp"

namespace carbonedge::geo {

BandedLatencyMatrix::BandedLatencyMatrix(const LatencyModel& model,
                                         std::span<const City> cities,
                                         double band_one_way_ms)
    : band_ms_(band_one_way_ms) {
  const LatencyModelParams& p = model.params();
  // Negated so a NaN band fails too: it would otherwise keep no entry, not
  // even the diagonal, and leave every app silently infeasible.
  if (!(band_ms_ > p.base_ms)) {
    throw std::invalid_argument(
        "banded latency: band must exceed the base one-way latency");
  }
  // Conservative model inversion: no in-band pair can be farther than this
  // (+infinity for an unbounded band, which the index answers with every
  // site).
  const double radius_km =
      (band_ms_ - p.base_ms) * p.fiber_km_per_ms / p.inflation_min;

  const SpatialIndex index(cities);
  row_start_.assign(cities.size() + 1, 0);
  for (std::size_t i = 0; i < cities.size(); ++i) {
    // Candidates ascending; the exact model decides membership, so the band
    // is symmetric and each stored value is exactly the model's.
    for (const std::uint32_t j :
         index.within_radius(cities[i].location, radius_km)) {
      const double ms = i == static_cast<std::size_t>(j)
                            ? 0.0
                            : model.one_way_ms(cities[i], cities[j]);
      if (ms <= band_ms_) {
        cols_.push_back(j);
        values_.push_back(ms);
      }
    }
    row_start_[i + 1] = cols_.size();
  }
}

double BandedLatencyMatrix::one_way_ms(std::size_t i,
                                       std::size_t j) const noexcept {
  const auto first = cols_.begin() + static_cast<std::ptrdiff_t>(row_start_[i]);
  const auto last = cols_.begin() + static_cast<std::ptrdiff_t>(row_start_[i + 1]);
  const auto it = std::lower_bound(first, last, static_cast<std::uint32_t>(j));
  if (it == last || *it != static_cast<std::uint32_t>(j)) {
    return std::numeric_limits<double>::infinity();
  }
  return values_[static_cast<std::size_t>(it - cols_.begin())];
}

}  // namespace carbonedge::geo
