// Deterministic spatial index over a site set: radius queries without the
// O(n) scan per lookup. (The nearest site is SiteCatalog::nearest's linear
// scan: a one-shot query costs less than building an index.)
//
// Structure: fixed-size lat/lon grid buckets (cells of `cell_deg` degrees,
// longitude wrapping at the antimeridian). A query visits the cells of a
// conservative bounding box around the disc; when the disc reaches a pole,
// the box widens to every column.
//
// Determinism contract: the grid only ever *narrows candidates*; membership
// is decided by the exact haversine predicate over a provable superset of
// candidates, so results are bit-identical to the brute-force scan
// regardless of traversal order — the oracle tests assert exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/coord.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {

class SiteCatalog;

struct SpatialIndexParams {
  double cell_deg = 4.0;  // grid cell edge, degrees
};

class SpatialIndex {
 public:
  using Params = SpatialIndexParams;

  /// Indexes `sites` (non-owning: the span must outlive the index). Query
  /// results are indices into this span; when the span is a catalog's
  /// all(), an index IS the SiteId.
  explicit SpatialIndex(std::span<const City> sites, Params params = {});
  explicit SpatialIndex(const SiteCatalog& catalog, Params params = {});

  [[nodiscard]] std::size_t size() const noexcept { return sites_.size(); }

  /// Indices of all sites with haversine_km(point, site) <= radius_km,
  /// ascending.
  [[nodiscard]] std::vector<std::uint32_t> within_radius(
      const GeoPoint& point, double radius_km) const;

 private:
  [[nodiscard]] std::size_t row_of(double lat_deg) const noexcept;
  [[nodiscard]] std::size_t col_of(double lon_deg) const noexcept;

  Params params_;
  std::span<const City> sites_;

  // Grid: CSR buckets, row-major (rows x cols), member indices ascending.
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> cell_start_;
  std::vector<std::uint32_t> cell_members_;
};

}  // namespace carbonedge::geo
