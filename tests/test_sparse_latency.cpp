// BandedLatencyMatrix against the latency model: bit-identical on the
// band's support, +infinity outside it, neighborhoods ascending, and an
// unbounded band that keeps every pair.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "geo/city.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "geo/sparse_latency.hpp"

namespace carbonedge::geo {
namespace {

TEST(BandedLatency, MatchesDenseBitExactlyWithinTheBand) {
  const std::vector<City> cities = cdn_region(Continent::kNorthAmerica).resolve();
  const LatencyModel model;
  const double band_ms = 8.0;
  const BandedLatencyMatrix banded(model, cities, band_ms);
  ASSERT_EQ(banded.size(), cities.size());
  EXPECT_EQ(banded.band_one_way_ms(), band_ms);

  std::size_t in_band = 0;
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = 0; j < cities.size(); ++j) {
      const double model_ms = model.one_way_ms(cities[i], cities[j]);
      if (model_ms <= band_ms) {
        // Exact equality, in both argument orders: the band scores
        // candidates with the same model.
        EXPECT_EQ(banded.one_way_ms(i, j), model_ms) << i << "," << j;
        EXPECT_EQ(banded.one_way_ms(i, j), model.one_way_ms(cities[j], cities[i]))
            << i << "," << j;
        ++in_band;
      } else {
        EXPECT_TRUE(std::isinf(banded.one_way_ms(i, j))) << i << "," << j;
      }
    }
  }
  EXPECT_EQ(banded.stored_entries(), in_band);
  // The band must actually be sparse on a continental geography.
  EXPECT_LT(banded.stored_entries(), cities.size() * cities.size());
}

TEST(BandedLatency, NeighborhoodsAreAscendingAndMirrorTheSupport) {
  const std::vector<City> cities = cdn_region(Continent::kEurope).resolve();
  const LatencyModel model;
  const BandedLatencyMatrix banded(model, cities, 6.0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < banded.size(); ++i) {
    const auto row = banded.neighbors(i);
    const auto row_ms = banded.neighbor_ms(i);
    ASSERT_EQ(row_ms.size(), row.size());
    total += row.size();
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(row[k - 1], row[k]);  // strictly ascending
      }
      // The row's values are the lookups, position for position.
      EXPECT_EQ(row_ms[k], banded.one_way_ms(i, row[k]));
      EXPECT_TRUE(std::isfinite(row_ms[k]));
      // Symmetry: j in neighbors(i) <=> i in neighbors(j) (the model is
      // exactly symmetric, so band membership is too).
      EXPECT_EQ(banded.one_way_ms(row[k], i), row_ms[k]);
    }
    // The diagonal is always in band (0 ms).
    EXPECT_EQ(banded.one_way_ms(i, i), 0.0);
  }
  EXPECT_EQ(total, banded.stored_entries());
}

TEST(BandedLatency, UnboundedBandListsEverySiteAscendingInEveryRow) {
  const std::vector<City> cities = florida_region().resolve();
  const BandedLatencyMatrix unbounded(LatencyModel{}, cities);
  EXPECT_TRUE(std::isinf(unbounded.band_one_way_ms()));
  EXPECT_EQ(unbounded.stored_entries(), cities.size() * cities.size());
  // Every row lists every site, ascending: an unbounded band constrains
  // nothing, so row-driven scans visit all sites in site order.
  std::vector<std::uint32_t> all_sites(cities.size());
  std::iota(all_sites.begin(), all_sites.end(), std::uint32_t{0});
  for (std::size_t i = 0; i < unbounded.size(); ++i) {
    const auto row = unbounded.neighbors(i);
    EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), all_sites);
  }
}

TEST(BandedLatency, BandBelowBaseLatencyThrows) {
  const std::vector<City> cities = florida_region().resolve();
  const LatencyModel model;
  EXPECT_THROW(BandedLatencyMatrix(model, cities, model.params().base_ms),
               std::invalid_argument);
  EXPECT_THROW(BandedLatencyMatrix(model, cities, 0.0), std::invalid_argument);
  EXPECT_THROW(BandedLatencyMatrix(model, cities, -5.0), std::invalid_argument);
  // NaN compares false both ways; it must not build a matrix with no
  // entries (not even the diagonal).
  EXPECT_THROW(BandedLatencyMatrix(model, cities, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(BandedLatency, WideBandDegeneratesToTheDenseMatrix) {
  const std::vector<City> cities = central_eu_region().resolve();
  const LatencyModel model;
  const BandedLatencyMatrix banded(model, cities, 1e6);
  EXPECT_EQ(banded.stored_entries(), cities.size() * cities.size());
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = 0; j < cities.size(); ++j) {
      EXPECT_EQ(banded.one_way_ms(i, j), model.one_way_ms(cities[i], cities[j]));
      EXPECT_EQ(banded.one_way_ms(i, j), model.one_way_ms(cities[j], cities[i]));
    }
  }
}

}  // namespace
}  // namespace carbonedge::geo
