// BandedLatencyMatrix vs the dense LatencyMatrix: bit-identical on the
// shared support, +infinity outside the band, neighborhoods ascending.
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
  const LatencyMatrix dense(model, cities);
  const double band_ms = 8.0;
  const BandedLatencyMatrix banded(model, cities, band_ms);
  ASSERT_EQ(banded.size(), dense.size());
  EXPECT_EQ(banded.band_one_way_ms(), band_ms);

  std::size_t in_band = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    for (std::size_t j = 0; j < dense.size(); ++j) {
      const double dense_ms = dense.one_way_ms(i, j);
      if (dense_ms <= band_ms) {
        // Exact equality: the band scores candidates with the same model.
        EXPECT_EQ(banded.one_way_ms(i, j), dense_ms) << i << "," << j;
        ++in_band;
      } else {
        EXPECT_TRUE(std::isinf(banded.one_way_ms(i, j))) << i << "," << j;
      }
    }
  }
  EXPECT_EQ(banded.stored_entries(), in_band);
  // The band must actually be sparse on a continental geography.
  EXPECT_LT(banded.stored_entries(), dense.size() * dense.size());
}

TEST(BandedLatency, NeighborhoodsAreAscendingAndMirrorTheSupport) {
  const std::vector<City> cities = cdn_region(Continent::kEurope).resolve();
  const LatencyModel model;
  const BandedLatencyMatrix banded(model, cities, 6.0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < banded.size(); ++i) {
    const auto row = banded.neighbors(i);
    total += row.size();
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(row[k - 1], row[k]);  // strictly ascending
      }
      EXPECT_TRUE(std::isfinite(banded.one_way_ms(i, row[k])));
      // Symmetry: j in neighbors(i) <=> i in neighbors(j) (the model is
      // exactly symmetric, so band membership is too).
      EXPECT_EQ(banded.one_way_ms(row[k], i), banded.one_way_ms(i, row[k]));
    }
    // The diagonal is always in band (0 ms).
    EXPECT_EQ(banded.one_way_ms(i, i), 0.0);
  }
  EXPECT_EQ(total, banded.stored_entries());
}

TEST(BandedLatency, DenseProviderAdvertisesUnconstrainedNeighbors) {
  const std::vector<City> cities = florida_region().resolve();
  const LatencyMatrix dense(LatencyModel{}, cities);
  const LatencyProvider& provider = dense;
  // Every row lists every site, ascending: the dense provider constrains
  // nothing, so neighbor-driven scans visit all sites in site order.
  std::vector<std::uint32_t> all_sites(cities.size());
  std::iota(all_sites.begin(), all_sites.end(), std::uint32_t{0});
  for (std::size_t i = 0; i < provider.size(); ++i) {
    const auto row = provider.neighbors(i);
    EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), all_sites);
  }
  EXPECT_EQ(provider.rtt_ms(0, 1), 2.0 * provider.one_way_ms(0, 1));
}

TEST(BandedLatency, BandBelowBaseLatencyThrows) {
  const std::vector<City> cities = florida_region().resolve();
  const LatencyModel model;
  EXPECT_THROW(BandedLatencyMatrix(model, cities, model.params().base_ms),
               std::invalid_argument);
  EXPECT_THROW(BandedLatencyMatrix(model, cities, 0.0), std::invalid_argument);
}

TEST(BandedLatency, WideBandDegeneratesToTheDenseMatrix) {
  const std::vector<City> cities = central_eu_region().resolve();
  const LatencyModel model;
  const LatencyMatrix dense(model, cities);
  const BandedLatencyMatrix banded(model, cities, 1e6);
  EXPECT_EQ(banded.stored_entries(), cities.size() * cities.size());
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = 0; j < cities.size(); ++j) {
      EXPECT_EQ(banded.one_way_ms(i, j), dense.one_way_ms(i, j));
    }
  }
}

}  // namespace
}  // namespace carbonedge::geo
