#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace carbonedge::util {
namespace {

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50.0), 0.0);
  EXPECT_EQ(median(empty), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(median(v), 25.0);
}

TEST(Stats, PercentileClampsOutOfRangeP) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 250.0), 2.0);
}

TEST(Stats, MinMaxNormalize) {
  EXPECT_DOUBLE_EQ(minmax_normalize(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(minmax_normalize(-1.0, 0.0, 10.0), 0.0);  // clamps
  EXPECT_DOUBLE_EQ(minmax_normalize(11.0, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(minmax_normalize(5.0, 3.0, 3.0), 0.0);  // degenerate range
}

TEST(EmpiricalCdf, StepValuesAndQuantiles) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
}

}  // namespace
}  // namespace carbonedge::util
