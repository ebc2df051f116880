#include "analysis/stats.h"

#include <vector>

#include <gtest/gtest.h>

namespace cavenet::analysis {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, MatchesBatchFormulas) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (const double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), mean(xs));
  EXPECT_NEAR(s.variance(), variance(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 16.0);
}

TEST(BatchStatsTest, EmptyAndDegenerateInputs) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(variance({}), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(variance(one), 0.0);
}

}  // namespace
}  // namespace cavenet::analysis
