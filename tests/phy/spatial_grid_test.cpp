#include "phy/spatial_grid.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cavenet::phy {
namespace {

std::vector<std::uint32_t> all_members(std::size_t n) {
  std::vector<std::uint32_t> members(n);
  for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
  return members;
}

TEST(SpatialGridTest, RejectsBadArguments) {
  SpatialGrid grid;
  const std::vector<Vec2> positions = {{0, 0}};
  const std::vector<std::uint32_t> members = {0};
  EXPECT_THROW(grid.rebuild_members(positions, members, 0.0),
               std::invalid_argument);
  EXPECT_THROW(grid.rebuild_members(positions, members, -5.0),
               std::invalid_argument);
}

TEST(SpatialGridTest, QueryReturnsSupersetOfPointsInRadius) {
  // The contract is conservative: every point within `radius` must be
  // returned; extras (same-cell neighbours outside the circle) are fine.
  Rng rng(42);
  std::vector<Vec2> positions;
  for (int i = 0; i < 500; ++i) {
    positions.push_back(
        {rng.uniform(-2000.0, 2000.0), rng.uniform(-50.0, 50.0)});
  }
  SpatialGrid grid;
  grid.rebuild_members(positions, all_members(positions.size()), 550.0);
  EXPECT_EQ(grid.size(), positions.size());

  std::vector<std::uint32_t> out;
  for (int q = 0; q < 50; ++q) {
    const Vec2 center = positions[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(positions.size()) - 1))];
    const double radius = rng.uniform(10.0, 550.0);
    out.clear();
    grid.query(center, radius, out);
    for (std::uint32_t i = 0; i < positions.size(); ++i) {
      if (distance(positions[i], center) <= radius) {
        EXPECT_TRUE(std::find(out.begin(), out.end(), i) != out.end())
            << "point " << i << " within " << radius << " m missing";
      }
    }
  }
}

TEST(SpatialGridTest, QueryResultsAscendByIndex) {
  // The channel iterates query results as receivers; ascending index ==
  // attach order keeps the event schedule identical to a linear scan.
  Rng rng(7);
  std::vector<Vec2> positions;
  for (int i = 0; i < 200; ++i) {
    positions.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  SpatialGrid grid;
  grid.rebuild_members(positions, all_members(positions.size()), 200.0);
  std::vector<std::uint32_t> out;
  grid.query({500.0, 500.0}, 400.0, out);
  EXPECT_FALSE(out.empty());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end())
      << "duplicate index returned";
}

TEST(SpatialGridTest, MemberListExcludesTombstonedSlots) {
  const std::vector<Vec2> positions = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const std::vector<std::uint32_t> members = {0, 2};
  SpatialGrid grid;
  grid.rebuild_members(positions, members, 10.0);
  EXPECT_EQ(grid.size(), 2u);
  std::vector<std::uint32_t> out;
  grid.query({0, 0}, 100.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
}

TEST(SpatialGridTest, NegativeCoordinatesBucketCorrectly) {
  // Cell coords must floor (not truncate toward zero) or points straddling
  // the origin land in the same cell and queries near it miss neighbours.
  const std::vector<Vec2> positions = {{-5.0, -5.0}, {5.0, 5.0}, {-400.0, 0.0}};
  SpatialGrid grid;
  grid.rebuild_members(positions, all_members(positions.size()), 100.0);
  std::vector<std::uint32_t> out;
  grid.query({0.0, 0.0}, 20.0, out);
  EXPECT_TRUE(std::find(out.begin(), out.end(), 0u) != out.end());
  EXPECT_TRUE(std::find(out.begin(), out.end(), 1u) != out.end());
  EXPECT_TRUE(std::find(out.begin(), out.end(), 2u) == out.end())
      << "point 400 m away returned for a 20 m query with 100 m cells";
}

TEST(SpatialGridTest, ExtremeCoordinatesClampIntoEdgeCells) {
  // Cell coordinates beyond the 32-bit key range clamp to the edge cells
  // instead of reaching an out-of-range cast: far-off points share a
  // cell, and queries stay a superset at any coordinate.
  const std::vector<Vec2> positions = {
      {1e300, 0.0}, {2e300, 0.0}, {-1e300, 5.0}, {0.0, 1e300}, {0.0, 0.0}};
  SpatialGrid grid;
  grid.rebuild_members(positions, all_members(positions.size()), 550.0);
  std::vector<std::uint32_t> out;
  grid.query({1e300, 0.0}, 10.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  out.clear();
  grid.query({-1e300, 0.0}, 10.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2}));
  out.clear();
  grid.query({0.0, 0.0}, 10.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{4}));
  out.clear();
  grid.query({0.0, 0.0}, 1e301, out);  // a box wider than the key range
  EXPECT_EQ(out, all_members(positions.size()));
}

TEST(SpatialGridTest, RebuildReplacesPreviousContents) {
  std::vector<Vec2> positions = {{0, 0}, {50, 0}};
  SpatialGrid grid;
  grid.rebuild_members(positions, all_members(2), 100.0);
  positions = {{1000, 1000}};
  grid.rebuild_members(positions, all_members(1), 100.0);
  EXPECT_EQ(grid.size(), 1u);
  std::vector<std::uint32_t> out;
  grid.query({0, 0}, 200.0, out);
  EXPECT_TRUE(out.empty());
  grid.query({1000, 1000}, 10.0, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

}  // namespace
}  // namespace cavenet::phy
