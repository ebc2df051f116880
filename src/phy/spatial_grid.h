// Uniform-grid spatial index over radio positions.
//
// The channel rebuilds one grid over the whole fleet's epoch anchors
// (docs/SCALING.md "Candidate search from epoch anchors") and
// range-queries it per transmission, turning the "which radios can this
// frame possibly reach" question from an O(radios) scan into a lookup
// over the handful of cells that intersect the query circle.
//
// Queries are deliberately conservative at cell granularity: they return
// every bucketed point in any cell overlapping the query circle's
// bounding box (a superset of the points within `radius`), and the caller
// applies the exact distance test. That split keeps the index free of
// floating-point boundary decisions — correctness never depends on cell
// math, only on the caller's own distance comparison.
#ifndef CAVENET_PHY_SPATIAL_GRID_H
#define CAVENET_PHY_SPATIAL_GRID_H

#include <cstdint>
#include <span>
#include <vector>

#include "util/vec2.h"

namespace cavenet::phy {

class SpatialGrid {
 public:
  /// Rebuckets exactly the points named in `members` (indices into
  /// `positions`), so tombstoned slots stay out. `cell_size` (> 0) is
  /// normally the max-interaction radius, making a radius query touch at
  /// most 3x3 cells.
  void rebuild_members(std::span<const Vec2> positions,
                       std::span<const std::uint32_t> members,
                       double cell_size);

  /// Appends to `out` the indices of all bucketed points whose cell
  /// overlaps the axis-aligned bounding box of circle(center, radius) —
  /// a superset of the points within `radius` of `center`, in ascending
  /// index order (callers iterate receivers in attach order so results
  /// stay bitwise-identical to a linear scan).
  void query(Vec2 center, double radius, std::vector<std::uint32_t>& out) const;

  double cell_size() const noexcept { return cell_size_; }
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::int64_t cell_coord(double v) const noexcept;

  /// (packed cell key, point index), sorted. Keys order like (cx, cy), so
  /// a query column's cells are one contiguous run: rebuilds are a sort
  /// instead of a hash-map churn and queries are allocation-free.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries_;
  double cell_size_ = 0.0;
};

}  // namespace cavenet::phy

#endif  // CAVENET_PHY_SPATIAL_GRID_H
