#include "phy/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cavenet::phy {

namespace {

constexpr std::int64_t kMinCell = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kMaxCell = std::numeric_limits<std::int32_t>::max();

/// Packs two cell coordinates in [kMinCell, kMaxCell] into one key that
/// orders like (cx, cy): each is biased to an unsigned 32-bit field.
std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) noexcept {
  return (static_cast<std::uint64_t>(cx - kMinCell) << 32) |
         static_cast<std::uint64_t>(cy - kMinCell);
}

std::int64_t column_of(std::uint64_t key) noexcept {
  return static_cast<std::int64_t>(key >> 32) + kMinCell;
}

}  // namespace

std::int64_t SpatialGrid::cell_coord(double v) const noexcept {
  // Clamped before the cast, so no coordinate reaches an out-of-range
  // conversion. Far-off points share the edge cells, and floor plus clamp
  // stays monotone, so queries remain a conservative superset.
  const double c = std::floor(v / cell_size_);
  if (!(c > static_cast<double>(kMinCell))) return kMinCell;  // NaN too
  if (c > static_cast<double>(kMaxCell)) return kMaxCell;
  return static_cast<std::int64_t>(c);
}

void SpatialGrid::rebuild_members(std::span<const Vec2> positions,
                                  std::span<const std::uint32_t> members,
                                  double cell_size) {
  if (!(cell_size > 0.0)) {
    throw std::invalid_argument("spatial grid cell size must be > 0");
  }
  cell_size_ = cell_size;
  entries_.clear();
  entries_.reserve(members.size());
  for (const std::uint32_t i : members) {
    entries_.emplace_back(
        pack_cell(cell_coord(positions[i].x), cell_coord(positions[i].y)), i);
  }
  std::sort(entries_.begin(), entries_.end());
}

void SpatialGrid::query(Vec2 center, double radius,
                        std::vector<std::uint32_t>& out) const {
  if (entries_.empty()) return;
  const std::size_t first_out = out.size();
  const std::int64_t x0 = cell_coord(center.x - radius);
  const std::int64_t x1 = cell_coord(center.x + radius);
  const std::int64_t y0 = cell_coord(center.y - radius);
  const std::int64_t y1 = cell_coord(center.y + radius);
  // One contiguous key run per column; the search resumes where the last
  // run ended and jumps over empty columns, so even a query box wider than
  // the world costs at most one search per occupied column.
  auto it = entries_.begin();
  for (std::int64_t cx = x0; cx <= x1;) {
    const std::uint64_t first = pack_cell(cx, y0);
    const std::uint64_t last = pack_cell(cx, y1);
    it = std::lower_bound(
        it, entries_.end(), first,
        [](const auto& entry, std::uint64_t k) { return entry.first < k; });
    for (; it != entries_.end() && it->first <= last; ++it) {
      out.push_back(it->second);
    }
    if (it == entries_.end()) break;
    cx = std::max(cx + 1, column_of(it->first));
  }
  // Each cell run is ascending, but cells are visited in coordinate
  // order; restore global index order for the caller.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first_out), out.end());
}

}  // namespace cavenet::phy
