#include "phy/shard_map.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace cavenet::phy {

void ShardMap::configure(std::uint32_t strips, double x_min, double x_max,
                         double max_speed_mps) {
  if (strips == 0) {
    throw std::invalid_argument("shard map needs at least one strip");
  }
  if (!(x_max > x_min) && strips > 1) {
    throw std::invalid_argument("shard map extent must be positive");
  }
  if (max_speed_mps < 0.0) {
    throw std::invalid_argument("max speed must be >= 0");
  }
  strips_ = strips;
  x_min_ = x_min;
  strip_width_ = strips > 1 ? (x_max - x_min) / strips : 0.0;
  max_speed_mps_ = max_speed_mps;
  members_.assign(strips, {});
  strip_of_slot_.clear();
  anchors_.clear();
  valid_ = false;
}

std::uint32_t ShardMap::strip_of_x(double x) const noexcept {
  if (strips_ <= 1 || !(strip_width_ > 0.0)) return 0;
  const double f = std::floor((x - x_min_) / strip_width_);
  if (f <= 0.0) return 0;
  if (f >= static_cast<double>(strips_ - 1)) return strips_ - 1;
  return static_cast<std::uint32_t>(f);
}

void ShardMap::rebucket(SimTime now, std::span<const Vec2> positions,
                        std::span<const std::uint8_t> live) {
  // Tolerance: the bound itself is exact for any trajectory respecting
  // the certified speed, the epsilon only absorbs the float rounding in
  // piecewise-linear position interpolation.
  const double bound =
      valid_ ? max_speed_mps_ * (now - last_rebucket_).sec() + 1e-6 : 0.0;
  // A single strip has no boundary to cross, so there is nothing to
  // verify: any trajectory, teleports included, stays in strip 0.
  const bool verify =
      strips_ > 1 && valid_ && anchors_.size() == positions.size();
  for (auto& m : members_) m.clear();
  strip_of_slot_.assign(positions.size(), kNoStrip);
  for (std::uint32_t slot = 0; slot < positions.size(); ++slot) {
    if (!live[slot]) continue;
    if (verify && distance(positions[slot], anchors_[slot]) > bound) {
      throw std::logic_error(
          "shard map speed bound violated at slot " + std::to_string(slot) +
          ": displacement " +
          std::to_string(distance(positions[slot], anchors_[slot])) +
          " m > bound " + std::to_string(bound) +
          " m — mobility moved faster than the certified max speed "
          "(teleport?); the scenario layer must fall back to one strip");
    }
    const std::uint32_t strip = strip_of_x(positions[slot].x);
    strip_of_slot_[slot] = strip;
    members_[strip].push_back(slot);
  }
  anchors_.assign(positions.begin(), positions.end());
  last_rebucket_ = now;
  valid_ = true;
}

}  // namespace cavenet::phy
