// Strip partition of the world for the channel's candidate search.
//
// The world's x-extent is split into `strips` equal-width strips; every
// attached radio belongs to the strip containing its position at the
// last rebucket epoch (every kEpochSeconds of simulation time). Between
// epochs membership is allowed to go stale:
// a radio certified to move at most `max_speed_mps` can have drifted at
// most max_speed * elapsed from its bucketed position, so a query that
// pads its x-range by that margin (see margin_at) still reaches every
// radio that could currently be inside it — conservative synchronization
// with the max-interaction radius plus drift as the lookahead bound,
// evaluated lazily instead of with explicit null messages.
//
// The speed bound is certified by the caller (the scenario layer derives
// it from the mobility trace and gives traces with mid-run teleports no
// strip plan); with more than one strip, rebucket() re-verifies it
// against the observed per-epoch displacement and throws on violation
// rather than silently diverging. A single strip skips the check: it has
// no boundary to cross.
#ifndef CAVENET_PHY_SHARD_MAP_H
#define CAVENET_PHY_SHARD_MAP_H

#include <cstdint>
#include <span>
#include <vector>

#include "util/sim_time.h"
#include "util/vec2.h"

namespace cavenet::phy {

class ShardMap {
 public:
  static constexpr std::uint32_t kNoStrip = 0xFFFFFFFFu;
  /// Membership rebucket period in simulation seconds.
  static constexpr double kEpochSeconds = 1.0;

  /// Fixes the partition: `strips` >= 1 equal strips over [x_min, x_max]
  /// with `max_speed_mps` as the certified drift bound.
  void configure(std::uint32_t strips, double x_min, double x_max,
                 double max_speed_mps);

  std::uint32_t strips() const noexcept { return strips_; }
  bool configured() const noexcept { return strips_ > 0; }

  /// Strip containing x, clamped to [0, strips).
  std::uint32_t strip_of_x(double x) const noexcept;

  /// Strip the slot was bucketed into at the last epoch (kNoStrip for
  /// slots that were dead then).
  std::uint32_t strip_of_slot(std::uint32_t slot) const noexcept {
    return slot < strip_of_slot_.size() ? strip_of_slot_[slot] : kNoStrip;
  }

  const std::vector<std::uint32_t>& members(std::uint32_t strip) const {
    return members_[strip];
  }

  /// True when membership must be rebuilt before use: never bucketed,
  /// invalidated by churn, or the epoch has elapsed.
  bool needs_rebucket(SimTime now) const noexcept {
    return !valid_ || (now - last_rebucket_).sec() >= kEpochSeconds;
  }

  /// How far any radio may have strayed from its bucketed position by
  /// `now`; queries pad their strip range by this.
  double margin_at(SimTime now) const noexcept {
    return valid_ ? max_speed_mps_ * (now - last_rebucket_).sec() : 0.0;
  }

  /// Drops the current bucketing (attach/detach churn, out-of-band
  /// position edits). The next rebucket skips drift verification — there
  /// is no trusted anchor to verify against.
  void invalidate() noexcept { valid_ = false; }

  /// Rebuckets every slot with live[slot] != 0 at positions[slot]. With
  /// more than one strip it verifies the certified speed bound against
  /// the displacement since the previous epoch (throws std::logic_error
  /// on violation). Member lists come out in ascending slot order.
  void rebucket(SimTime now, std::span<const Vec2> positions,
                std::span<const std::uint8_t> live);

 private:
  std::uint32_t strips_ = 0;
  double x_min_ = 0.0;
  double strip_width_ = 0.0;
  double max_speed_mps_ = 0.0;

  bool valid_ = false;
  SimTime last_rebucket_ = SimTime::zero();
  std::vector<std::vector<std::uint32_t>> members_;
  std::vector<std::uint32_t> strip_of_slot_;
  /// Bucketed position per slot — the anchor the drift bound is verified
  /// against at the next epoch.
  std::vector<Vec2> anchors_;
};

}  // namespace cavenet::phy

#endif  // CAVENET_PHY_SHARD_MAP_H
