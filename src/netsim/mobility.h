// Node mobility: where is a node at simulation time t.
#ifndef CAVENET_NETSIM_MOBILITY_H
#define CAVENET_NETSIM_MOBILITY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "util/sim_time.h"
#include "util/vec2.h"

namespace cavenet::netsim {

/// Computes many nodes' positions at one timestamp in a single virtual
/// call. The channel's per-timestamp position refresh walks thousands of
/// radios; when their mobility models share a provider (one compiled
/// mobility trace, one SoA lane state), serving the refresh in bulk
/// replaces a virtual call + std::function hop per node with one call
/// per batch. Implementations must be pure functions of time and must
/// return exactly what the per-member position_of returns — the batched
/// path is a dispatch optimization, never a semantic one.
class BatchMobilityProvider {
 public:
  virtual ~BatchMobilityProvider() = default;
  /// Fills out[i] with the position of member `members[i]` at `at`.
  /// out.size() must equal members.size().
  virtual void positions_at(SimTime at,
                            std::span<const std::uint32_t> members,
                            std::span<Vec2> out) const = 0;
  /// Single-member forms (the MobilityModel fallback path).
  virtual Vec2 position_of(std::uint32_t member, SimTime at) const = 0;
  virtual Vec2 velocity_of(std::uint32_t member, SimTime at) const = 0;
};

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vec2 position(SimTime at) const = 0;
  virtual Vec2 velocity(SimTime at) const = 0;
  /// When non-null, position(at) equals
  /// batch_provider()->position_of(batch_member(), at), and bulk position
  /// refreshes may be served through the provider instead of per-node
  /// virtual dispatch.
  virtual const BatchMobilityProvider* batch_provider() const {
    return nullptr;
  }
  virtual std::uint32_t batch_member() const { return 0; }
};

/// A node backed by one member of a BatchMobilityProvider. The provider
/// must outlive the model.
class BatchMobility final : public MobilityModel {
 public:
  BatchMobility(const BatchMobilityProvider* provider, std::uint32_t member)
      : provider_(provider), member_(member) {}

  Vec2 position(SimTime at) const override {
    return provider_->position_of(member_, at);
  }
  Vec2 velocity(SimTime at) const override {
    return provider_->velocity_of(member_, at);
  }
  const BatchMobilityProvider* batch_provider() const override {
    return provider_;
  }
  std::uint32_t batch_member() const override { return member_; }

 private:
  const BatchMobilityProvider* provider_;
  std::uint32_t member_;
};

class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Vec2 position) : position_(position) {}
  Vec2 position(SimTime) const override { return position_; }
  Vec2 velocity(SimTime) const override { return {}; }

 private:
  Vec2 position_;
};

/// Wraps arbitrary position/velocity functions of time (seconds). Used to
/// adapt compiled mobility-trace paths without a dependency cycle.
class FunctionMobility final : public MobilityModel {
 public:
  using PositionFn = std::function<Vec2(double)>;
  using VelocityFn = std::function<Vec2(double)>;

  FunctionMobility(PositionFn position, VelocityFn velocity)
      : position_(std::move(position)), velocity_(std::move(velocity)) {}

  Vec2 position(SimTime at) const override { return position_(at.sec()); }
  Vec2 velocity(SimTime at) const override {
    return velocity_ ? velocity_(at.sec()) : Vec2{};
  }

 private:
  PositionFn position_;
  VelocityFn velocity_;
};

}  // namespace cavenet::netsim

#endif  // CAVENET_NETSIM_MOBILITY_H
