#include "phy/channel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/units.h"

namespace cavenet::phy {

namespace {
/// Gather buffer size for batch position lookups: one provider call
/// serves up to this many consecutive same-provider members.
constexpr std::size_t kRefreshGrain = 256;
/// Upper bound on the derived strip count (2 253 km of extent at the
/// WaveLAN radius): keeps per-strip state bounded for absurd extents.
constexpr double kMaxStrips = 4096.0;
}  // namespace

Channel::Attachment::Attachment(Attachment&& other) noexcept
    : channel_(std::exchange(other.channel_, nullptr)), slot_(other.slot_) {}

Channel::Attachment& Channel::Attachment::operator=(
    Attachment&& other) noexcept {
  if (this != &other) {
    detach();
    channel_ = std::exchange(other.channel_, nullptr);
    slot_ = other.slot_;
  }
  return *this;
}

void Channel::Attachment::detach() noexcept {
  if (channel_ == nullptr) return;
  channel_->detach_slot(slot_);
  channel_ = nullptr;
}

Channel::Channel(netsim::Simulator& sim,
                 std::unique_ptr<PropagationModel> model, ChannelIndex index)
    : sim_(&sim), model_(std::move(model)), index_(index) {
  if (!model_) throw std::invalid_argument("channel needs a propagation model");
}

Channel::Attachment Channel::attach(WifiPhy* phy) {
  if (phy == nullptr) throw std::invalid_argument("null radio");
  if (phy->channel_ != nullptr) {
    throw std::logic_error("radio is already attached to a channel");
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(phy);
  live_.push_back(1);
  positions_.push_back({});
  const netsim::MobilityModel* mobility = phy->mobility();
  const netsim::BatchMobilityProvider* provider =
      mobility != nullptr ? mobility->batch_provider() : nullptr;
  batch_provider_.push_back(provider);
  batch_member_.push_back(mobility != nullptr ? mobility->batch_member() : 0);
  if (provider != nullptr) ++batch_count_;
  ++live_count_;
  phy->set_channel(this, slot);
  min_cs_stale_ = true;
  radius_cache_.reset();
  // Membership churn: strip assignment must be rebuilt before use.
  shards_.invalidate();
  return Attachment(this, slot);
}

void Channel::detach_slot(std::uint32_t slot) noexcept {
  if (slot >= slots_.size() || !live_[slot]) return;
  slots_[slot]->set_channel(nullptr, 0);
  slots_[slot] = nullptr;
  live_[slot] = 0;
  if (batch_provider_[slot] != nullptr) {
    batch_provider_[slot] = nullptr;
    --batch_count_;
  }
  --live_count_;
  // The detached radio may have been the most sensitive one: the next
  // transmit rescans, so tearing down N radios stays O(N).
  min_cs_stale_ = true;
  radius_cache_.reset();
  shards_.invalidate();
}

void Channel::bind_stats(obs::StatsRegistry& registry) {
  obs_tx_ = registry.counter("chan.tx");
  obs_evaluated_ = registry.counter("chan.evaluated");
  obs_culled_ = registry.counter("chan.culled");
}

void Channel::configure_shards(const ShardPlan& plan) {
  if (plan.max_speed_mps < 0.0) {
    throw std::invalid_argument("shard max speed must be >= 0");
  }
  if (!(plan.x_max > plan.x_min)) {
    throw std::invalid_argument("shard plan needs a positive x extent");
  }
  plan_.reset();
  strips_ = 0;
  // The kLinear reference deliberately never shards: it exists to be the
  // brute-force baseline the grid paths are compared against.
  if (index_ != ChannelIndex::kGrid) return;
  plan_ = plan;
}

std::uint32_t Channel::resolve_strips(const std::optional<double>& radius) {
  if (strips_ != 0) return strips_;
  const ShardPlan plan = plan_.value_or(ShardPlan{});
  strips_ = 1;
  const double extent = plan.x_max - plan.x_min;
  if (plan_ && radius && *radius > 0.0) {
    // As many strips as the extent holds radius-wide ones: a narrower
    // strip buys nothing, since every query would touch several strips.
    // Scenarios whose extent holds fewer than two stay one strip
    // (docs/SCALING.md "Sharding").
    const double fit = std::min(std::floor(extent / *radius), kMaxStrips);
    if (fit > 1.0) strips_ = static_cast<std::uint32_t>(fit);
  }
  shards_.configure(strips_, plan.x_min, plan.x_max, plan.max_speed_mps);
  shard_snapshot_time_.assign(strips_, SimTime::zero());
  shard_snapshot_valid_.assign(strips_, 0);
  shard_grid_built_.assign(strips_, 0);
  shard_grids_.assign(strips_, SpatialGrid{});
  return strips_;
}

void Channel::rebucket_shards(SimTime now) {
  // One full O(radios) position pass per epoch; between epochs the
  // per-transmit cost is the touched strips only.
  live_slots_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (live_[slot]) live_slots_.push_back(slot);
  }
  eval_member_positions(now, live_slots_);
  shards_.rebucket(now, positions_, live_);
  for (std::uint32_t s = 0; s < strips_; ++s) {
    shard_snapshot_time_[s] = now;
    shard_snapshot_valid_[s] = 1;
    shard_grid_built_[s] = 0;
  }
}

void Channel::refresh_strip(std::uint32_t s, SimTime now) {
  if (shard_snapshot_valid_[s] && shard_snapshot_time_[s] == now) return;
  const std::vector<std::uint32_t>& members = shards_.members(s);
  eval_member_positions(now, members);
  shard_snapshot_time_[s] = now;
  shard_snapshot_valid_[s] = 1;
  shard_grid_built_[s] = 0;
}

std::optional<double> Channel::interaction_radius(double tx_power_w) {
  if (min_cs_stale_) {
    min_cs_valid_ = false;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!live_[i]) continue;
      const double thr = slots_[i]->params().profile.cs_threshold_w;
      min_cs_threshold_w_ =
          min_cs_valid_ ? std::min(min_cs_threshold_w_, thr) : thr;
      min_cs_valid_ = true;
    }
    min_cs_stale_ = false;
  }
  if (!min_cs_valid_) return std::nullopt;
  if (radius_cache_ && radius_cache_->first == tx_power_w) {
    return radius_cache_->second;
  }
  std::optional<double> radius =
      model_->max_range_m(tx_power_w, min_cs_threshold_w_);
  radius_cache_ = {tx_power_w, radius};
  return radius;
}

void Channel::eval_member_positions(
    SimTime now, std::span<const std::uint32_t> member_slots) {
  if (batch_count_ == 0) {
    for (const std::uint32_t slot : member_slots) {
      positions_[slot] = slots_[slot]->position_at(now);
    }
    return;
  }
  // Strip members are scattered slots, so gather member ids and scatter
  // results through stack buffers, one provider-run at a time.
  const std::size_t n = member_slots.size();
  std::array<std::uint32_t, kRefreshGrain> members;
  std::array<Vec2, kRefreshGrain> out;
  std::size_t i = 0;
  while (i < n) {
    const std::uint32_t slot = member_slots[i];
    const netsim::BatchMobilityProvider* provider = batch_provider_[slot];
    if (provider == nullptr) {
      positions_[slot] = slots_[slot]->position_at(now);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < n && j - i < kRefreshGrain &&
           batch_provider_[member_slots[j]] == provider) {
      ++j;
    }
    for (std::size_t k = i; k < j; ++k) {
      members[k - i] = batch_member_[member_slots[k]];
    }
    provider->positions_at(
        now, std::span<const std::uint32_t>(members.data(), j - i),
        std::span<Vec2>(out.data(), j - i));
    for (std::size_t k = i; k < j; ++k) positions_[member_slots[k]] = out[k - i];
    i = j;
  }
}

void Channel::transmit(const WifiPhy& sender, const netsim::Packet& packet,
                       SimTime duration, double tx_power_w) {
  obs_tx_.inc();
  const std::optional<double> radius = interaction_radius(tx_power_w);
  const std::uint32_t sender_slot = sender.channel_slot_;
  const SimTime now = sim_->now();

  // Only the strips the interaction radius (plus the drift margin) can
  // reach get their positions refreshed. Resolved lazily because the
  // strip count depends on the radius; without a plan this is one strip
  // holding every live radio.
  const std::uint32_t strips = resolve_strips(radius);
  if (shards_.needs_rebucket(now)) rebucket_shards(now);
  // The sender's own strip always lies inside the strip range queried
  // below (its drift since the rebucket is within the margin), so
  // refreshing it first costs nothing and yields the sender's position.
  refresh_strip(shards_.strip_of_slot(sender_slot), now);
  const Vec2 tx_pos = positions_[sender_slot];

  // Candidate collection: a conservative superset of the in-range
  // receivers, in ascending slot (attach) order. A bounded radius on a
  // grid channel queries each touched strip's grid; kLinear and unbounded
  // models walk every member instead.
  std::uint32_t s0 = 0;
  std::uint32_t s1 = strips - 1;
  if (radius && strips > 1) {
    const double reach = *radius + shards_.margin_at(now);
    s0 = shards_.strip_of_x(tx_pos.x - reach);
    s1 = shards_.strip_of_x(tx_pos.x + reach);
  }
  const bool use_grid = radius && index_ == ChannelIndex::kGrid;
  scratch_.clear();
  for (std::uint32_t s = s0; s <= s1; ++s) {
    refresh_strip(s, now);
    const std::vector<std::uint32_t>& members = shards_.members(s);
    if (!use_grid) {
      scratch_.insert(scratch_.end(), members.begin(), members.end());
      continue;
    }
    if (!shard_grid_built_[s]) {
      shard_grids_[s].rebuild_members(positions_, members, *radius);
      shard_grid_built_[s] = 1;
    }
    shard_grids_[s].query(tx_pos, *radius, scratch_);
  }
  // Each strip's candidates are ascending; restore the global attach
  // order across strips so delivery scheduling is the same at any strip
  // count, byte for byte.
  if (s0 != s1) std::sort(scratch_.begin(), scratch_.end());

  // Exact distance cull (only when the model bounds range), then the
  // receive-power evaluation and the receiver's own carrier-sense cull,
  // exactly as the full scan always did. The index (linear member walk /
  // per-strip grids, any strip count) only changes how candidates are
  // found — a conservative superset either way — never which ones
  // survive this exact test, so counters and deliveries are identical
  // across all of them.
  std::uint64_t evaluated = 0;
  for (const std::uint32_t slot : scratch_) {
    if (slot == sender_slot) continue;
    const Vec2 rx_pos = positions_[slot];
    const double d = distance(tx_pos, rx_pos);
    if (radius && d > *radius) continue;
    ++evaluated;
    WifiPhy* rx = slots_[slot];
    const double power = model_->rx_power_w(tx_power_w, tx_pos, rx_pos);
    if (power < rx->params().profile.cs_threshold_w) continue;
    const double delay_s = d / kSpeedOfLight;
    // The per-receiver copy shares the header stack (COW), so this is a
    // refcount bump, and the whole delivery closure fits the scheduler's
    // inline action buffer: the hottest path in the kernel allocates
    // nothing per receiver.
    netsim::Packet copy = packet;
    auto deliver = [rx, copy = std::move(copy), power, duration]() mutable {
      rx->begin_receive(std::move(copy), power, duration);
    };
    static_assert(sizeof(deliver) <= netsim::detail::InlineAction::kCapacity,
                  "broadcast delivery must stay allocation-free");
    sim_->schedule(SimTime::from_seconds(delay_s), "chan",
                   std::move(deliver));
  }

  obs_evaluated_.inc(evaluated);
  obs_culled_.inc(static_cast<std::uint64_t>(live_count_) - 1 - evaluated);
}

}  // namespace cavenet::phy
