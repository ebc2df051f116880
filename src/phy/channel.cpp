#include "phy/channel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/units.h"

namespace cavenet::phy {

namespace {
/// Gather buffer size for batch position lookups: one provider call
/// serves up to this many consecutive same-provider members.
constexpr std::size_t kRefreshGrain = 256;
/// Slack on the anchor reach, in metres: far above the float wobble of
/// interpolated positions (and the 1e-6 m the verification allows), far
/// below anything physical, so no radio in range is ever culled early.
constexpr double kAnchorSlack = 1e-3;
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
  anchors_.push_back({});
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
  // Membership churn: the newcomer has no anchor yet.
  anchored_ = false;
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
  anchored_ = false;
}

void Channel::bind_stats(obs::StatsRegistry& registry) {
  obs_tx_ = registry.counter("chan.tx");
  obs_evaluated_ = registry.counter("chan.evaluated");
  obs_culled_ = registry.counter("chan.culled");
}

void Channel::set_speed_certificate(double max_speed_mps) {
  if (!(max_speed_mps >= 0.0)) {
    throw std::invalid_argument("certified max speed must be >= 0");
  }
  // The kLinear reference deliberately ignores it: it exists to be the
  // brute-force baseline the anchored grid is compared against.
  if (index_ == ChannelIndex::kGrid) max_speed_mps_ = max_speed_mps;
}

void Channel::reanchor(SimTime now, bool verify) {
  live_slots_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (live_[slot]) live_slots_.push_back(slot);
  }
  eval_member_positions(now, live_slots_);
  if (verify) {
    // The bound is exact for any trajectory respecting the certified
    // speed; the epsilon only absorbs the float rounding in
    // piecewise-linear position interpolation.
    const double bound = *max_speed_mps_ * (now - anchor_time_).sec() + 1e-6;
    for (const std::uint32_t slot : live_slots_) {
      const double moved = distance(positions_[slot], anchors_[slot]);
      if (moved > bound) {
        throw std::logic_error(
            "channel speed certificate violated at slot " +
            std::to_string(slot) + ": displacement " + std::to_string(moved) +
            " m > bound " + std::to_string(bound) +
            " m — mobility moved faster than the certified max speed "
            "(teleport?); the scenario layer must give such a trace no "
            "certificate");
      }
    }
  }
  anchors_.swap(positions_);
  anchor_time_ = now;
  anchored_ = true;
  grid_built_ = false;
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
  // Candidates are scattered slots, so gather member ids and scatter
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

  // A certificate lets one set of anchors serve a whole epoch; without
  // one (or without a range bound to pad) every new timestamp re-anchors,
  // so positions are always exact.
  const bool certified = max_speed_mps_ && radius;
  if (!anchored_ ||
      (now != anchor_time_ &&
       (!certified || (now - anchor_time_).sec() >= kEpochSeconds))) {
    reanchor(now, certified && anchored_);
  }
  // On the anchor timestamp the anchors are exact; later in the epoch the
  // sender and each surviving candidate are evaluated at `now`.
  const bool exact = now == anchor_time_;
  if (!exact) eval_member_positions(now, {&sender_slot, 1});
  const std::vector<Vec2>& pos = exact ? anchors_ : positions_;
  const Vec2 tx_pos = pos[sender_slot];

  // Candidate collection: a conservative superset of the in-range
  // receivers, in ascending slot (attach) order. A bounded radius on a
  // grid channel queries the anchor grid; kLinear and unbounded models
  // walk every live radio instead.
  std::span<const std::uint32_t> candidates = live_slots_;
  if (radius && index_ == ChannelIndex::kGrid) {
    if (!grid_built_) {
      grid_.rebuild_members(anchors_, live_slots_, *radius);
      grid_built_ = true;
    }
    // A receiver within the radius now lies within the radius plus its
    // certified drift of its anchor (only receivers drift here: the
    // sender's position is exact).
    const double drift =
        exact ? 0.0 : *max_speed_mps_ * (now - anchor_time_).sec();
    const double reach = *radius + drift + kAnchorSlack;
    scratch_.clear();
    grid_.query(tx_pos, reach, scratch_);
    if (!exact) {
      // Pre-cull on the anchor distance, then evaluate the survivors.
      const double reach_sq = reach * reach;
      std::erase_if(scratch_, [&](std::uint32_t slot) {
        return slot == sender_slot ||
               (anchors_[slot] - tx_pos).norm_sq() > reach_sq;
      });
      eval_member_positions(now, scratch_);
    }
    candidates = scratch_;
  }

  // Exact distance cull (only when the model bounds range), then the
  // receive-power evaluation and the receiver's own carrier-sense cull,
  // exactly as the full scan always did. The index (linear walk or
  // anchor grid, any epoch) only changes how candidates are found — a
  // conservative superset either way — never which ones survive this
  // exact test, so counters and deliveries are identical across them.
  std::uint64_t evaluated = 0;
  for (const std::uint32_t slot : candidates) {
    if (slot == sender_slot) continue;
    const double d = distance(tx_pos, pos[slot]);
    if (radius && d > *radius) continue;
    ++evaluated;
    WifiPhy* rx = slots_[slot];
    const double power = model_->rx_power_w(tx_power_w, d);
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
