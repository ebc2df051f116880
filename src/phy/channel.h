// The shared wireless medium: delivers each transmission to the attached
// radios that can interact with it, with per-link propagation loss and
// speed-of-light delay.
//
// Scaling design (docs/SCALING.md): the channel partitions the world into
// as many x-strips as the ShardPlan's extent holds interaction-radius-
// wide strips (one strip without a plan). Each strip keeps a
// per-timestamp snapshot of its members' positions and, when the
// propagation model can bound its interaction range
// (PropagationModel::max_range_m), a uniform grid over that snapshot;
// a transmission refreshes only the strips its radius can reach
// and only evaluates receive power for radios within the max-interaction
// radius. Receivers beyond it are provably below every radio's
// carrier-sense threshold, so the grid path is bitwise-identical to a
// full scan — only cheaper. Models that cannot bound range (shadowing,
// fading) and the kLinear reference walk every member of the strip
// instead of querying its grid.
#ifndef CAVENET_PHY_CHANNEL_H
#define CAVENET_PHY_CHANNEL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netsim/simulator.h"
#include "obs/stats_registry.h"
#include "phy/propagation.h"
#include "phy/shard_map.h"
#include "phy/spatial_grid.h"
#include "phy/wifi_phy.h"

namespace cavenet::phy {

/// How the channel finds candidate receivers for a transmission. kGrid is
/// the default; kLinear is the brute-force reference (same range cull,
/// same results, same counters — it only walks every radio to apply it)
/// kept for equivalence testing and for measuring the index's win.
enum class ChannelIndex { kGrid, kLinear };

/// Strip plan for the channel (docs/SCALING.md "Sharding"): the trace's
/// certificate. The world's x-extent [x_min, x_max] is partitioned into
/// max(1, floor(extent / interaction radius)) strips; each transmission
/// only refreshes the position snapshot and spatial grid of the strips
/// its interaction radius (plus drift margin) can reach, so the
/// per-transmit snapshot cost drops from O(radios) to O(radios/strips).
/// `max_speed_mps` must be a true bound on every radio's speed for the
/// whole run — the scenario layer certifies it from the mobility trace
/// and gives traces with mid-run teleports no plan; with more than one
/// strip, ShardMap re-verifies it every epoch and throws on violation.
/// Results are bitwise-identical at any strip count: the candidate
/// superset changes, the evaluated set and event order never do.
struct ShardPlan {
  double x_min = 0.0;
  double x_max = 0.0;
  double max_speed_mps = 0.0;
};

class Channel {
 public:
  /// RAII handle for one radio's membership on the medium: detaches on
  /// destruction (node teardown / churn). Obtained from Channel::attach;
  /// must not outlive the channel it came from.
  class [[nodiscard]] Attachment {
   public:
    Attachment() noexcept = default;
    Attachment(Attachment&& other) noexcept;
    Attachment& operator=(Attachment&& other) noexcept;
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    ~Attachment() { detach(); }

    /// Unregisters the radio from the channel (idempotent). The radio
    /// stops receiving immediately; frames already in flight to it are
    /// still delivered (they left the medium while it was attached).
    void detach() noexcept;
    bool attached() const noexcept { return channel_ != nullptr; }

   private:
    friend class Channel;
    Attachment(Channel* channel, std::uint32_t slot) noexcept
        : channel_(channel), slot_(slot) {}

    Channel* channel_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  Channel(netsim::Simulator& sim, std::unique_ptr<PropagationModel> model,
          ChannelIndex index = ChannelIndex::kGrid);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers a radio on this medium and hands back its lifecycle
  /// handle. The radio and the handle must not outlive the channel;
  /// dropping the handle detaches the radio.
  Attachment attach(WifiPhy* phy);

  /// Radios currently attached (detached slots excluded).
  std::size_t radio_count() const noexcept { return live_count_; }

  /// Called by a transmitting radio; delivers the frame to every other
  /// attached radio that can interact with it (each gets an independent
  /// copy).
  ///
  /// Cost per call: with a range-bounded model, O(members of the touched
  /// strips) position evaluations once per distinct simulation timestamp
  /// (the strip snapshots) plus O(neighbours within the max-interaction
  /// radius) receive-power evaluations and events; the kLinear fallback
  /// and unbounded models pay O(radios) per call (every radio distance-
  /// or power-evaluated), though events stay O(neighbours) either way.
  void transmit(const WifiPhy& sender, const netsim::Packet& packet,
                SimTime duration, double tx_power_w);

  /// Drops the cached per-timestamp strip snapshots and membership. Only
  /// needed by callers that mutate a mobility model's position out-of-band
  /// at the current timestamp (test harnesses teleporting nodes
  /// mid-event); positions that are pure functions of simulation time
  /// never need it.
  void invalidate_positions() noexcept {
    shards_.invalidate();
    for (auto& v : shard_snapshot_valid_) v = 0;
  }

  /// Installs a strip plan (see ShardPlan). Call before the run; without
  /// a plan the channel runs as one strip. The strip count is resolved
  /// lazily against the interaction radius — a world narrower than two
  /// radius-wide strips stays one strip. Requires a grid-indexed channel;
  /// the kLinear reference and unbounded models always run as one strip.
  void configure_shards(const ShardPlan& plan);

  /// Resolved strip count (0 until the first transmit resolves it).
  std::uint32_t strips() const noexcept { return strips_; }

  PropagationModel& propagation() noexcept { return *model_; }

  /// Binds the channel's culling counters into a registry:
  /// "chan.tx" transmissions carried, "chan.evaluated" receive-power
  /// evaluations performed, "chan.culled" receivers skipped without one
  /// (beyond the max-interaction radius). evaluated + culled counts every
  /// (transmission, other radio) pair, and both are identical for kGrid
  /// and kLinear — the index changes how candidates are found, never
  /// which ones are evaluated.
  void bind_stats(obs::StatsRegistry& registry);

 private:
  void detach_slot(std::uint32_t slot) noexcept;
  /// Max-interaction radius for this transmit power against the most
  /// sensitive attached radio; nullopt when the model can't bound range.
  std::optional<double> interaction_radius(double tx_power_w);
  /// Resolves the strip count against the first seen radius (how many
  /// radius-wide strips fit the plan's extent; one strip without a plan
  /// or a radius) and sizes the per-strip state.
  std::uint32_t resolve_strips(const std::optional<double>& radius);
  /// Re-evaluates every live position at `now` and rebuilds strip
  /// membership.
  void rebucket_shards(SimTime now);
  /// Evaluates the positions of `member_slots` at `now` into positions_.
  /// Slots whose mobility model exposes a BatchMobilityProvider are
  /// served in bulk (one virtual call per run of consecutive same-
  /// provider slots) instead of per-radio virtual dispatch.
  void eval_member_positions(SimTime now,
                             std::span<const std::uint32_t> member_slots);
  /// Ensures strip `s`'s members have fresh positions at `now`.
  void refresh_strip(std::uint32_t s, SimTime now);

  netsim::Simulator* sim_;
  std::unique_ptr<PropagationModel> model_;
  ChannelIndex index_;

  // Slot-addressed radio table: slots keep their index for the lifetime
  // of the channel (Attachment handles store it), detach tombstones the
  // slot. Iteration order == attach order, which fixes the event
  // schedule order and therefore byte-level determinism.
  std::vector<WifiPhy*> slots_;
  std::vector<std::uint8_t> live_;
  std::vector<Vec2> positions_;  ///< strip snapshots, parallel to slots_
  std::size_t live_count_ = 0;

  /// Batch-dispatch table, parallel to slots_: the slot's mobility
  /// provider (nullptr = per-radio dispatch) and its member id there.
  /// Captured at attach time, cleared on detach.
  std::vector<const netsim::BatchMobilityProvider*> batch_provider_;
  std::vector<std::uint32_t> batch_member_;
  std::size_t batch_count_ = 0;  ///< live slots with a provider

  std::vector<std::uint32_t> live_slots_;  ///< rebucket input, reused
  std::vector<std::uint32_t> scratch_;     ///< candidates, reused

  /// Smallest carrier-sense threshold over attached radios — the radius
  /// bound must cover the most sensitive receiver. Attach and detach only
  /// mark it stale; interaction_radius() rescans the live slots once.
  double min_cs_threshold_w_ = 0.0;
  bool min_cs_valid_ = false;  ///< false when no radio is attached
  bool min_cs_stale_ = false;
  /// Single-entry cache: tx power -> solved radius (tx power is uniform
  /// in practice, so the solve runs once per attach/detach epoch).
  std::optional<std::pair<double, std::optional<double>>> radius_cache_;

  obs::Counter obs_tx_;         ///< chan.tx
  obs::Counter obs_evaluated_;  ///< chan.evaluated
  obs::Counter obs_culled_;     ///< chan.culled

  // --- strips (configure_shards) ---
  std::optional<ShardPlan> plan_;
  ShardMap shards_;
  /// Resolved strip count; 0 until the first transmit.
  std::uint32_t strips_ = 0;
  /// Per-strip snapshot freshness and grids, parallel to strips.
  std::vector<SimTime> shard_snapshot_time_;
  std::vector<std::uint8_t> shard_snapshot_valid_;
  std::vector<std::uint8_t> shard_grid_built_;
  std::vector<SpatialGrid> shard_grids_;
};

}  // namespace cavenet::phy

#endif  // CAVENET_PHY_CHANNEL_H
