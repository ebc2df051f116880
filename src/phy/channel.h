// The shared wireless medium: delivers each transmission to the attached
// radios that can interact with it, with per-link propagation loss and
// speed-of-light delay.
//
// Scaling design (docs/SCALING.md "Candidate search from epoch anchors"):
// once per epoch the channel evaluates every live radio's position (its
// anchor) and, when the propagation model can bound its interaction range
// (PropagationModel::max_range_m), rebuilds one uniform grid over those
// anchors. A transmission queries the grid with the interaction radius
// plus the certified drift since the anchor, and evaluates exact
// positions and receive power only for radios that can still be within
// the radius. Receivers beyond it are provably below every radio's
// carrier-sense threshold, so the grid path is bitwise-identical to a
// full scan — only cheaper. Channels without a speed certificate, models
// that cannot bound range (shadowing, fading) and the kLinear reference
// re-anchor at every new timestamp, so their positions are always exact;
// the last two walk every radio instead of querying a grid.
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
#include "phy/spatial_grid.h"
#include "phy/wifi_phy.h"

namespace cavenet::phy {

/// How the channel finds candidate receivers for a transmission. kGrid is
/// the default; kLinear is the brute-force reference (same range cull,
/// same results, same counters — it only walks every radio to apply it)
/// kept for equivalence testing and for measuring the index's win.
enum class ChannelIndex { kGrid, kLinear };

class Channel {
 public:
  /// Anchor lifetime on a certified channel, in simulation seconds.
  static constexpr double kEpochSeconds = 1.0;

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
  /// Cost per call: with a range-bounded model and a speed certificate,
  /// one grid query plus O(radios whose anchor lies within the radius
  /// plus drift) position and receive-power evaluations and events, and
  /// O(radios) once per epoch for the anchors; without a certificate the
  /// anchors are re-evaluated once per distinct timestamp. The kLinear
  /// fallback and unbounded models pay O(radios) per call (every radio
  /// distance- or power-evaluated), though events stay O(neighbours)
  /// either way.
  void transmit(const WifiPhy& sender, const netsim::Packet& packet,
                SimTime duration, double tx_power_w);

  /// Drops the anchors, so the next transmit re-evaluates every position
  /// without checking the certificate. Only needed by callers that mutate
  /// a mobility model's position out-of-band (test harnesses teleporting
  /// nodes mid-event); positions that are pure functions of simulation
  /// time never need it.
  void invalidate_positions() noexcept { anchored_ = false; }

  /// Installs the speed certificate: `max_speed_mps` (>= 0) must bound
  /// every radio's speed for the whole run. The scenario layer certifies
  /// it from the mobility trace and gives traces with jumps none. With
  /// it, anchors serve a whole epoch and every re-anchor verifies the
  /// bound, throwing std::logic_error on a radio that outran it. Call
  /// before the run. The kLinear reference ignores it.
  void set_speed_certificate(double max_speed_mps);

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
  /// Re-evaluates every live position at `now` as the new anchors; with
  /// `verify`, first checks each radio's displacement since the previous
  /// anchors against the certificate.
  void reanchor(SimTime now, bool verify);
  /// Evaluates the positions of `member_slots` at `now` into positions_.
  /// Slots whose mobility model exposes a BatchMobilityProvider are
  /// served in bulk (one virtual call per run of consecutive same-
  /// provider slots) instead of per-radio virtual dispatch.
  void eval_member_positions(SimTime now,
                             std::span<const std::uint32_t> member_slots);

  netsim::Simulator* sim_;
  std::unique_ptr<PropagationModel> model_;
  ChannelIndex index_;

  // Slot-addressed radio table: slots keep their index for the lifetime
  // of the channel (Attachment handles store it), detach tombstones the
  // slot. Iteration order == attach order, which fixes the event
  // schedule order and therefore byte-level determinism.
  std::vector<WifiPhy*> slots_;
  std::vector<std::uint8_t> live_;
  /// Exact positions at the current transmit's timestamp, for the slots
  /// it evaluated; parallel to slots_.
  std::vector<Vec2> positions_;
  std::size_t live_count_ = 0;

  /// Batch-dispatch table, parallel to slots_: the slot's mobility
  /// provider (nullptr = per-radio dispatch) and its member id there.
  /// Captured at attach time, cleared on detach.
  std::vector<const netsim::BatchMobilityProvider*> batch_provider_;
  std::vector<std::uint32_t> batch_member_;
  std::size_t batch_count_ = 0;  ///< live slots with a provider

  std::vector<std::uint32_t> live_slots_;  ///< live at the anchor, ascending
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

  // --- epoch anchors ---
  std::optional<double> max_speed_mps_;  ///< the speed certificate
  /// Every live radio's position at anchor_time_; parallel to slots_.
  std::vector<Vec2> anchors_;
  SimTime anchor_time_ = SimTime::zero();
  /// False until the first anchor and after churn or
  /// invalidate_positions(): the next transmit re-anchors unverified.
  bool anchored_ = false;
  SpatialGrid grid_;  ///< over anchors_, cell size = interaction radius
  bool grid_built_ = false;
};

}  // namespace cavenet::phy

#endif  // CAVENET_PHY_CHANNEL_H
