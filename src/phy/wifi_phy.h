// Half-duplex radio with carrier sensing, capture and collision modelling
// (the ns-2 WirelessPhy equivalent used by the paper's CPS block).
#ifndef CAVENET_PHY_WIFI_PHY_H
#define CAVENET_PHY_WIFI_PHY_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "netsim/address.h"
#include "netsim/mobility.h"
#include "netsim/packet.h"
#include "netsim/simulator.h"
#include "obs/stats_registry.h"
#include "phy/propagation.h"
#include "util/sim_time.h"

namespace cavenet::phy {

class Channel;

struct PhyParams {
  /// Payload transmission rate (Table I: 2 Mbps).
  double data_rate_bps = 2e6;
  /// PLCP preamble + header airtime (802.11 DSSS long preamble at 1 Mbps).
  SimTime plcp_overhead = SimTime::microseconds(192);
  WaveLanProfile profile;
};

struct PhyStats {
  std::uint64_t frames_sent = 0;
  /// Cumulative time this radio spent transmitting.
  SimTime tx_airtime = SimTime::zero();
  std::uint64_t frames_received = 0;
  std::uint64_t collisions = 0;       ///< receptions corrupted by overlap
  std::uint64_t captures = 0;         ///< overlaps survived via capture
  std::uint64_t below_rx_threshold = 0;
  std::uint64_t missed_while_busy = 0;  ///< decodable frames while TX/locked
};

class WifiPhy {
 public:
  WifiPhy(netsim::Simulator& sim, netsim::NodeId id,
          const netsim::MobilityModel* mobility, PhyParams params = {});

  WifiPhy(const WifiPhy&) = delete;
  WifiPhy& operator=(const WifiPhy&) = delete;

  netsim::NodeId id() const noexcept { return id_; }
  Vec2 position() const { return mobility_->position(sim_->now()); }
  /// Position at an explicit simulation time (the channel's strip
  /// refreshes and rebuckets evaluate this).
  Vec2 position_at(SimTime at) const { return mobility_->position(at); }
  /// The mobility model answering position queries. The channel inspects
  /// it at attach time for a BatchMobilityProvider so strip refreshes
  /// can be served in bulk.
  const netsim::MobilityModel* mobility() const noexcept { return mobility_; }
  const PhyParams& params() const noexcept { return params_; }

  /// Airtime of a frame of `bytes` total size (PLCP + payload).
  SimTime frame_duration(std::size_t bytes) const noexcept;

  /// True while this radio transmits.
  bool transmitting() const noexcept;
  /// True while locked onto an incoming frame.
  bool receiving() const noexcept { return current_rx_.has_value(); }
  /// Clear-channel assessment: medium busy by TX, RX or sensed energy.
  bool cca_busy() const noexcept;

  /// MAC downcall: start transmitting. Aborts any in-progress reception
  /// (the frame under reception is corrupted — half-duplex radio).
  void transmit(netsim::Packet packet);

  /// Upcall with the decoded frame and its receive power.
  using ReceiveCallback = std::function<void(netsim::Packet, double rx_power_w)>;
  void set_receive_callback(ReceiveCallback cb) { receive_cb_ = std::move(cb); }

  /// Upcall when a locked frame finished in error (collision / aborted):
  /// 802.11 stations defer EIFS instead of DIFS after this.
  using RxErrorCallback = std::function<void()>;
  void set_rx_error_callback(RxErrorCallback cb) {
    rx_error_cb_ = std::move(cb);
  }

  /// Fired whenever the CCA indication flips.
  using CcaCallback = std::function<void(bool busy)>;
  void set_cca_callback(CcaCallback cb) { cca_cb_ = std::move(cb); }

  /// Channel-facing: a signal starts arriving at this radio.
  void begin_receive(netsim::Packet packet, double rx_power_w,
                     SimTime duration);

  const PhyStats& stats() const noexcept { return stats_; }

  /// Binds this PHY's counters into a stats registry under "phy.*".
  void bind_stats(obs::StatsRegistry& registry);

 private:
  friend class Channel;
  /// Channel-maintained: the medium this radio is attached to and its
  /// slot index there (the channel's position snapshot is slot-addressed).
  void set_channel(Channel* channel, std::uint32_t slot) noexcept {
    channel_ = channel;
    channel_slot_ = slot;
  }

  void end_receive();
  void prune_energy();
  double energy_sum() const noexcept;
  void update_cca();

  struct Reception {
    netsim::Packet packet;
    double power_w;
    SimTime end;
    bool corrupted = false;
  };
  struct Signal {
    double power_w;
    SimTime end;
  };

  netsim::Simulator* sim_;
  netsim::NodeId id_;
  const netsim::MobilityModel* mobility_;
  PhyParams params_;
  Channel* channel_ = nullptr;
  std::uint32_t channel_slot_ = 0;

  SimTime tx_until_ = SimTime::zero();
  std::optional<Reception> current_rx_;
  std::vector<Signal> signals_;
  bool last_cca_busy_ = false;

  ReceiveCallback receive_cb_;
  RxErrorCallback rx_error_cb_;
  CcaCallback cca_cb_;
  PhyStats stats_;

  obs::Counter obs_tx_frames_;       ///< phy.tx.frames
  obs::Counter obs_rx_frames_;       ///< phy.rx.frames
  obs::Counter obs_collisions_;      ///< phy.drop.collision
  obs::Counter obs_captures_;        ///< phy.capture
  obs::Counter obs_below_thresh_;    ///< phy.drop.below_threshold
  obs::Counter obs_missed_busy_;     ///< phy.drop.busy
};

}  // namespace cavenet::phy

#endif  // CAVENET_PHY_WIFI_PHY_H
