// The paper's Table-I scenario: 30 vehicles on a 3000 m circuit driven by
// the NaS cellular automaton, IEEE 802.11 DCF at 2 Mbps with two-ray
// ground propagation and 250 m range, and one CBR flow (5 packets/s,
// 512 bytes, t = 10..90 s) from a sender node to receiver node 0.
//
// The paper prepares one scenario per sender id (1..8) over the same
// mobility pattern; run_all_senders() reproduces that sweep.
#ifndef CAVENET_SCENARIO_TABLE1_H
#define CAVENET_SCENARIO_TABLE1_H

#include <cstdint>
#include <vector>

#include <string>

#include "app/flow_metrics.h"
#include "mac/wifi_mac.h"
#include "netsim/parallel.h"
#include "obs/telemetry.h"
#include "phy/channel.h"
#include "phy/wifi_phy.h"
#include "routing/common.h"
#include "scenario/obs_hooks.h"
#include "scenario/protocol.h"
#include "trace/mobility_trace.h"

namespace cavenet::scenario {

enum class Propagation { kTwoRayGround, kFreeSpace, kShadowing, kRayleigh };

struct TableIConfig {
  Protocol protocol = Protocol::kAodv;
  ProtocolOptions protocol_options;

  // Mobility (Behavioural Analyzer block).
  std::int64_t lane_cells = 400;    ///< 400 x 7.5 m = 3000 m circuit
  std::int32_t vehicles = 30;       ///< Table I: 30 nodes
  /// NaS random-slowdown probability. The paper leaves it unstated; 0.7
  /// puts the 30-vehicle circuit in the jam-cluster regime, which produces
  /// the intermittent connectivity gaps behind the paper's goodput bursts
  /// and its PDR spread (0.4..1.0). Lower p (e.g. 0.3) keeps spacing
  /// homogeneous and yields near-perfect delivery for every protocol.
  double slowdown_p = 0.7;
  /// Circular layout (the paper's improved CAVENET). false = the original
  /// straight-line layout, kept for the boundary ablation.
  bool circular_layout = true;

  // Traffic.
  netsim::NodeId receiver = 0;
  netsim::NodeId sender = 1;
  double packets_per_second = 5.0;
  std::size_t payload_bytes = 512;
  double traffic_start_s = 10.0;
  double traffic_stop_s = 90.0;

  // Simulation.
  double duration_s = 100.0;
  std::uint64_t seed = 1;
  /// Has no effect (see netsim::ParallelConfig). The channel finds
  /// receivers from epoch anchors in one whole-fleet grid, padded by the
  /// max speed the trace certifies (docs/SCALING.md "Candidate search
  /// from epoch anchors"); a trace with jumps (e.g. the straight-line
  /// layout's lane-wrap teleports) gets no certificate, and the channel
  /// re-anchors at every timestamp instead.
  netsim::ParallelConfig parallel;

  // Radio.
  /// MAC data rate (Table I: 2 Mbps). The PLCP preamble stays at the DSSS
  /// long-preamble timing regardless of rate.
  double mac_rate_bps = 2e6;
  Propagation propagation = Propagation::kTwoRayGround;
  double shadowing_exponent = 2.8;   ///< used when propagation == kShadowing
  double shadowing_sigma_db = 4.0;
  bool use_rts_cts = false;          ///< Table I: RTS/CTS none
  /// Candidate-receiver lookup on the shared medium. kGrid (default) and
  /// kLinear produce bitwise-identical runs; kLinear is the brute-force
  /// reference for equivalence tests and index-win measurements.
  phy::ChannelIndex channel_index = phy::ChannelIndex::kGrid;

  /// Observability sinks (all optional, non-owning; see ObsHooks).
  ObsHooks obs;
  /// In-run stats snapshots at a fixed sim-time period (see
  /// obs/telemetry.h); the JSONL stream lands in
  /// SenderRunResult::telemetry_jsonl. Works without obs.stats wired —
  /// the run then samples a private registry.
  obs::TelemetryOptions telemetry;
};

/// Outcome of one (protocol, sender) run.
struct SenderRunResult {
  netsim::NodeId sender = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  double pdr = 0.0;
  double mean_delay_s = 0.0;
  double max_delay_s = 0.0;
  double first_delivery_delay_s = -1.0;
  /// Mean hop count over all packets the receiver delivered in this run
  /// (shared across concurrent flows; 0 when nothing was delivered).
  double mean_hop_count = 0.0;
  /// Per-second goodput series over the whole run, bits/second (Fig. 8-10
  /// rows of the goodput surface).
  std::vector<double> goodput_bps;

  // Aggregates across all 30 nodes.
  std::uint64_t control_packets = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t route_discoveries = 0;
  std::uint64_t mac_collisions = 0;
  std::uint64_t mac_retries = 0;
  std::uint64_t mac_tx_failed = 0;
  std::uint64_t events_dispatched = 0;
  /// Fraction of the run's wall-clock the channel carried transmissions
  /// (sum of per-node TX airtime / duration; can exceed 1 with spatial
  /// reuse or simultaneous/colliding transmitters).
  double channel_utilization = 0.0;

  /// Telemetry snapshot stream (one JSON object per line) when
  /// TableIConfig::telemetry is enabled; empty otherwise. Shared across
  /// the per-sender entries of one simulation, like the aggregates.
  std::string telemetry_jsonl;
};

/// Runs the Table-I scenario for config.sender.
SenderRunResult run_table1(const TableIConfig& config);

/// Runs senders 1..8 (paper setup) over the same mobility pattern, one
/// scenario per sender as the paper does.
///
/// `jobs` fans the per-sender runs out with runner::map (<= 0 means one
/// lane per hardware thread). Results and any stats published into
/// config.obs.stats are bitwise-identical for every jobs value: each run
/// draws from its own seed-derived streams and the per-run registries
/// merge in sender order. When config wires a shared
/// packet_log / trace_sink / profiler, the runs fall back to serial —
/// those sinks are single-writer by design.
std::vector<SenderRunResult> run_all_senders(TableIConfig config,
                                             netsim::NodeId first = 1,
                                             netsim::NodeId last = 8,
                                             int jobs = 1);

/// Variation the paper hints at ("if we increase the background traffic
/// ... the network may be congested"): all `senders` transmit to node 0
/// concurrently within ONE simulation. Returns one result per sender;
/// network-wide aggregates (control bytes etc.) are identical across the
/// returned entries since they describe the same run.
std::vector<SenderRunResult> run_table1_concurrent(
    const TableIConfig& config, const std::vector<netsim::NodeId>& senders);

/// Builds the Table-I mobility trace alone (shared by tests/benches).
trace::MobilityTrace make_table1_trace(const TableIConfig& config);

/// Generic runner: the same protocol stack and traffic plan over ANY
/// mobility trace (urban grids, Random Waypoint, externally generated
/// ns-2 files). The trace's node count replaces config.vehicles; the
/// mobility-related config fields (lane_cells, slowdown_p, layout) are
/// ignored.
std::vector<SenderRunResult> run_with_trace(
    const trace::MobilityTrace& mobility, const TableIConfig& config,
    const std::vector<netsim::NodeId>& senders);

}  // namespace cavenet::scenario

#endif  // CAVENET_SCENARIO_TABLE1_H
