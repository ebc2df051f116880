#include "scenario/table1.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "app/cbr.h"
#include "core/geometry.h"
#include "core/nas_lane.h"
#include "core/road.h"
#include "netsim/mobility.h"
#include "netsim/simulator.h"
#include "phy/channel.h"
#include "runner/ensemble.h"
#include "trace/trace_generator.h"

namespace cavenet::scenario {

using netsim::NodeId;

trace::MobilityTrace make_table1_trace(const TableIConfig& config) {
  ca::NasParams params;
  params.lane_length = config.lane_cells;
  params.slowdown_p = config.slowdown_p;
  params.boundary = ca::Boundary::kClosed;
  ca::NasLane lane(params, config.vehicles, ca::InitialPlacement::kRandom,
                   Rng(config.seed, 0x6d6f62));

  ca::Road road;
  const double length_m = params.lane_length_m();
  if (config.circular_layout) {
    road.add_lane(std::move(lane), ca::make_circuit(length_m));
  } else {
    road.add_lane(std::move(lane), ca::make_line(length_m));
  }

  trace::TraceGeneratorOptions options;
  options.steps = static_cast<std::int64_t>(config.duration_s);
  options.delta_offset = 1.0;
  return trace::generate_trace(road, options);
}

namespace {

std::unique_ptr<phy::PropagationModel> make_propagation(
    const TableIConfig& config, const netsim::Simulator& sim) {
  switch (config.propagation) {
    case Propagation::kTwoRayGround:
      return std::make_unique<phy::TwoRayGroundModel>();
    case Propagation::kFreeSpace:
      return std::make_unique<phy::FreeSpaceModel>();
    case Propagation::kShadowing:
      return std::make_unique<phy::ShadowingModel>(
          config.shadowing_exponent, config.shadowing_sigma_db,
          sim.make_rng(0x73686164));
    case Propagation::kRayleigh:
      return std::make_unique<phy::RayleighFadingModel>(
          std::make_unique<phy::TwoRayGroundModel>(),
          sim.make_rng(0x66616465));
  }
  throw std::invalid_argument("unknown propagation model");
}

/// Derives the channel's speed certificate from the mobility trace: the
/// max speed over all setdest events, the drift bound the channel's epoch
/// anchors rest on (docs/SCALING.md "Candidate search from epoch
/// anchors"). Returns nullopt — the channel re-anchors at every timestamp
/// — when any event is one that compile_paths turns into a jump: a set
/// position (the straight-line layout's lane-wrap teleports) or a setdest
/// whose speed is not a positive finite number. That holds at t = 0 too,
/// where a path still reads its initial position.
std::optional<double> speed_certificate(const trace::MobilityTrace& mobility) {
  double max_speed = 0.0;
  for (const trace::TraceEvent& e : mobility.events) {
    if (e.kind == trace::TraceEvent::Kind::kSetPosition ||
        !(e.speed_ms > 0.0) || !std::isfinite(e.speed_ms)) {
      return std::nullopt;
    }
    max_speed = std::max(max_speed, e.speed_ms);
  }
  return max_speed;
}

/// Bulk position source over the compiled per-node paths: the channel's
/// anchor and candidate evaluations make one virtual call per batch of
/// nodes instead of a virtual hop + std::function hop per node. Member
/// ids are node ids; the arithmetic per node is NodePath::position /
/// ::velocity either way, so runs are byte-identical to the per-node
/// FunctionMobility wiring this replaces.
class PathTableProvider final : public netsim::BatchMobilityProvider {
 public:
  explicit PathTableProvider(const std::vector<trace::NodePath>& paths)
      : paths_(&paths) {}

  void positions_at(SimTime at, std::span<const std::uint32_t> members,
                    std::span<Vec2> out) const override {
    const double t = at.sec();
    for (std::size_t i = 0; i < members.size(); ++i) {
      out[i] = (*paths_)[members[i]].position(t);
    }
  }
  Vec2 position_of(std::uint32_t member, SimTime at) const override {
    return (*paths_)[member].position(at.sec());
  }
  Vec2 velocity_of(std::uint32_t member, SimTime at) const override {
    return (*paths_)[member].velocity(at.sec());
  }

 private:
  const std::vector<trace::NodePath>* paths_;
};

/// One node's full protocol stack. Declaration order fixes teardown order
/// (in particular: `link` detaches from the channel while `phy` is still
/// alive).
struct NodeStack {
  std::unique_ptr<netsim::MobilityModel> mobility;
  std::unique_ptr<phy::WifiPhy> phy;
  phy::Channel::Attachment link;
  std::unique_ptr<mac::WifiMac> mac;
  std::unique_ptr<routing::RoutingProtocol> routing;
};

}  // namespace

std::vector<SenderRunResult> run_with_trace(
    const trace::MobilityTrace& mobility, const TableIConfig& config,
    const std::vector<NodeId>& senders) {
  const auto node_count = static_cast<NodeId>(mobility.node_count());
  if (senders.empty()) throw std::invalid_argument("no senders");
  if (node_count == 0) throw std::invalid_argument("empty mobility trace");
  for (const NodeId sender : senders) {
    if (sender == config.receiver) {
      throw std::invalid_argument("sender must differ from receiver");
    }
    if (sender >= node_count || config.receiver >= node_count) {
      throw std::invalid_argument("sender/receiver beyond node count");
    }
  }

  const std::vector<trace::NodePath> paths = trace::compile_paths(mobility);

  // Telemetry samples a StatsRegistry; when the caller enabled telemetry
  // without wiring one, a run-local registry stands in so the stream is
  // populated either way. The copy keeps config.obs untouched.
  ObsHooks obs = config.obs;
  obs::StatsRegistry local_stats;
  if (config.telemetry.enabled() && obs.stats == nullptr) {
    obs.stats = &local_stats;
  }
  netsim::Simulator sim(config.seed);
  if (obs.profiler != nullptr) sim.set_profiler(obs.profiler);
  if (obs.packet_log != nullptr && obs.trace_sink != nullptr) {
    obs.packet_log->set_trace_sink(obs.trace_sink);
  }
  phy::Channel channel(sim, make_propagation(config, sim),
                       config.channel_index);
  if (const std::optional<double> max_speed = speed_certificate(mobility)) {
    channel.set_speed_certificate(*max_speed);
  }
  if (obs.stats != nullptr) channel.bind_stats(*obs.stats);

  mac::MacParams mac_params;
  mac_params.use_rts_cts = config.use_rts_cts;
  phy::PhyParams phy_params;
  phy_params.data_rate_bps = config.mac_rate_bps;

  // Declared before `nodes` so it outlives every BatchMobility view and
  // the channel's attach-time capture of it.
  PathTableProvider path_provider(paths);
  std::vector<NodeStack> nodes(static_cast<std::size_t>(node_count));
  for (NodeId i = 0; i < node_count; ++i) {
    NodeStack& node = nodes[i];
    node.mobility = std::make_unique<netsim::BatchMobility>(&path_provider, i);
    node.phy =
        std::make_unique<phy::WifiPhy>(sim, i, node.mobility.get(), phy_params);
    node.link = channel.attach(node.phy.get());
    node.mac = std::make_unique<mac::WifiMac>(sim, *node.phy, mac_params, i);
    node.routing = make_protocol(sim, *node.mac, config.protocol,
                                 config.protocol_options);
    if (obs.packet_log != nullptr) {
      node.mac->set_packet_log(obs.packet_log);
      node.routing->set_packet_log(obs.packet_log);
    }
    if (obs.stats != nullptr) {
      node.phy->bind_stats(*obs.stats);
      node.mac->bind_stats(*obs.stats);
      node.routing->bind_stats(*obs.stats);
    }
    node.routing->start();
  }

  app::CbrParams cbr;
  cbr.destination = config.receiver;
  cbr.packets_per_second = config.packets_per_second;
  cbr.payload_bytes = config.payload_bytes;
  cbr.start = SimTime::from_seconds(config.traffic_start_s);
  cbr.stop = SimTime::from_seconds(config.traffic_stop_s);

  std::vector<std::unique_ptr<app::FlowMetrics>> metrics;
  std::vector<std::unique_ptr<app::CbrSource>> sources;
  app::PacketSink sink(sim, *nodes[config.receiver].routing, cbr.dst_port);
  for (const NodeId sender : senders) {
    metrics.push_back(std::make_unique<app::FlowMetrics>());
    sources.push_back(std::make_unique<app::CbrSource>(
        sim, *nodes[sender].routing, cbr, metrics.back().get()));
    if (obs.stats != nullptr) sources.back()->bind_stats(*obs.stats);
    if (obs.packet_log != nullptr) {
      sources.back()->set_packet_log(obs.packet_log);
    }
    sink.track_source(sender, metrics.back().get());
    sources.back()->start();
  }
  if (obs.stats != nullptr) sink.bind_stats(*obs.stats);

  std::optional<obs::TelemetryRecorder> telemetry;
  if (config.telemetry.enabled()) {
    telemetry.emplace(*obs.stats, config.telemetry);
    telemetry->attach(sim);
  }

  sim.run_until(SimTime::from_seconds(config.duration_s));

  // Network-wide aggregates are shared by every per-sender entry.
  SenderRunResult aggregate;
  aggregate.events_dispatched = sim.events_dispatched();
  const routing::RoutingStats& receiver_stats =
      nodes[config.receiver].routing->stats();
  if (receiver_stats.data_delivered > 0) {
    aggregate.mean_hop_count =
        static_cast<double>(receiver_stats.delivered_hops_sum) /
            static_cast<double>(receiver_stats.data_delivered) +
        1.0;  // hops counts forwards; the final link adds one hop
  }
  for (const NodeStack& node : nodes) {
    const routing::RoutingStats& rs = node.routing->stats();
    aggregate.control_packets += rs.control_packets_sent;
    aggregate.control_bytes += rs.control_bytes_sent;
    aggregate.route_discoveries += rs.route_discoveries;
    const mac::MacStats& ms = node.mac->stats();
    aggregate.mac_retries += ms.retries;
    aggregate.mac_tx_failed += ms.data_tx_failed;
    aggregate.mac_collisions += node.phy->stats().collisions;
    aggregate.channel_utilization +=
        node.phy->stats().tx_airtime.sec() / config.duration_s;
  }

  if (obs.stats != nullptr) {
    // Run-level readings that no single layer owns.
    obs.stats->gauge("sim.events.dispatched")
        .set(static_cast<double>(aggregate.events_dispatched));
    obs.stats->gauge("chan.utilization").set(aggregate.channel_utilization);
    std::uint64_t no_route = 0, ttl = 0, buffer = 0;
    for (const NodeStack& node : nodes) {
      const routing::RoutingStats& rs = node.routing->stats();
      no_route += rs.drops_no_route;
      ttl += rs.drops_ttl;
      buffer += rs.drops_buffer;
    }
    obs.stats->counter("rtr.drop.no_route").inc(no_route);
    obs.stats->counter("rtr.drop.ttl").inc(ttl);
    obs.stats->counter("rtr.drop.buffer").inc(buffer);
    if (obs.packet_log != nullptr) {
      obs.stats->counter("log.entries").inc(obs.packet_log->size());
      obs.stats->counter("log.dropped").inc(obs.packet_log->dropped());
    }
    if (obs.profiler != nullptr) obs.profiler->publish(*obs.stats);
  }

  // Final sample after the post-run gauges, so the stream's last line is
  // the complete end-of-run state (what the manifest embeds).
  if (telemetry) telemetry->sample(config.duration_s);

  std::vector<SenderRunResult> results;
  results.reserve(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    SenderRunResult result = aggregate;
    const app::FlowMetrics& m = *metrics[i];
    result.sender = senders[i];
    result.tx_packets = m.tx_packets();
    result.rx_packets = m.rx_packets();
    result.pdr = m.pdr();
    result.mean_delay_s = m.mean_delay_s();
    result.max_delay_s = m.max_delay_s();
    result.first_delivery_delay_s = m.first_delivery_delay_s();
    result.goodput_bps =
        m.goodput_bps(SimTime::from_seconds(config.duration_s));
    if (telemetry) result.telemetry_jsonl = telemetry->jsonl();
    results.push_back(std::move(result));
  }
  return results;
}

SenderRunResult run_table1(const TableIConfig& config) {
  return run_with_trace(make_table1_trace(config), config, {config.sender})
      .front();
}

std::vector<SenderRunResult> run_table1_concurrent(
    const TableIConfig& config, const std::vector<NodeId>& senders) {
  return run_with_trace(make_table1_trace(config), config, senders);
}

std::vector<SenderRunResult> run_all_senders(TableIConfig config,
                                             NodeId first, NodeId last,
                                             int jobs) {
  const std::size_t n = static_cast<std::size_t>(last - first) + 1;
  obs::StatsRegistry* const shared_stats = config.obs.stats;
  // The packet log, trace sink and profiler are single-writer: a config
  // that wires them runs serially (results are identical either way).
  return runner::map<SenderRunResult>(
      n, config.obs.has_serial_sink() ? 1 : jobs,
      [&config, shared_stats, first](runner::ReplicationContext& ctx) {
        TableIConfig run = config;
        run.sender = first + static_cast<NodeId>(ctx.index);
        // The scenario seeds every component stream from run.seed; the
        // per-replication registry stands in for the caller's shared one
        // and is merged back in sender order.
        run.obs.stats = shared_stats != nullptr ? ctx.stats : nullptr;
        return run_table1(run);
      },
      shared_stats);
}

}  // namespace cavenet::scenario
