// The channel's candidate search — one grid over the whole fleet's epoch
// anchors, queried with the interaction radius plus the certified drift
// since the anchor — must be a pure locality optimization: a kGrid run and
// a kLinear (brute-force, exact positions at every timestamp) run must be
// byte-identical. A run's complete observable output is compared: every
// SenderRunResult field, the full stats-registry JSON and the
// (uid-canonicalized) ns-2 packet log. Randomized Table-I scenarios cover
// dense circuits and both layouts (circles carry a speed certificate and
// transmit across several epochs; a straight line loses it once a lane
// wrap teleports a vehicle), plus a seeded trace whose nodes oscillate
// across the grid's cell edges, shadowing (no range bound) and mid-run
// teleports (no speed certificate).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/packet_log.h"
#include "obs/stats_registry.h"
#include "phy/propagation.h"
#include "scenario/table1.h"
#include "trace/mobility_trace.h"
#include "util/rng.h"

namespace cavenet::scenario {
namespace {

/// Packet uids come from a process-global counter, so two sequential runs
/// shift every uid by a constant. Remapping uids to first-appearance order
/// makes the comparison run-offset-free while staying strict: any
/// difference in event kind, time, node, layer, type, size, or in which
/// packet appears where, still fails.
std::string canonicalize_uids(const std::string& log) {
  std::istringstream in(log);
  std::ostringstream out;
  std::map<std::string, std::uint64_t> remap;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> tok{std::istream_iterator<std::string>(fields),
                                 std::istream_iterator<std::string>()};
    // ns-2 line: <ev> <time> <node> <layer> --- <uid> <type> <size>
    if (tok.size() >= 6) {
      const auto [it, inserted] = remap.try_emplace(tok[5], remap.size() + 1);
      tok[5] = std::to_string(it->second);
    }
    for (std::size_t i = 0; i < tok.size(); ++i) {
      if (i > 0) out << ' ';
      out << tok[i];
    }
    out << '\n';
  }
  return out.str();
}

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Complete observable outcome of one run over `mobility` with the given
/// candidate index. Doubles are hexfloats, so equality is bitwise.
std::string dump_run(const trace::MobilityTrace& mobility,
                     TableIConfig config, phy::ChannelIndex index) {
  config.channel_index = index;
  netsim::PacketLog log;
  obs::StatsRegistry stats;
  config.obs.packet_log = &log;
  config.obs.stats = &stats;
  const std::vector<SenderRunResult> results =
      run_with_trace(mobility, config, {config.sender});

  std::ostringstream out;
  for (const SenderRunResult& r : results) {
    out << "tx " << r.tx_packets << " rx " << r.rx_packets << " pdr "
        << hex_double(r.pdr) << '\n'
        << "delay " << hex_double(r.mean_delay_s) << ' '
        << hex_double(r.max_delay_s) << ' '
        << hex_double(r.first_delivery_delay_s) << ' '
        << hex_double(r.mean_hop_count) << '\n'
        << "control " << r.control_packets << ' ' << r.control_bytes << ' '
        << r.route_discoveries << '\n'
        << "mac " << r.mac_collisions << ' ' << r.mac_retries << ' '
        << r.mac_tx_failed << '\n'
        << "events " << r.events_dispatched << " util "
        << hex_double(r.channel_utilization) << '\n'
        << "goodput ";
    for (const double g : r.goodput_bps) out << hex_double(g) << ' ';
    out << '\n';
  }
  std::ostringstream ns2;
  log.write_ns2(ns2);
  // The registry dump covers every counter in the run, including the
  // chan.* cull counters — which are defined to be index-independent.
  out << "stats " << stats.snapshot().to_json() << '\n'
      << "log\n"
      << canonicalize_uids(ns2.str());
  return out.str();
}

/// The WaveLAN interaction radius: the channel's grid cell size.
double wavelan_radius_m() {
  const phy::WaveLanProfile profile;
  return *phy::TwoRayGroundModel().max_range_m(profile.tx_power_w,
                                               profile.cs_threshold_w);
}

/// x-extent over every position `mobility` can visit, as
/// {x_min, x_max}.
std::pair<double, double> x_extent(const trace::MobilityTrace& mobility) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const Vec2& p : mobility.initial_positions) {
    lo = std::min(lo, p.x);
    hi = std::max(hi, p.x);
  }
  for (const trace::TraceEvent& e : mobility.events) {
    lo = std::min(lo, e.target.x);
    hi = std::max(hi, e.target.x);
  }
  return {lo, hi};
}

/// Whether the grid channel must run `mobility` with a speed certificate,
/// derived here independently of the scenario layer: no event is a jump
/// (a set position, or a setdest without a positive speed).
bool certified(const trace::MobilityTrace& mobility) {
  return std::none_of(
      mobility.events.begin(), mobility.events.end(),
      [](const trace::TraceEvent& e) {
        return e.kind == trace::TraceEvent::Kind::kSetPosition ||
               !(e.speed_ms > 0.0);
      });
}

/// Seconds from the first to the last MAC transmission in a dump_run()
/// output. The first transmission anchors the channel, so a span beyond
/// one epoch means the run transmitted on drifted anchors and re-anchored.
double transmit_span_s(const std::string& dump) {
  std::istringstream in(dump.substr(dump.find("\nlog\n")));
  double first = std::numeric_limits<double>::infinity();
  double last = -first;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string event, time, node, layer;
    fields >> event >> time >> node >> layer;
    if (event != "s" || layer != "MAC") continue;
    first = std::min(first, std::stod(time));
    last = std::max(last, std::stod(time));
  }
  return last - first;
}

TEST(ChannelEquivalenceTest, RandomizedScenariosAreByteIdentical) {
  // A handful of dense circuits (one vehicle per 13 cells, up to 40
  // vehicles): protocol, fleet size, sender, seed and slowdown drawn from
  // a fixed meta-seed.
  Rng meta(20260806);
  const Protocol protocols[] = {Protocol::kAodv, Protocol::kOlsr,
                                Protocol::kDymo, Protocol::kDsdv};
  for (int trial = 0; trial < 4; ++trial) {
    TableIConfig config;
    config.protocol = protocols[meta.uniform_int(std::int64_t{0}, 3)];
    config.vehicles = static_cast<std::int32_t>(
        meta.uniform_int(std::int64_t{10}, std::int64_t{40}));
    config.lane_cells = config.vehicles * 13;
    config.sender = static_cast<netsim::NodeId>(
        meta.uniform_int(std::int64_t{1}, config.vehicles - 1));
    config.seed = meta.uniform_int(std::uint64_t{1000});
    config.slowdown_p = meta.uniform(0.2, 0.8);
    config.duration_s = 12.0;
    config.traffic_start_s = 2.0;
    config.traffic_stop_s = 10.0;
    const trace::MobilityTrace mobility = make_table1_trace(config);
    EXPECT_EQ(dump_run(mobility, config, phy::ChannelIndex::kGrid),
              dump_run(mobility, config, phy::ChannelIndex::kLinear))
        << "trial " << trial << " protocol " << to_string(config.protocol)
        << " vehicles " << config.vehicles << " seed " << config.seed
        << " certified " << certified(mobility);
  }
}

TEST(ShardEquivalenceTest, RandomizedScenariosByteIdenticalAtAnyShardCount) {
  // 50 randomized scenario shapes: protocol, fleet size, lane length
  // (1.5-11.3 km: circles 0.5-3.6 km across), layout, sender, seed and
  // slowdown all drawn from a fixed meta-seed.
  Rng meta(20260809);
  const Protocol protocols[] = {Protocol::kAodv, Protocol::kOlsr,
                                Protocol::kDymo, Protocol::kDsdv};
  int drifting = 0;
  for (int trial = 0; trial < 50; ++trial) {
    TableIConfig config;
    config.protocol = protocols[meta.uniform_int(std::int64_t{0}, 3)];
    config.vehicles = static_cast<std::int32_t>(
        meta.uniform_int(std::int64_t{8}, std::int64_t{32}));
    config.lane_cells = meta.uniform_int(std::int64_t{200}, std::int64_t{1500});
    // Mix in the straight-line layout: a lane-wrap teleport leaves the
    // trace uncertified, which must be equally byte-stable.
    config.circular_layout = meta.uniform_int(std::int64_t{0}, 3) != 0;
    config.sender = static_cast<netsim::NodeId>(
        meta.uniform_int(std::int64_t{1}, config.vehicles - 1));
    config.seed = meta.uniform_int(std::uint64_t{1000});
    config.slowdown_p = meta.uniform(0.2, 0.8);
    config.duration_s = 8.0;
    config.traffic_start_s = 1.0;
    config.traffic_stop_s = 7.0;

    const trace::MobilityTrace mobility = make_table1_trace(config);
    const std::string grid =
        dump_run(mobility, config, phy::ChannelIndex::kGrid);
    const bool certificate = certified(mobility);
    drifting += certificate && transmit_span_s(grid) > 1.0;
    ASSERT_EQ(grid, dump_run(mobility, config, phy::ChannelIndex::kLinear))
        << "trial " << trial << " protocol " << to_string(config.protocol)
        << " vehicles " << config.vehicles << " cells " << config.lane_cells
        << " layout " << (config.circular_layout ? "circular" : "straight")
        << " seed " << config.seed << " certified " << certificate;
  }
  // The gate only tests the anchors if most shapes transmit on drifted
  // anchors: certified, and still transmitting an epoch after the first
  // anchor (46 of the 50 do).
  EXPECT_GE(drifting, 40);
}

TEST(ChannelEquivalenceTest, StochasticPropagationFallsBackIdentically) {
  // Shadowing can't bound its range, so both modes take the full-scan
  // path — and the RNG draw sequence (one per receiver per transmission)
  // must survive untouched.
  TableIConfig config;
  config.propagation = Propagation::kShadowing;
  config.vehicles = 15;
  config.lane_cells = 200;
  config.duration_s = 8.0;
  config.traffic_start_s = 1.0;
  config.traffic_stop_s = 7.0;
  config.seed = 77;
  const trace::MobilityTrace mobility = make_table1_trace(config);
  EXPECT_EQ(dump_run(mobility, config, phy::ChannelIndex::kGrid),
            dump_run(mobility, config, phy::ChannelIndex::kLinear));
}

TEST(ShardEquivalenceTest, BoundaryChurnTraceByteIdentical) {
  // A relay chain whose nodes oscillate every second: their anchors go
  // stale the instant they are taken, so deliveries lean on the drift
  // margin. Around x = 600, 1200 and 1800 a node pair straddles the spot,
  // with a parked node one radius plus 3 m away on either side, whose
  // reach ends just short of the pair: it hears a straddler whose anchor
  // lay beyond the radius and which has since drifted into range. More
  // pairs straddle the grid's cell edges (multiples of the radius), so
  // candidates also drift across cells. Relays keep the chain decodable
  // end to end.
  const double radius = wavelan_radius_m();
  const double amplitude = 25.0;
  const double speed = 12.0;
  std::vector<std::pair<double, double>> nodes;  // (home, amplitude)
  for (const double x : {25.0, 250.0, 420.0, 830.0, 1000.0, 1420.0, 1590.0,
                         2000.0, 2180.0, 2375.0}) {
    nodes.emplace_back(x, amplitude);
  }
  for (const double b : {600.0, 1200.0, 1800.0}) {
    nodes.insert(nodes.end(), {{b - 5, amplitude},
                               {b + 5, amplitude},
                               {b - radius - 3, 0.0},
                               {b + radius + 3, 0.0}});
  }
  for (int edge = 1; edge <= 4; ++edge) {
    nodes.insert(nodes.end(), {{edge * radius - 5, amplitude},
                               {edge * radius + 5, amplitude}});
  }
  std::sort(nodes.begin(), nodes.end());
  trace::MobilityTrace mobility;
  Rng rng(7);
  for (std::size_t node = 0; node < nodes.size(); ++node) {
    const auto [x, swing] = nodes[node];
    mobility.initial_positions.push_back({x, 0.0});
    if (swing == 0.0) continue;
    double t = rng.uniform(0.0, 0.5);
    bool out = true;
    while (t < 10.0) {
      const double target = out ? x + swing : x - swing;
      mobility.events.push_back(
          {t, static_cast<std::uint32_t>(node),
           trace::TraceEvent::Kind::kSetDest, {target, 0.0}, speed});
      t += rng.uniform(0.8, 1.4);
      out = !out;
    }
  }
  mobility.normalize();

  // The run takes the anchored path, and every cell edge inside the
  // extent is crossed by some node's oscillation.
  ASSERT_TRUE(certified(mobility));
  const auto [lo, hi] = x_extent(mobility);
  for (double edge = (std::floor(lo / radius) + 1) * radius; edge < hi;
       edge += radius) {
    const bool straddled =
        std::any_of(nodes.begin(), nodes.end(), [&](const auto& node) {
          const auto [x, swing] = node;
          return x - swing < edge && edge < x + swing;
        });
    EXPECT_TRUE(straddled) << "no node crosses the cell edge at " << edge;
  }

  TableIConfig config;
  config.protocol = Protocol::kAodv;
  config.receiver = 0;
  config.sender = static_cast<netsim::NodeId>(nodes.size() - 1);  // far end
  config.duration_s = 10.0;
  config.traffic_start_s = 1.0;
  config.traffic_stop_s = 9.0;
  EXPECT_EQ(dump_run(mobility, config, phy::ChannelIndex::kGrid),
            dump_run(mobility, config, phy::ChannelIndex::kLinear));
}

TEST(ShardEquivalenceTest, MidRunTeleportTraceFallsBackUnsharded) {
  // A trace with a t > 0 jump cannot certify a max speed, so the scenario
  // layer must give it no certificate (rather than let the speed check
  // blow up mid-run, or the drift margin miss the node) — and the
  // uncertified output is still identical. The jump is written both ways
  // compile_paths turns an event into one: a set position, and a setdest
  // at zero speed. Certified at 8 m/s, node 2's 950 m jump at t = 3 s
  // would break the bound every re-anchor verifies.
  for (const auto kind : {trace::TraceEvent::Kind::kSetPosition,
                          trace::TraceEvent::Kind::kSetDest}) {
    trace::MobilityTrace mobility;
    for (int node = 0; node < 10; ++node) {
      mobility.initial_positions.push_back({100.0 + 200.0 * node, 0.0});
      mobility.events.push_back({0.5 + 0.3 * node,
                                 static_cast<std::uint32_t>(node),
                                 trace::TraceEvent::Kind::kSetDest,
                                 {150.0 + 200.0 * node, 0.0},
                                 8.0});
    }
    // The jump that poisons the certificate.
    mobility.events.push_back({3.0, 2, kind, {1500.0, 0.0}, 0.0});
    mobility.normalize();
    ASSERT_FALSE(certified(mobility));

    TableIConfig config;
    config.protocol = Protocol::kAodv;
    config.sender = 9;
    config.duration_s = 6.0;
    config.traffic_start_s = 1.0;
    config.traffic_stop_s = 5.0;
    EXPECT_EQ(dump_run(mobility, config, phy::ChannelIndex::kGrid),
              dump_run(mobility, config, phy::ChannelIndex::kLinear))
        << (kind == trace::TraceEvent::Kind::kSetDest ? "zero-speed setdest"
                                                      : "set position");
  }
}

}  // namespace
}  // namespace cavenet::scenario
