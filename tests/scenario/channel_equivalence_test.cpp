// The channel's candidate search — the per-strip spatial grids over as
// many strips as the trace's extent holds interaction-radius-wide ones —
// must be a pure locality optimization: a kGrid run and a kLinear
// (brute-force, one-strip reference) run must be byte-identical. A run's
// complete observable output is compared: every SenderRunResult field,
// the full stats-registry JSON and the (uid-canonicalized) ns-2 packet
// log. Randomized Table-I scenarios cover dense circuits and, sized so the
// strip count varies, both layouts (circles resolve 1-6 strips; a
// straight line falls back to one strip once a lane wrap teleports a
// vehicle, and otherwise resolves up to 20), plus a seeded
// trace whose nodes oscillate across the strip boundaries, shadowing (no
// range bound, one strip) and a mid-run teleport (no speed certificate,
// one strip).
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

/// The WaveLAN interaction radius the channel sizes its strips by.
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

/// The strip count the grid channel must resolve for `mobility`, derived
/// here independently of the channel: one strip when a mid-run teleport
/// leaves the trace without a speed certificate, otherwise as many
/// radius-wide strips as its x-extent holds.
std::uint32_t expected_strips(const trace::MobilityTrace& mobility) {
  for (const trace::TraceEvent& e : mobility.events) {
    if (e.kind == trace::TraceEvent::Kind::kSetPosition && e.time_s > 0.0) {
      return 1;
    }
  }
  const auto [lo, hi] = x_extent(mobility);
  return static_cast<std::uint32_t>(
      std::max(1.0, std::floor((hi - lo) / wavelan_radius_m())));
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
        << " strips " << expected_strips(mobility);
  }
}

TEST(ShardEquivalenceTest, RandomizedScenariosByteIdenticalAtAnyShardCount) {
  // 50 randomized scenario shapes whose derived strip counts spread over
  // 1-20: protocol, fleet size, lane length (1.5-11.3 km: circles
  // 0.5-3.6 km across), layout, sender, seed and slowdown all drawn from
  // a fixed meta-seed.
  Rng meta(20260809);
  const Protocol protocols[] = {Protocol::kAodv, Protocol::kOlsr,
                                Protocol::kDymo, Protocol::kDsdv};
  int multi_strip = 0;
  int four_plus = 0;
  for (int trial = 0; trial < 50; ++trial) {
    TableIConfig config;
    config.protocol = protocols[meta.uniform_int(std::int64_t{0}, 3)];
    config.vehicles = static_cast<std::int32_t>(
        meta.uniform_int(std::int64_t{8}, std::int64_t{32}));
    config.lane_cells = meta.uniform_int(std::int64_t{200}, std::int64_t{1500});
    // Mix in the straight-line layout: a lane-wrap teleport forces the
    // one-strip fallback, which must be equally byte-stable.
    config.circular_layout = meta.uniform_int(std::int64_t{0}, 3) != 0;
    config.sender = static_cast<netsim::NodeId>(
        meta.uniform_int(std::int64_t{1}, config.vehicles - 1));
    config.seed = meta.uniform_int(std::uint64_t{1000});
    config.slowdown_p = meta.uniform(0.2, 0.8);
    config.duration_s = 8.0;
    config.traffic_start_s = 1.0;
    config.traffic_stop_s = 7.0;

    const trace::MobilityTrace mobility = make_table1_trace(config);
    const std::uint32_t strips = expected_strips(mobility);
    multi_strip += strips >= 2;
    four_plus += strips >= 4;
    ASSERT_EQ(dump_run(mobility, config, phy::ChannelIndex::kGrid),
              dump_run(mobility, config, phy::ChannelIndex::kLinear))
        << "trial " << trial << " protocol " << to_string(config.protocol)
        << " vehicles " << config.vehicles << " cells " << config.lane_cells
        << " layout " << (config.circular_layout ? "circular" : "straight")
        << " seed " << config.seed << " strips " << strips;
  }
  // The gate only tests the strips if the shapes actually resolve several.
  EXPECT_GE(multi_strip, 25);
  EXPECT_GE(four_plus, 10);
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
  // A relay chain whose nodes oscillate across the strip boundaries
  // every second: membership goes stale the instant it is bucketed, so
  // deliveries near a boundary lean on the drift margin. Two end nodes
  // pin the extent to [0, 2400] m — four strips at the WaveLAN radius.
  // Each boundary gets a node pair straddling it, and a parked node one
  // radius plus 3 m away on either side, whose reach ends just short of
  // the boundary: it hears a straddler that was bucketed beyond the
  // boundary and has since drifted back into range. Relays keep the chain
  // decodable end to end.
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

  // The boundaries the channel derives from this trace: every one of them
  // must be straddled by some node's oscillation.
  const auto [lo, hi] = x_extent(mobility);
  const std::uint32_t strips = expected_strips(mobility);
  ASSERT_EQ(strips, 4u);
  for (std::uint32_t b = 1; b < strips; ++b) {
    const double boundary = lo + (hi - lo) * b / strips;
    const bool straddled =
        std::any_of(nodes.begin(), nodes.end(), [&](const auto& node) {
          const auto [x, swing] = node;
          return x - swing < boundary && boundary < x + swing;
        });
    EXPECT_TRUE(straddled) << "no node crosses the boundary at " << boundary;
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
  // A trace with a t > 0 teleport cannot certify a max speed, so the
  // scenario layer must give it no strip plan (rather than let the drift
  // check blow up mid-run) — and the one-strip output is still identical.
  // Certified, its 1.85 km extent would resolve three strips, and the
  // teleport would break the speed bound the drift check verifies.
  trace::MobilityTrace mobility;
  for (int node = 0; node < 10; ++node) {
    mobility.initial_positions.push_back({100.0 + 200.0 * node, 0.0});
    mobility.events.push_back({0.5 + 0.3 * node,
                               static_cast<std::uint32_t>(node),
                               trace::TraceEvent::Kind::kSetDest,
                               {150.0 + 200.0 * node, 0.0},
                               8.0});
  }
  // The teleport that poisons the certificate.
  mobility.events.push_back({3.0, 2, trace::TraceEvent::Kind::kSetPosition,
                             {1500.0, 0.0}, 0.0});
  mobility.normalize();
  const auto [lo, hi] = x_extent(mobility);
  ASSERT_GE(std::floor((hi - lo) / wavelan_radius_m()), 3.0);

  TableIConfig config;
  config.protocol = Protocol::kAodv;
  config.sender = 9;
  config.duration_s = 6.0;
  config.traffic_start_s = 1.0;
  config.traffic_stop_s = 5.0;
  EXPECT_EQ(dump_run(mobility, config, phy::ChannelIndex::kGrid),
            dump_run(mobility, config, phy::ChannelIndex::kLinear));
}

}  // namespace
}  // namespace cavenet::scenario
