// Shard-equivalence property gate: sharding the channel is a pure
// locality optimization, so a run's complete observable output — every
// SenderRunResult field, the full stats-registry JSON and the
// (uid-canonicalized) ns-2 packet log — must be byte-identical at every
// shard count. Randomized Table-I scenarios cover both layouts (circular
// shards; straight-line falls back on its lane-wrap teleports) plus a
// seeded trace that oscillates nodes across strip boundaries every epoch,
// the worst case for stale-membership lookahead.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/packet_log.h"
#include "obs/stats_registry.h"
#include "scenario/table1.h"
#include "trace/mobility_trace.h"
#include "util/rng.h"

namespace cavenet::scenario {
namespace {

/// Packet uids come from a process-global counter; remap them to
/// first-appearance order so logs compare across runs in one process
/// (same canonicalization as PoolEquivalenceTest).
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

void dump_result(std::ostringstream& out, const SenderRunResult& r) {
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

/// Complete observable outcome of one Table-I run at `shards`.
std::string dump_table1(TableIConfig config, int shards) {
  config.parallel.shards = shards;
  netsim::PacketLog log;
  obs::StatsRegistry stats;
  config.obs.packet_log = &log;
  config.obs.stats = &stats;
  const SenderRunResult r = run_table1(config);

  std::ostringstream ns2;
  log.write_ns2(ns2);

  std::ostringstream out;
  dump_result(out, r);
  out << "stats " << stats.snapshot().to_json() << '\n'
      << "log\n"
      << canonicalize_uids(ns2.str());
  return out.str();
}

/// Same, over an explicit mobility trace.
std::string dump_trace_run(const trace::MobilityTrace& mobility,
                           TableIConfig config, int shards) {
  config.parallel.shards = shards;
  netsim::PacketLog log;
  obs::StatsRegistry stats;
  config.obs.packet_log = &log;
  config.obs.stats = &stats;
  const auto results = run_with_trace(mobility, config, {config.sender});

  std::ostringstream ns2;
  log.write_ns2(ns2);

  std::ostringstream out;
  for (const SenderRunResult& r : results) dump_result(out, r);
  out << "stats " << stats.snapshot().to_json() << '\n'
      << "log\n"
      << canonicalize_uids(ns2.str());
  return out.str();
}

TEST(ShardEquivalenceTest, RandomizedScenariosByteIdenticalAtAnyShardCount) {
  // ~50 randomized scenario shapes, each compared across shard counts
  // chosen to hit even/odd partitions and counts above what the world
  // supports (the resolve-time min() clamp).
  Rng meta(20260809);
  const Protocol protocols[] = {Protocol::kAodv, Protocol::kOlsr,
                                Protocol::kDymo, Protocol::kDsdv};
  for (int trial = 0; trial < 50; ++trial) {
    TableIConfig config;
    config.protocol = protocols[meta.uniform_int(std::int64_t{0}, 3)];
    config.vehicles = static_cast<std::int32_t>(
        meta.uniform_int(std::int64_t{8}, std::int64_t{24}));
    config.lane_cells = config.vehicles * 13;
    // Mix in the straight-line layout: its lane-wrap teleports force the
    // unsharded fallback, which must be equally byte-stable.
    config.circular_layout = meta.uniform_int(std::int64_t{0}, 3) != 0;
    config.sender = static_cast<netsim::NodeId>(
        meta.uniform_int(std::int64_t{1}, config.vehicles - 1));
    config.seed = meta.uniform_int(std::uint64_t{1000});
    config.slowdown_p = meta.uniform(0.2, 0.8);
    config.duration_s = 8.0;
    config.traffic_start_s = 1.0;
    config.traffic_stop_s = 7.0;

    // Retired thread-count draw, still consumed so the 50 trial shapes
    // stay the ones this gate has always covered.
    meta.uniform_int(std::int64_t{0}, 2);

    const std::string reference = dump_table1(config, 1);
    for (const int shards : {2, 4, 7}) {
      const std::string sharded = dump_table1(config, shards);
      ASSERT_EQ(sharded, reference)
          << "trial " << trial << " protocol "
          << to_string(config.protocol) << " vehicles " << config.vehicles
          << " layout "
          << (config.circular_layout ? "circular" : "straight")
          << " seed " << config.seed << " diverged at shards=" << shards;
    }
  }
}

TEST(ShardEquivalenceTest, BoundaryChurnTraceByteIdentical) {
  // Nodes parked just beside a strip boundary oscillate across it every
  // second — membership goes stale the instant it is bucketed, so every
  // delivery near the boundary leans on the drift margin. A relay chain
  // keeps the flow crossing strips.
  trace::MobilityTrace mobility;
  Rng rng(7);
  const double speed = 12.0;
  for (int node = 0; node < 12; ++node) {
    const double x = 60.0 + 130.0 * node;  // chain spanning 0..1500 m
    mobility.initial_positions.push_back({x, 0.0});
    // Oscillate each node around its home; nodes near multiples of the
    // strip width cross boundaries at every leg.
    double t = rng.uniform(0.0, 0.5);
    bool out = true;
    while (t < 10.0) {
      const double target = out ? x + 25.0 : x - 25.0;
      mobility.events.push_back(
          {t, static_cast<std::uint32_t>(node),
           trace::TraceEvent::Kind::kSetDest, {target, 0.0}, speed});
      t += rng.uniform(0.8, 1.4);
      out = !out;
    }
  }
  mobility.normalize();

  TableIConfig config;
  config.protocol = Protocol::kAodv;
  config.receiver = 0;
  config.sender = 11;  // far end: packets must relay across every strip
  config.duration_s = 10.0;
  config.traffic_start_s = 1.0;
  config.traffic_stop_s = 9.0;
  config.parallel.epoch_s = 0.5;  // force frequent rebuckets

  const std::string reference = dump_trace_run(mobility, config, 1);
  for (const int shards : {2, 4, 7}) {
    EXPECT_EQ(dump_trace_run(mobility, config, shards), reference)
        << "boundary-churn trace diverged at shards=" << shards;
  }
}

TEST(ShardEquivalenceTest, MidRunTeleportTraceFallsBackUnsharded) {
  // A trace with a t > 0 teleport cannot certify a max speed, so the
  // scenario layer must refuse to shard it (rather than let the drift
  // check blow up mid-run) — and the fallback output is still identical.
  trace::MobilityTrace mobility;
  for (int node = 0; node < 6; ++node) {
    mobility.initial_positions.push_back({100.0 + 200.0 * node, 0.0});
    mobility.events.push_back({0.5 + 0.3 * node,
                               static_cast<std::uint32_t>(node),
                               trace::TraceEvent::Kind::kSetDest,
                               {150.0 + 200.0 * node, 0.0},
                               8.0});
  }
  // The teleport that poisons the certificate.
  mobility.events.push_back({3.0, 2, trace::TraceEvent::Kind::kSetPosition,
                             {900.0, 0.0}, 0.0});
  mobility.normalize();

  TableIConfig config;
  config.protocol = Protocol::kAodv;
  config.sender = 5;
  config.duration_s = 6.0;
  config.traffic_start_s = 1.0;
  config.traffic_stop_s = 5.0;

  const std::string reference = dump_trace_run(mobility, config, 1);
  EXPECT_EQ(dump_trace_run(mobility, config, 4), reference);
}

}  // namespace
}  // namespace cavenet::scenario
