#include "scenario/table1.h"

#include "trace/ns2_format.h"
#include "trace/random_waypoint.h"

#include <sstream>

#include <gtest/gtest.h>

namespace cavenet::scenario {
namespace {

TableIConfig quick_config(Protocol protocol) {
  TableIConfig config;
  config.protocol = protocol;
  config.duration_s = 30.0;
  config.traffic_start_s = 5.0;
  config.traffic_stop_s = 25.0;
  config.sender = 2;
  config.seed = 11;
  return config;
}

TEST(Table1Test, RejectsBadSenderReceiver) {
  TableIConfig config;
  config.sender = config.receiver;
  EXPECT_THROW(run_table1(config), std::invalid_argument);
  config = TableIConfig{};
  config.sender = 30;
  EXPECT_THROW(run_table1(config), std::invalid_argument);
}

TEST(Table1Test, TraceHasThirtyNodesOnCircuit) {
  const TableIConfig config;
  const auto trace = make_table1_trace(config);
  EXPECT_EQ(trace.node_count(), 30u);
  // Every initial position lies on the 3000 m circumference circle
  // (radius ~477.5 m) offset by delta = (1, 1).
  const double radius = 3000.0 / (2.0 * 3.14159265358979);
  for (const auto& p : trace.initial_positions) {
    EXPECT_NEAR(distance(p, {1.0, 1.0}), radius, 1e-6);
  }
}

class ProtocolRunTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolRunTest, DeliversTraffic) {
  const auto result = run_table1(quick_config(GetParam()));
  EXPECT_EQ(result.tx_packets, 100u);  // 5 pkt/s x 20 s
  EXPECT_GT(result.rx_packets, 20u) << to_string(GetParam());
  EXPECT_GT(result.pdr, 0.2);
  EXPECT_LE(result.pdr, 1.0);
  EXPECT_GT(result.control_packets, 0u);
  EXPECT_FALSE(result.goodput_bps.empty());
}

TEST_P(ProtocolRunTest, DeterministicForSameSeed) {
  const auto a = run_table1(quick_config(GetParam()));
  const auto b = run_table1(quick_config(GetParam()));
  EXPECT_EQ(a.rx_packets, b.rx_packets);
  EXPECT_EQ(a.control_packets, b.control_packets);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.goodput_bps, b.goodput_bps);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolRunTest,
                         ::testing::Values(Protocol::kAodv, Protocol::kOlsr,
                                           Protocol::kDymo),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Table1Test, GoodputConcentratedInTrafficWindow) {
  const auto result = run_table1(quick_config(Protocol::kAodv));
  double before = 0.0, during = 0.0;
  for (std::size_t s = 0; s < result.goodput_bps.size(); ++s) {
    if (s < 5) before += result.goodput_bps[s];
    else if (s < 25) during += result.goodput_bps[s];
  }
  EXPECT_EQ(before, 0.0);
  EXPECT_GT(during, 0.0);
}

TEST(Table1Test, DifferentSeedsChangeOutcome) {
  auto config = quick_config(Protocol::kAodv);
  const auto a = run_table1(config);
  config.seed = 12;
  const auto b = run_table1(config);
  EXPECT_NE(a.events_dispatched, b.events_dispatched);
}

TEST(Table1Test, RunAllSendersCoversRange) {
  auto config = quick_config(Protocol::kDymo);
  config.duration_s = 15.0;
  config.traffic_start_s = 5.0;
  config.traffic_stop_s = 12.0;
  const auto results = run_all_senders(config, 1, 3);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].sender, i + 1);
  }
}

TEST(Table1Test, StraightLineLayoutDegradesConnectivity) {
  // The paper's motivation for the circular improvement: with the same
  // wrap-around dynamics laid out on a straight line, head/tail vehicles
  // are thousands of metres apart, so delivery suffers for a far sender.
  auto circular = quick_config(Protocol::kAodv);
  circular.sender = 8;
  circular.duration_s = 40.0;
  circular.traffic_stop_s = 35.0;
  auto line = circular;
  line.circular_layout = false;
  const auto on_circle = run_table1(circular);
  const auto on_line = run_table1(line);
  EXPECT_GT(on_circle.pdr, on_line.pdr);
}

TEST(Table1Test, Ns2RoundTripTraceGivesSameResult) {
  const auto config = quick_config(Protocol::kDymo);
  const auto direct = run_table1(config);
  std::stringstream buffer;
  trace::write_ns2(make_table1_trace(config), buffer);
  const auto round_trip =
      run_with_trace(trace::read_ns2(buffer), config, {config.sender}).front();
  // Serializing coordinates at %.9g keeps the replayed motion identical
  // within double precision, so the packet-level outcome matches.
  EXPECT_EQ(direct.rx_packets, round_trip.rx_packets);
  EXPECT_EQ(direct.tx_packets, round_trip.tx_packets);
}

TEST(Table1Test, PacketLogCapturesAllLayers) {
  netsim::PacketLog log;
  auto config = quick_config(Protocol::kAodv);
  config.obs.packet_log = &log;
  const auto result = run_table1(config);
  ASSERT_GT(result.rx_packets, 0u);
  using E = netsim::PacketLog::Event;
  using L = netsim::PacketLog::Layer;
  // Data was delivered at the agent layer and carried by MAC and router.
  EXPECT_GE(log.count(E::kReceive, L::kAgent), result.rx_packets);
  EXPECT_GT(log.count(E::kForward, L::kRouter), 0u);
  EXPECT_GT(log.count(E::kSend, L::kRouter), 0u);  // control traffic
  EXPECT_GT(log.count(E::kSend, L::kMac), 0u);
  // The ns-2 serialization emits one line per entry.
  std::ostringstream out;
  log.write_ns2(out);
  std::size_t lines = 0;
  for (const char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, log.size());
}

TEST(Table1Test, ChannelUtilizationIsPositiveAndSane) {
  const auto result = run_table1(quick_config(Protocol::kOlsr));
  EXPECT_GT(result.channel_utilization, 0.0);
  EXPECT_LT(result.channel_utilization, 2.0);  // 30 nodes, light load
}

TEST(Table1Test, MeanHopCountReflectsPathLength) {
  // Sender 1 starts adjacent to the receiver on the ring; its packets
  // travel few hops. A mid-ring sender needs multi-hop paths.
  auto near = quick_config(Protocol::kAodv);
  near.sender = 1;
  const auto near_result = run_table1(near);
  auto far = quick_config(Protocol::kAodv);
  far.sender = 8;
  const auto far_result = run_table1(far);
  ASSERT_GT(near_result.rx_packets, 0u);
  ASSERT_GT(far_result.rx_packets, 0u);
  EXPECT_GE(near_result.mean_hop_count, 1.0);
  EXPECT_GT(far_result.mean_hop_count, near_result.mean_hop_count);
}

TEST(Table1Test, ConcurrentSendersShareOneSimulation) {
  auto config = quick_config(Protocol::kAodv);
  const auto results = run_table1_concurrent(config, {1, 2, 3});
  ASSERT_EQ(results.size(), 3u);
  // Same run: network-wide aggregates identical across entries.
  EXPECT_EQ(results[0].events_dispatched, results[1].events_dispatched);
  EXPECT_EQ(results[0].control_bytes, results[2].control_bytes);
  // Per-flow metrics are per sender.
  for (const auto& r : results) {
    EXPECT_EQ(r.tx_packets, 100u);
  }
  std::uint64_t delivered = 0;
  for (const auto& r : results) delivered += r.rx_packets;
  EXPECT_GT(delivered, 0u);
}

TEST(Table1Test, ConcurrentRejectsEmptyAndBadSenders) {
  const TableIConfig config;
  EXPECT_THROW(run_table1_concurrent(config, {}), std::invalid_argument);
  EXPECT_THROW(run_table1_concurrent(config, {0}), std::invalid_argument);
  EXPECT_THROW(run_table1_concurrent(config, {1, 99}), std::invalid_argument);
}

TEST(Table1Test, ShadowingPropagationRuns) {
  auto config = quick_config(Protocol::kAodv);
  config.propagation = Propagation::kShadowing;
  const auto result = run_table1(config);
  EXPECT_EQ(result.tx_packets, 100u);
}

TEST(Table1Test, RayleighFadingDegradesDelivery) {
  auto config = quick_config(Protocol::kAodv);
  const auto clean = run_table1(config);
  config.propagation = Propagation::kRayleigh;
  const auto faded = run_table1(config);
  EXPECT_EQ(faded.tx_packets, 100u);
  // Deep fades corrupt frames the deterministic channel would deliver.
  EXPECT_LT(faded.pdr, clean.pdr + 0.01);
  EXPECT_GT(faded.mac_retries, clean.mac_retries);
}

TEST(Table1Test, RunWithTraceAcceptsRandomWaypointMobility) {
  trace::RandomWaypointOptions rw;
  rw.nodes = 12;
  rw.area_x_m = 600.0;
  rw.area_y_m = 600.0;
  rw.duration_s = 30.0;
  rw.seed = 5;
  const auto mobility = trace::generate_random_waypoint(rw);

  TableIConfig config;
  config.protocol = Protocol::kDymo;
  config.duration_s = 30.0;
  config.traffic_start_s = 5.0;
  config.traffic_stop_s = 25.0;
  const auto result = run_with_trace(mobility, config, {3}).front();
  EXPECT_EQ(result.tx_packets, 100u);
  // A 600 m arena with 12 nodes and 250 m range is densely connected.
  EXPECT_GT(result.pdr, 0.8);
}

TEST(Table1Test, RunWithTraceRejectsEmptyTrace) {
  const trace::MobilityTrace empty;
  const TableIConfig config;
  EXPECT_THROW(run_with_trace(empty, config, {1}), std::invalid_argument);
}

TEST(Table1Test, MacRateChangesAirtimeNotDelivery) {
  auto config = quick_config(Protocol::kDymo);
  const auto at_2mbps = run_table1(config);
  config.mac_rate_bps = 11e6;
  const auto at_11mbps = run_table1(config);
  EXPECT_EQ(at_2mbps.tx_packets, at_11mbps.tx_packets);
  EXPECT_LT(at_11mbps.channel_utilization, at_2mbps.channel_utilization);
}

TEST(Table1Test, RtsCtsVariantRuns) {
  auto config = quick_config(Protocol::kAodv);
  config.use_rts_cts = true;
  const auto result = run_table1(config);
  EXPECT_GT(result.rx_packets, 10u);
}

}  // namespace
}  // namespace cavenet::scenario
