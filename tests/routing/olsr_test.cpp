#include "routing/olsr.h"

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "routing/testbed.h"
#include "util/rng.h"

namespace cavenet::routing::olsr {
namespace {

using namespace cavenet::literals;
using test::Testbed;

Testbed::ProtocolFactory olsr_factory() {
  return [](netsim::Simulator& sim, netsim::LinkLayer& link) {
    return std::make_unique<OlsrProtocol>(sim, link);
  };
}

TEST(OlsrHeadersTest, SizesScaleWithContent) {
  HelloHeader hello;
  EXPECT_EQ(hello.size_bytes(), 16u);
  hello.neighbors.push_back({1, LinkCode::kSym});
  hello.neighbors.push_back({2, LinkCode::kMpr});
  EXPECT_EQ(hello.size_bytes(), 32u);
  TcHeader tc;
  EXPECT_EQ(tc.size_bytes(), 16u);
  tc.advertised.push_back(1);
  EXPECT_EQ(tc.size_bytes(), 24u);
}

TEST(OlsrTest, SymmetricLinkHandshake) {
  Testbed bed;
  bed.add_chain(2, 150.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(3_s);
  auto& a = dynamic_cast<OlsrProtocol&>(bed.router(0));
  auto& b = dynamic_cast<OlsrProtocol&>(bed.router(1));
  EXPECT_EQ(a.symmetric_neighbors(), std::vector<netsim::NodeId>{1});
  EXPECT_EQ(b.symmetric_neighbors(), std::vector<netsim::NodeId>{0});
}

TEST(OlsrTest, OneHopRouteFromHellosAlone) {
  Testbed bed;
  bed.add_chain(2, 150.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(3_s);
  const RouteEntry* route = bed.router(0).table().lookup(1, bed.sim.now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, 1u);
  EXPECT_EQ(route->hop_count, 1u);
}

TEST(OlsrTest, TwoHopRouteViaHelloNeighborLists) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(4_s);
  const RouteEntry* route = bed.router(0).table().lookup(2, bed.sim.now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, 1u);
  EXPECT_EQ(route->hop_count, 2u);
}

TEST(OlsrTest, MiddleNodeBecomesMpr) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(5_s);
  auto& a = dynamic_cast<OlsrProtocol&>(bed.router(0));
  // Node 1 is node 0's only path to node 2: it must be selected as MPR.
  EXPECT_TRUE(a.mpr_set().contains(1));
}

TEST(OlsrTest, MultiHopRoutesViaTcFlooding) {
  Testbed bed;
  bed.add_chain(5, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(10_s);  // several TC rounds
  const RouteEntry* route = bed.router(0).table().lookup(4, bed.sim.now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, 1u);
  EXPECT_EQ(route->hop_count, 4u);
}

TEST(OlsrTest, DataDeliveryOverFourHops) {
  Testbed bed;
  bed.add_chain(5, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.schedule(8_s, [&] { bed.send_data(0, 4); });
  bed.sim.run_until(12_s);
  EXPECT_EQ(bed.delivered_to(4), 1u);
}

TEST(OlsrTest, SendBeforeConvergenceIsDropped) {
  Testbed bed;
  bed.add_chain(4, 200.0, olsr_factory());
  bed.start_all();
  // Immediately: no routes yet -> proactive drop, no buffering.
  bed.send_data(0, 3);
  bed.sim.run_until(10_s);
  EXPECT_EQ(bed.delivered_to(3), 0u);
  EXPECT_EQ(bed.router(0).stats().drops_no_route, 1u);
}

TEST(OlsrTest, RoutesExpireWhenNodeDisappears) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(6_s);
  ASSERT_NE(bed.router(0).table().lookup(2, bed.sim.now()), nullptr);
  // Node 2 vanishes.
  bed.mobility(2).move_to({0.0, 9000.0});
  bed.sim.run_until(20_s);
  EXPECT_EQ(bed.router(0).table().lookup(2, bed.sim.now()), nullptr);
}

TEST(OlsrTest, StarTopologySelectsHubAsMpr) {
  Testbed bed;
  // Hub at origin, 4 spokes 200 m out; spokes only reach each other via hub.
  bed.add_node({0, 0}, olsr_factory());
  bed.add_node({200, 0}, olsr_factory());
  bed.add_node({-200, 0}, olsr_factory());
  bed.add_node({0, 200}, olsr_factory());
  bed.add_node({0, -200}, olsr_factory());
  bed.start_all();
  bed.sim.run_until(6_s);
  for (netsim::NodeId spoke = 1; spoke <= 4; ++spoke) {
    auto& router = dynamic_cast<OlsrProtocol&>(bed.router(spoke));
    EXPECT_TRUE(router.mpr_set().contains(0)) << "spoke " << spoke;
    EXPECT_EQ(router.mpr_set().size(), 1u) << "spoke " << spoke;
  }
  // Spoke-to-spoke delivery through the hub (1 s from now).
  bed.sim.schedule(1_s, [&] { bed.send_data(1, 2); });
  bed.sim.run_until(9_s);
  EXPECT_EQ(bed.delivered_to(2), 1u);
}

TEST(OlsrTest, ControlOverheadGrowsWithTime) {
  Testbed bed;
  bed.add_chain(3, 200.0, olsr_factory());
  bed.start_all();
  bed.sim.run_until(5_s);
  const std::uint64_t at5 = bed.router(0).stats().control_packets_sent;
  bed.sim.run_until(10_s);
  const std::uint64_t at10 = bed.router(0).stats().control_packets_sent;
  EXPECT_GT(at5, 3u);
  EXPECT_GT(at10, at5);
}

/// (router, dst, next_hop, hop_count) of every entry, every router.
using TableDump =
    std::vector<std::tuple<netsim::NodeId, netsim::NodeId, netsim::NodeId,
                           std::uint32_t>>;

/// Six routers 200 m apart for 60 s while 40 scripted excursions take a
/// node out of range and back; reads every router's table() each
/// `read_every_ms` and returns what it held at each 500 ms mark.
std::vector<TableDump> tables_at_marks(std::uint64_t seed,
                                       std::int64_t read_every_ms) {
  Testbed bed(seed);
  bed.add_chain(6, 200.0, olsr_factory());
  Rng script(seed);
  for (int move = 0; move < 40; ++move) {
    const auto node =
        static_cast<netsim::NodeId>(script.uniform_int(std::int64_t{0}, 5));
    const double out_s = script.uniform(2.0, 55.0);
    const double back_s = out_s + script.uniform(0.5, 5.0);
    bed.sim.schedule(SimTime::from_seconds(out_s), [&bed, node] {
      bed.mobility(node).move_to({200.0 * node, 9000.0});
    });
    bed.sim.schedule(SimTime::from_seconds(back_s), [&bed, node] {
      bed.mobility(node).move_to({200.0 * node, 0.0});
    });
  }
  bed.start_all();

  std::vector<TableDump> marks;
  for (std::int64_t ms = read_every_ms; ms <= 60000; ms += read_every_ms) {
    bed.sim.run_until(SimTime::milliseconds(ms));
    const bool at_mark = ms % 500 == 0;
    TableDump dump;
    for (netsim::NodeId id = 0; id < 6; ++id) {
      const RoutingTable& table = bed.router(id).table();  // the read
      if (!at_mark) continue;
      for (const auto& [dst, e] : table.entries()) {
        dump.emplace_back(id, dst, e.next_hop, e.hop_count);
      }
    }
    if (at_mark) marks.push_back(std::move(dump));
  }
  return marks;
}

TEST(OlsrTest, TableReadsDoNotChangeRoutes) {
  // The table is built when it is read, over the state of its last
  // change. How often it is read must not show in what it holds: reads
  // every 1 ms and every 500 ms see the same routes at each 500 ms mark,
  // also when an expiry prune falls between a change and the next read.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto every_ms = tables_at_marks(seed, 1);
    const auto every_500ms = tables_at_marks(seed, 500);
    ASSERT_EQ(every_ms.size(), every_500ms.size());
    for (std::size_t mark = 0; mark < every_ms.size(); ++mark) {
      if (every_ms[mark] == every_500ms[mark]) continue;
      ADD_FAILURE() << "seed " << seed << ": tables differ at t = "
                    << 0.5 * (mark + 1) << " s";
      break;
    }
  }
}

}  // namespace
}  // namespace cavenet::routing::olsr
