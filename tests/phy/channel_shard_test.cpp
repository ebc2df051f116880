// Channel candidate-search units (docs/SCALING.md "Candidate search from
// epoch anchors"): certificate validation, kLinear ignoring it, delivery
// across grid-cell boundaries, the drift margin, attach/detach churn and
// the uncertified channel's tolerance of teleports (ChannelShardTest);
// and the anchor lifecycle the strip map used to own — when the channel
// re-anchors, how far the margin reaches, the speed-bound check, dead
// slots and slot order (ShardMapTest, named after the strip map the
// anchors replaced). Observable behaviour (who receives what) must be
// identical with and without a certificate.
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "phy/channel.h"
#include "phy/wifi_phy.h"

namespace cavenet::phy {
namespace {

using netsim::Packet;

/// A parked radio that counts how often the channel evaluates its
/// position.
struct CountingMobility final : netsim::MobilityModel {
  explicit CountingMobility(Vec2 at) : at(at) {}
  Vec2 position(SimTime) const override {
    ++evaluations;
    return at;
  }
  Vec2 velocity(SimTime) const override { return {}; }

  Vec2 at;
  mutable int evaluations = 0;
};

/// Constant-velocity motion from `from` at t = 0.
struct LinearMobility final : netsim::MobilityModel {
  LinearMobility(Vec2 from, Vec2 v) : from(from), v(v) {}
  Vec2 position(SimTime at) const override { return from + v * at.sec(); }
  Vec2 velocity(SimTime) const override { return v; }

  Vec2 from;
  Vec2 v;
};

/// At `home` before `at_s`, at `away` from then on: a jump no speed
/// certificate covers.
struct JumpMobility final : netsim::MobilityModel {
  JumpMobility(Vec2 home, Vec2 away, double at_s)
      : home(home), away(away), at_s(at_s) {}
  Vec2 position(SimTime at) const override {
    return at < SimTime::from_seconds(at_s) ? home : away;
  }
  Vec2 velocity(SimTime) const override { return {}; }

  Vec2 home;
  Vec2 away;
  double at_s;
};

struct ShardFixture {
  explicit ShardFixture(ChannelIndex index = ChannelIndex::kGrid)
      : channel(sim, std::make_unique<TwoRayGroundModel>(), index) {}

  netsim::Simulator sim{1};
  Channel channel;
  std::vector<std::unique_ptr<netsim::MobilityModel>> mobilities;
  std::vector<std::unique_ptr<WifiPhy>> radios;
  std::vector<Channel::Attachment> links;

  WifiPhy& add_radio(std::unique_ptr<netsim::MobilityModel> mobility) {
    mobilities.push_back(std::move(mobility));
    radios.push_back(std::make_unique<WifiPhy>(
        sim, static_cast<netsim::NodeId>(radios.size()),
        mobilities.back().get()));
    links.push_back(channel.attach(radios.back().get()));
    return *radios.back();
  }
  WifiPhy& add_radio(Vec2 position) {
    return add_radio(std::make_unique<netsim::StaticMobility>(position));
  }
  CountingMobility& add_counted(Vec2 position) {
    add_radio(std::make_unique<CountingMobility>(position));
    return static_cast<CountingMobility&>(*mobilities.back());
  }

  /// Transmits one frame from `tx` at `at_s` and runs it to completion.
  void transmit_at(WifiPhy& tx, double at_s) {
    sim.run_until(SimTime::from_seconds(at_s));
    tx.transmit(Packet(64));
    sim.run();
  }

  int count_deliveries(WifiPhy& tx) {
    int count = 0;
    for (auto& radio : radios) {
      radio->set_receive_callback([&count](Packet, double) { ++count; });
    }
    tx.transmit(Packet(64));
    sim.run();
    return count;
  }

  /// Ids of the radios that decoded a frame, in callback order.
  std::vector<netsim::NodeId> heard;
  void record_receptions() {
    for (auto& radio : radios) {
      const netsim::NodeId id = radio->id();
      radio->set_receive_callback(
          [this, id](Packet, double) { heard.push_back(id); });
    }
  }
};

TEST(ChannelShardTest, ConfigureShardsValidatesPlan) {
  ShardFixture f;
  EXPECT_THROW(f.channel.set_speed_certificate(-1.0), std::invalid_argument);
  EXPECT_THROW(f.channel.set_speed_certificate(std::nan("")),
               std::invalid_argument);
  EXPECT_NO_THROW(f.channel.set_speed_certificate(0.0));
}

TEST(ChannelShardTest, LinearIndexNeverShards) {
  // kLinear is the brute-force reference the anchored grid is compared
  // against: a certificate on it is ignored, not applied. Certified at
  // 0 m/s, the approaching radio below would be missed (its anchor stays
  // out of reach) and would then fail the speed check.
  ShardFixture f(ChannelIndex::kLinear);
  f.channel.set_speed_certificate(0.0);
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio(std::make_unique<LinearMobility>(Vec2{600, 0}, Vec2{-40, 0}));
  f.record_receptions();
  f.transmit_at(tx, 0.0);  // 600 m off
  EXPECT_TRUE(f.heard.empty());
  ASSERT_NO_THROW(f.transmit_at(tx, 9.0));  // 240 m off
  EXPECT_EQ(f.heard, (std::vector<netsim::NodeId>{1}));
}

TEST(ChannelShardTest, ShardedDeliveriesMatchUnsharded) {
  // Radios every 80 m over 2 km, every third one moving at up to 12 m/s;
  // several senders transmit within and across epochs. A certified
  // channel (anchors padded by the drift) and an uncertified one (exact
  // positions at every timestamp) must deliver the same frames.
  const auto deliveries = [](bool certified) {
    ShardFixture f;
    if (certified) f.channel.set_speed_certificate(12.0);
    int i = 0;
    for (double x = 0.0; x < 2000.0; x += 80.0, ++i) {
      const double v = i % 3 == 0 ? (i % 2 == 0 ? 12.0 : -9.0) : 0.0;
      f.add_radio(std::make_unique<LinearMobility>(Vec2{x, 0}, Vec2{v, 0}));
    }
    f.record_receptions();
    std::vector<std::vector<netsim::NodeId>> out;
    const std::pair<std::size_t, double> sends[] = {
        {7, 0.0}, {12, 0.4}, {3, 0.95}, {20, 1.3}, {7, 2.9}, {15, 3.05}};
    for (const auto& [sender, at_s] : sends) {
      f.heard.clear();
      f.transmit_at(*f.radios[sender], at_s);
      out.push_back(f.heard);
    }
    return out;
  };
  const auto uncertified = deliveries(false);
  std::size_t total = 0;
  for (const auto& heard : uncertified) total += heard.size();
  EXPECT_GT(total, 0u);
  EXPECT_EQ(deliveries(true), uncertified);
}

TEST(ChannelShardTest, CrossStripDeliveryReachesTheNeighbour) {
  // The grid's cells are one 550.6 m interaction radius wide, with edges
  // at multiples of it (and at 0). Each receiver sits across a cell edge
  // from its sender, in x, in y, or across the origin: the query must
  // reach into the neighbouring cell.
  const std::pair<Vec2, Vec2> pairs[] = {{{520, 0}, {580, 0}},
                                         {{0, 520}, {0, 580}},
                                         {{-10, -10}, {10, 10}},
                                         {{1080, 5}, {1120, -5}}};
  for (const auto& [from, to] : pairs) {
    ShardFixture f;
    f.channel.set_speed_certificate(0.0);
    WifiPhy& tx = f.add_radio(from);
    f.add_radio(to);
    EXPECT_EQ(f.count_deliveries(tx), 1)
        << "(" << from.x << ", " << from.y << ") -> (" << to.x << ", "
        << to.y << ")";
  }
}

TEST(ChannelShardTest, DriftMarginReachesAReceiverThatMovedIntoRange) {
  // At the anchor (the first transmit, t = 0) the receiver sits at
  // x = 1205, 565 m from the sender and beyond its 550.6 m radius. It
  // closes in at its certified 40 m/s; at t = 0.9 s, before the next
  // re-anchor, it is 529 m off and in range, yet its anchor is still
  // 565 m off. Only the drift margin (40 m/s x 0.9 s) reaches it.
  ShardFixture f;
  f.channel.set_speed_certificate(40.0);
  WifiPhy& tx = f.add_radio({640, 0});
  WifiPhy& rx = f.add_radio(
      std::make_unique<LinearMobility>(Vec2{1205, 0}, Vec2{-40, 0}));
  int sensed = 0;  // carrier-sense onsets: the frame reached the radio
  rx.set_cca_callback([&sensed](bool busy) { sensed += busy ? 1 : 0; });

  f.transmit_at(tx, 0.0);
  EXPECT_EQ(sensed, 0);

  f.transmit_at(tx, 0.9);
  EXPECT_EQ(sensed, 1);
}

TEST(ChannelShardTest, AttachChurnInvalidatesAndRecovers) {
  ShardFixture f;
  f.channel.set_speed_certificate(0.0);
  WifiPhy& tx = f.add_radio({500, 0});
  f.add_radio({600, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  // Churn within the same epoch: two radios appear (one across the
  // x = 550.6 cell edge), another leaves. The next transmit must
  // re-anchor, or the newcomers have no anchor and the departed radio
  // is still in the grid.
  f.add_radio({650, 0});
  f.add_radio({720, 0});
  f.links[1].detach();
  EXPECT_EQ(f.count_deliveries(tx), 2);  // exactly the two newcomers
}

TEST(ChannelShardTest, OneStripToleratesTimePureTeleports) {
  // Without a certificate the channel re-anchors at every new timestamp
  // and checks no speed bound: a radio whose time-pure trajectory jumps
  // 4.9 km between two transmits more than an epoch apart must neither
  // throw nor be delivered to at a stale position — and needs no
  // invalidate_positions() call to get there.
  ShardFixture f;
  WifiPhy& home = f.add_radio({0, 0});
  f.add_radio(
      std::make_unique<JumpMobility>(Vec2{100, 0}, Vec2{5000, 0}, 2.0));
  WifiPhy& far = f.add_radio({5100, 0});
  f.record_receptions();

  f.transmit_at(home, 0.0);  // the jumper is 100 m away
  EXPECT_EQ(f.heard, (std::vector<netsim::NodeId>{1}));

  f.heard.clear();
  ASSERT_NO_THROW(f.transmit_at(far, 3.0));  // the jumper is now 100 m off
  EXPECT_EQ(f.heard, (std::vector<netsim::NodeId>{1}));

  f.heard.clear();
  ASSERT_NO_THROW(f.transmit_at(home, 3.0));  // nobody left in range
  EXPECT_TRUE(f.heard.empty());
}

TEST(ShardMapTest, UnconfiguredIsInert) {
  // Attaching evaluates nothing: the first anchor waits for the first
  // transmit, which evaluates every radio exactly once.
  ShardFixture f;
  f.channel.set_speed_certificate(0.0);
  CountingMobility& near = f.add_counted({0, 0});
  CountingMobility& far = f.add_counted({5000, 0});
  EXPECT_EQ(near.evaluations, 0);
  EXPECT_EQ(far.evaluations, 0);
  f.transmit_at(*f.radios[0], 0.0);
  EXPECT_EQ(near.evaluations, 1);
  EXPECT_EQ(far.evaluations, 1);
}

TEST(ShardMapTest, RebucketAssignsMembersInAscendingSlotOrder) {
  // Four receivers 100 m from the sender, attached in an order that is
  // not their grid-cell order (cells (0,0), (0,-1), (-1,0), (0,0)). All
  // receive at the same instant, so their callbacks run in delivery
  // order, which must be slot order, on the anchor timestamp and in the
  // middle of the epoch alike.
  ShardFixture f;
  f.channel.set_speed_certificate(1.0);
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  f.add_radio({0, -100});
  f.add_radio({-100, 0});
  f.add_radio({0, 100});
  f.record_receptions();
  const std::vector<netsim::NodeId> slot_order{1, 2, 3, 4};
  f.transmit_at(tx, 0.0);
  EXPECT_EQ(f.heard, slot_order);
  f.heard.clear();
  f.transmit_at(tx, 0.5);
  EXPECT_EQ(f.heard, slot_order);
}

TEST(ShardMapTest, DeadSlotsGetNoStrip) {
  // A detached radio is never evaluated or delivered to again, although
  // it would still be in range.
  ShardFixture f;
  f.channel.set_speed_certificate(0.0);
  WifiPhy& tx = f.add_radio({0, 0});
  CountingMobility& gone = f.add_counted({100, 0});
  f.add_radio({200, 0});
  f.record_receptions();
  f.transmit_at(tx, 0.0);
  EXPECT_EQ(f.heard, (std::vector<netsim::NodeId>{1, 2}));
  const int evaluated = gone.evaluations;
  f.links[1].detach();
  f.heard.clear();
  f.transmit_at(tx, 0.5);
  f.transmit_at(tx, 1.5);
  EXPECT_EQ(f.heard, (std::vector<netsim::NodeId>{2, 2}));
  EXPECT_EQ(gone.evaluations, evaluated);
}

TEST(ShardMapTest, EpochElapsingForcesRebucket) {
  // A radio far beyond the reach is evaluated only when the channel
  // re-anchors: at the first transmit, then once an epoch has elapsed.
  ShardFixture f;
  f.channel.set_speed_certificate(10.0);
  WifiPhy& tx = f.add_radio({0, 0});
  CountingMobility& far = f.add_counted({5000, 0});
  f.transmit_at(tx, 0.0);
  EXPECT_EQ(far.evaluations, 1);
  f.transmit_at(tx, 0.5);
  f.transmit_at(tx, 0.9);
  EXPECT_EQ(far.evaluations, 1);
  f.transmit_at(tx, Channel::kEpochSeconds);
  EXPECT_EQ(far.evaluations, 2);
}

TEST(ShardMapTest, MarginGrowsWithElapsedTimeAndSpeed) {
  // A parked radio 560 m off, 9.4 m beyond the radius: its anchor falls
  // within the reach once vmax x elapsed covers that gap. At 20 m/s that
  // is after 0.47 s, so it is evaluated at t = 2.5 (10 m of margin) but
  // not at t = 2.25 (5 m); at 10 m/s not even at t = 2.5. It is never
  // delivered to: its exact distance stays beyond the radius.
  const auto evaluations_at = [](double max_speed, double at_s) {
    ShardFixture f;
    f.channel.set_speed_certificate(max_speed);
    WifiPhy& tx = f.add_radio({0, 0});
    CountingMobility& edge = f.add_counted({560, 0});
    f.transmit_at(tx, 2.0);  // the anchor
    f.transmit_at(tx, at_s);
    return edge.evaluations - 1;
  };
  EXPECT_EQ(evaluations_at(20.0, 2.25), 0);
  EXPECT_EQ(evaluations_at(20.0, 2.5), 1);
  EXPECT_EQ(evaluations_at(10.0, 2.5), 0);
}

TEST(ShardMapTest, SpeedBoundViolationThrows) {
  // A radio displacing faster than the certified bound between anchors
  // is a broken certificate (e.g. an unexpected teleport) — fail loudly
  // at the next re-anchor rather than silently missing deliveries.
  ShardFixture f;
  f.channel.set_speed_certificate(5.0);
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio(std::make_unique<JumpMobility>(Vec2{10, 0}, Vec2{900, 0}, 0.5));
  f.transmit_at(tx, 0.0);
  EXPECT_THROW(f.transmit_at(tx, 1.0), std::logic_error);
}

TEST(ShardMapTest, BoundedDriftRebucketsCleanly) {
  // 4 m/s against a 5 m/s certificate: every re-anchor passes, and the
  // frames reach the radio until it leaves the radius (at t = 135 s).
  ShardFixture f;
  f.channel.set_speed_certificate(5.0);
  WifiPhy& tx = f.add_radio({0, 0});
  WifiPhy& rx = f.add_radio(
      std::make_unique<LinearMobility>(Vec2{10, 0}, Vec2{4, 0}));
  int sensed = 0;
  rx.set_cca_callback([&sensed](bool busy) { sensed += busy ? 1 : 0; });
  for (const double at_s : {0.0, 1.0, 2.5, 130.0, 140.0}) {
    ASSERT_NO_THROW(f.transmit_at(tx, at_s)) << "t = " << at_s;
  }
  EXPECT_EQ(sensed, 4);
}

TEST(ShardMapTest, InvalidateSkipsDriftVerification) {
  // After an out-of-band position edit there is no trusted anchor: the
  // next transmit re-anchors without checking the certificate, and
  // delivers by the new position.
  ShardFixture f;
  f.channel.set_speed_certificate(5.0);
  WifiPhy& tx = f.add_radio({0, 0});
  CountingMobility& moved = f.add_counted({100, 0});
  f.record_receptions();
  f.transmit_at(tx, 0.0);
  EXPECT_EQ(f.heard.size(), 1u);
  moved.at = {900, 0};  // 800 m in 1 s >> 5 m/s
  f.channel.invalidate_positions();
  f.heard.clear();
  ASSERT_NO_THROW(f.transmit_at(tx, 1.0));
  EXPECT_TRUE(f.heard.empty());
}

}  // namespace
}  // namespace cavenet::phy
