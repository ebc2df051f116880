// Channel strip units: plan validation, the derived strip count and its
// kLinear/too-small one-strip rules, cross-strip delivery, the drift
// margin, attach/detach churn, and the one-strip path's tolerance of
// teleports. Observable behaviour (who receives what) must be identical
// with and without a strip plan.
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

struct ShardFixture {
  explicit ShardFixture(ChannelIndex index = ChannelIndex::kGrid)
      : channel(sim, std::make_unique<TwoRayGroundModel>(), index) {}

  netsim::Simulator sim{1};
  Channel channel;
  std::vector<std::unique_ptr<netsim::StaticMobility>> mobilities;
  std::vector<std::unique_ptr<WifiPhy>> radios;
  std::vector<Channel::Attachment> links;

  WifiPhy& add_radio(Vec2 position) {
    mobilities.push_back(std::make_unique<netsim::StaticMobility>(position));
    radios.push_back(std::make_unique<WifiPhy>(
        sim, static_cast<netsim::NodeId>(radios.size()),
        mobilities.back().get()));
    links.push_back(channel.attach(radios.back().get()));
    return *radios.back();
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

  /// Static radios: a zero speed certificate.
  static ShardPlan plan(double x_min, double x_max) {
    return ShardPlan{x_min, x_max, 0.0};
  }
};

TEST(ChannelShardTest, ConfigureShardsValidatesPlan) {
  ShardFixture f;
  ShardPlan p = ShardFixture::plan(0.0, 100.0);
  p.max_speed_mps = -1.0;
  EXPECT_THROW(f.channel.configure_shards(p), std::invalid_argument);
  p = ShardFixture::plan(100.0, 100.0);  // empty extent
  EXPECT_THROW(f.channel.configure_shards(p), std::invalid_argument);
}

TEST(ChannelShardTest, SingleShardPlanStaysDormant) {
  // 1 000 m holds one 550.6 m interaction-radius-wide strip, not two.
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 1000.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.channel.strips(), 0u);  // until a transmit
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.strips(), 1u);
}

TEST(ChannelShardTest, DerivedStripCountFollowsTheExtent) {
  // The circuit diameters of the benchmark fleets at 10 vehicles/km
  // against the 550.6 m WaveLAN interaction radius: 30 vehicles on 3 km
  // (paper_figs, serve_mixed), 1 000 on 100 km (olsr_1k) and 10 000 on
  // 1 000 km (scale_10k). An absurd extent (a hostile trace file) is
  // clamped rather than sized into billions of strips.
  const std::pair<double, std::uint32_t> cases[] = {
      {954.9, 1}, {31830.0, 57}, {318309.0, 578}, {1e15, 4096}};
  for (const auto& [extent, strips] : cases) {
    ShardFixture f;
    f.channel.configure_shards(ShardFixture::plan(0.0, extent));
    WifiPhy& tx = f.add_radio({0, 0});
    f.add_radio({100, 0});
    EXPECT_EQ(f.count_deliveries(tx), 1);
    EXPECT_EQ(f.channel.strips(), strips) << "extent " << extent << " m";
  }
}

TEST(ChannelShardTest, LinearIndexNeverShards) {
  // kLinear is the brute-force reference the sharded path is compared
  // against; a shard plan on it must be ignored, not applied.
  ShardFixture f(ChannelIndex::kLinear);
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.strips(), 1u);
}

TEST(ChannelShardTest, TooSmallWorldFallsBackToOneStrip) {
  // The extent holds fewer than two interaction-radius-wide strips, so
  // sharding buys nothing and the channel stays one strip.
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 120.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.strips(), 1u);
}

TEST(ChannelShardTest, ShardedDeliveriesMatchUnsharded) {
  const auto deliveries = [](bool sharded) {
    ShardFixture f;
    if (sharded) {
      f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
    }
    WifiPhy* tx = nullptr;
    for (double x = 0.0; x < 2000.0; x += 80.0) {
      WifiPhy& radio = f.add_radio({x, 0});
      if (x == 560.0) tx = &radio;
    }
    const int count = f.count_deliveries(*tx);
    EXPECT_EQ(f.channel.strips(), sharded ? 3u : 1u);
    return count;
  };
  const int unsharded = deliveries(false);
  EXPECT_GT(unsharded, 0);
  EXPECT_EQ(deliveries(true), unsharded);
}

TEST(ChannelShardTest, CrossStripDeliveryReachesTheNeighbour) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  // Three 666.7 m strips. Both radios within range but on opposite sides
  // of the x = 666.7 strip boundary: the query must reach into the
  // neighbouring strip.
  WifiPhy& tx = f.add_radio({626, 0});
  f.add_radio({706, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.strips(), 3u);
}

TEST(ChannelShardTest, DriftMarginReachesAReceiverThatMovedIntoRange) {
  // Four 600 m strips over [0, 2400]. At the rebucket (the first transmit,
  // t = 0) the receiver sits at x = 1205 in strip 2, 565 m from the
  // sender and beyond its 550.6 m radius, whose reach ends at 1190.6 in
  // strip 1. It closes in at its certified 40 m/s; at t = 0.9 s, before
  // the next rebucket, it is 529 m off and in range, yet still bucketed
  // in strip 2. Only the drift margin (40 m/s x 0.9 s) stretches the
  // query into that strip.
  struct Approach final : netsim::MobilityModel {
    Vec2 position(SimTime at) const override {
      return {1205.0 - 40.0 * at.sec(), 0.0};
    }
    Vec2 velocity(SimTime) const override { return {-40.0, 0.0}; }
  };

  ShardFixture f;
  f.channel.configure_shards(ShardPlan{0.0, 2400.0, 40.0});
  WifiPhy& tx = f.add_radio({640, 0});
  Approach approach;
  WifiPhy rx(f.sim, 9, &approach);
  Channel::Attachment link = f.channel.attach(&rx);
  int sensed = 0;  // carrier-sense onsets: the frame reached the radio
  rx.set_cca_callback([&sensed](bool busy) { sensed += busy ? 1 : 0; });

  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(f.channel.strips(), 4u);
  EXPECT_EQ(sensed, 0);

  f.sim.run_until(SimTime::from_seconds(0.9));
  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(sensed, 1);
}

TEST(ChannelShardTest, AttachChurnInvalidatesAndRecovers) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(0.0, 2000.0));
  WifiPhy& tx = f.add_radio({500, 0});
  f.add_radio({600, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  // Churn within the same epoch: two radios appear (one across the
  // x = 666.7 strip boundary), another leaves. The next transmit must
  // rebucket, or the newcomers belong to no strip and the departed radio
  // is still a member.
  f.add_radio({650, 0});
  f.add_radio({720, 0});
  f.links[1].detach();
  EXPECT_EQ(f.count_deliveries(tx), 2);  // exactly the two newcomers
}

TEST(ChannelShardTest, OneStripToleratesTimePureTeleports) {
  // Without a plan the channel is one strip and its rebucket skips the
  // drift check: a radio whose time-pure trajectory jumps 5 km between
  // two transmits more than an epoch apart has no boundary to cross, so
  // the channel must neither throw nor deliver to a stale position — and
  // needs no invalidate_positions() call to get there.
  struct Jumper final : netsim::MobilityModel {
    Vec2 position(SimTime at) const override {
      return at < SimTime::from_seconds(2.0) ? Vec2{100, 0} : Vec2{5000, 0};
    }
    Vec2 velocity(SimTime) const override { return {}; }
  };

  ShardFixture f;
  WifiPhy& home = f.add_radio({0, 0});
  Jumper jumper_mobility;
  WifiPhy jumper(f.sim, 9, &jumper_mobility);
  Channel::Attachment link = f.channel.attach(&jumper);
  WifiPhy& far = f.add_radio({5100, 0});

  std::vector<int> heard;  // 0 = home, 1 = jumper, 2 = far
  home.set_receive_callback([&](Packet, double) { heard.push_back(0); });
  jumper.set_receive_callback([&](Packet, double) { heard.push_back(1); });
  far.set_receive_callback([&](Packet, double) { heard.push_back(2); });

  home.transmit(Packet(64));  // t = 0: the jumper is 100 m away
  f.sim.run();
  EXPECT_EQ(heard, (std::vector<int>{1}));

  heard.clear();
  f.sim.run_until(SimTime::from_seconds(3.0));  // > epoch_s later
  ASSERT_NO_THROW(far.transmit(Packet(64)));  // the jumper is now 100 m off
  f.sim.run();
  EXPECT_EQ(heard, (std::vector<int>{1}));

  heard.clear();
  ASSERT_NO_THROW(home.transmit(Packet(64)));  // nobody left in range
  f.sim.run();
  EXPECT_TRUE(heard.empty());
  EXPECT_EQ(f.channel.strips(), 1u);
}

}  // namespace
}  // namespace cavenet::phy
