// Channel sharding units: plan validation, the kLinear/too-small
// one-strip rules, shard diagnostics, the opt-in shard.* counters,
// cross-strip delivery, and the one-strip path's tolerance of teleports.
// Observable behaviour (who receives what) must be identical with and
// without a shard plan.
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats_registry.h"
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

  static ShardPlan plan(std::uint32_t shards, double x_min,
                                 double x_max) {
    ShardPlan p;
    p.shards = shards;
    p.x_min = x_min;
    p.x_max = x_max;
    p.epoch_s = 1.0;
    p.max_speed_mps = 0.0;  // static radios
    return p;
  }
};

TEST(ChannelShardTest, ConfigureShardsValidatesPlan) {
  ShardFixture f;
  ShardPlan p = ShardFixture::plan(0, 0.0, 100.0);
  EXPECT_THROW(f.channel.configure_shards(p), std::invalid_argument);
  p = ShardFixture::plan(2, 0.0, 100.0);
  p.epoch_s = 0.0;
  EXPECT_THROW(f.channel.configure_shards(p), std::invalid_argument);
  p = ShardFixture::plan(2, 0.0, 100.0);
  p.max_speed_mps = -1.0;
  EXPECT_THROW(f.channel.configure_shards(p), std::invalid_argument);
  p = ShardFixture::plan(2, 100.0, 100.0);  // empty extent
  EXPECT_THROW(f.channel.configure_shards(p), std::invalid_argument);
}

TEST(ChannelShardTest, SingleShardPlanStaysDormant) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(1, 0.0, 1000.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 0u);  // until a transmit
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
}

TEST(ChannelShardTest, LinearIndexNeverShards) {
  // kLinear is the brute-force reference the sharded path is compared
  // against; a shard plan on it must be ignored, not applied.
  ShardFixture f(ChannelIndex::kLinear);
  f.channel.configure_shards(ShardFixture::plan(4, 0.0, 2000.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
}

TEST(ChannelShardTest, TooSmallWorldFallsBackToOneStrip) {
  // The extent holds fewer than two interaction-radius-wide strips, so
  // sharding buys nothing and the channel stays one strip.
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(4, 0.0, 120.0));
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
}

TEST(ChannelShardTest, ShardedDeliveriesMatchUnsharded) {
  const auto deliveries = [](bool sharded) {
    ShardFixture f;
    if (sharded) {
      f.channel.configure_shards(ShardFixture::plan(4, 0.0, 2000.0));
    }
    WifiPhy* tx = nullptr;
    for (double x = 0.0; x < 2000.0; x += 80.0) {
      WifiPhy& radio = f.add_radio({x, 0});
      if (x == 560.0) tx = &radio;
    }
    return f.count_deliveries(*tx);
  };
  const int unsharded = deliveries(false);
  EXPECT_GT(unsharded, 0);
  EXPECT_EQ(deliveries(true), unsharded);
}

TEST(ChannelShardTest, DiagnosticsRecordEpochsAndRefreshes) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(4, 0.0, 2000.0));
  WifiPhy& tx = f.add_radio({500, 0});
  f.add_radio({600, 0});
  f.add_radio({1900, 0});  // far strip: never refreshed by this transmit
  f.count_deliveries(tx);
  const Channel::ShardDiagnostics diag = f.channel.shard_diagnostics();
  EXPECT_GE(diag.strips, 2u);
  EXPECT_GE(diag.epochs, 1u);
  EXPECT_GT(diag.refreshed, 0u);
}

TEST(ChannelShardTest, CrossStripDeliveryReachesTheNeighbour) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(2, 0.0, 2000.0));
  // Both radios within range but on opposite sides of the x = 1000 strip
  // boundary: the query must reach into the neighbouring strip.
  WifiPhy& tx = f.add_radio({960, 0});
  f.add_radio({1040, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 2u);
}

TEST(ChannelShardTest, BindShardStatsPublishesOptInCounters) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(2, 0.0, 2000.0));
  WifiPhy& tx = f.add_radio({960, 0});
  f.add_radio({1040, 0});
  f.count_deliveries(tx);

  // Binding after the fact re-publishes the activity so far.
  obs::StatsRegistry registry;
  f.channel.bind_shard_stats(registry);
  const obs::StatsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter("shard.lbts_epochs"), 1u);
  EXPECT_GT(snap.counter("shard.refresh.nodes"), 0u);
}

TEST(ChannelShardTest, AttachChurnInvalidatesAndRecovers) {
  ShardFixture f;
  f.channel.configure_shards(ShardFixture::plan(4, 0.0, 2000.0));
  WifiPhy& tx = f.add_radio({500, 0});
  f.add_radio({600, 0});
  EXPECT_EQ(f.count_deliveries(tx), 1);
  // Churn: a new radio appears, another leaves; the next transmit must
  // rebucket (fresh epoch) and keep delivering correctly.
  f.add_radio({650, 0});
  f.links[1].detach();
  const std::uint64_t epochs_before = f.channel.shard_diagnostics().epochs;
  EXPECT_EQ(f.count_deliveries(tx), 1);  // only the new radio remains in range
  EXPECT_GT(f.channel.shard_diagnostics().epochs, epochs_before);
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
  EXPECT_EQ(f.channel.shard_diagnostics().strips, 1u);
}

}  // namespace
}  // namespace cavenet::phy
