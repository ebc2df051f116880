// Channel lifecycle (RAII Attachment handles) and spatial-index behaviour:
// the kGrid and kLinear candidate-finding modes must be observationally
// identical, and detaching must stop delivery without disturbing the
// remaining radios' slots.
#include "phy/channel.h"

#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats_registry.h"
#include "phy/wifi_phy.h"

namespace cavenet::phy {
namespace {

using netsim::Packet;

struct Fixture {
  explicit Fixture(ChannelIndex index = ChannelIndex::kGrid)
      : channel(sim, std::make_unique<TwoRayGroundModel>(), index) {}

  netsim::Simulator sim{1};
  Channel channel;
  std::vector<std::unique_ptr<netsim::StaticMobility>> mobilities;
  std::vector<std::unique_ptr<WifiPhy>> radios;
  std::vector<Channel::Attachment> links;  // after radios: detaches first

  WifiPhy& add_radio(Vec2 position) {
    mobilities.push_back(std::make_unique<netsim::StaticMobility>(position));
    radios.push_back(std::make_unique<WifiPhy>(
        sim, static_cast<netsim::NodeId>(radios.size()),
        mobilities.back().get()));
    links.push_back(channel.attach(radios.back().get()));
    return *radios.back();
  }

  int deliveries(WifiPhy& rx) {
    count_ = 0;
    rx.set_receive_callback([this](Packet, double) { ++count_; });
    return count_;
  }

  int count_ = 0;
};

TEST(ChannelAttachmentTest, AttachIncrementsRadioCount) {
  Fixture f;
  EXPECT_EQ(f.channel.radio_count(), 0u);
  f.add_radio({0, 0});
  f.add_radio({100, 0});
  EXPECT_EQ(f.channel.radio_count(), 2u);
}

TEST(ChannelAttachmentTest, DoubleAttachThrows) {
  Fixture f;
  f.add_radio({0, 0});
  EXPECT_THROW(f.channel.attach(f.radios.back().get()), std::logic_error);
}

TEST(ChannelAttachmentTest, DetachStopsDelivery) {
  Fixture f;
  WifiPhy& tx = f.add_radio({0, 0});
  WifiPhy& rx = f.add_radio({100, 0});
  f.deliveries(rx);
  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(f.count_, 1);

  f.links[1].detach();
  EXPECT_FALSE(f.links[1].attached());
  EXPECT_EQ(f.channel.radio_count(), 1u);
  f.count_ = 0;
  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(f.count_, 0);
  // Idempotent.
  f.links[1].detach();
  EXPECT_EQ(f.channel.radio_count(), 1u);
}

TEST(ChannelAttachmentTest, ScopeExitDetaches) {
  Fixture f;
  WifiPhy& tx = f.add_radio({0, 0});
  netsim::StaticMobility mob({100, 0});
  WifiPhy ephemeral(f.sim, 9, &mob);
  {
    Channel::Attachment link = f.channel.attach(&ephemeral);
    EXPECT_TRUE(link.attached());
    EXPECT_EQ(f.channel.radio_count(), 2u);
  }
  EXPECT_EQ(f.channel.radio_count(), 1u);
  // A transmission after scope exit must not touch the dead registration.
  tx.transmit(Packet(64));
  f.sim.run();
}

TEST(ChannelAttachmentTest, MoveTransfersOwnership) {
  Fixture f;
  f.add_radio({0, 0});
  netsim::StaticMobility mob({100, 0});
  WifiPhy radio(f.sim, 9, &mob);
  Channel::Attachment a = f.channel.attach(&radio);
  Channel::Attachment b = std::move(a);
  EXPECT_FALSE(a.attached());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.attached());
  EXPECT_EQ(f.channel.radio_count(), 2u);
  b.detach();
  EXPECT_EQ(f.channel.radio_count(), 1u);
}

TEST(ChannelAttachmentTest, ReattachAfterDetach) {
  Fixture f;
  WifiPhy& tx = f.add_radio({0, 0});
  WifiPhy& rx = f.add_radio({100, 0});
  f.deliveries(rx);
  f.links[1].detach();
  f.links[1] = f.channel.attach(f.radios[1].get());
  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(f.count_, 1);
}

TEST(ChannelAttachmentTest, DetachedRadioCannotTransmit) {
  Fixture f;
  WifiPhy& tx = f.add_radio({0, 0});
  f.links[0].detach();
  EXPECT_THROW(tx.transmit(Packet(64)), std::logic_error);
}

TEST(ChannelAttachmentTest, RadiusFollowsTheMostSensitiveAttachedRadio) {
  // The interaction radius is solved against the lowest carrier-sense
  // threshold among the attached radios. A radio 700 m out lies beyond
  // the default 550 m radius but inside the ~1 090 m one of a radio that
  // senses at 1e-12 W; once that radio detaches, the radius shrinks back.
  Fixture f;
  obs::StatsRegistry stats;
  f.channel.bind_stats(stats);
  WifiPhy& tx = f.add_radio({0, 0});
  f.add_radio({700, 0});
  netsim::StaticMobility far_mob({-2000, 0});
  PhyParams sensitive;
  sensitive.profile.cs_threshold_w = 1e-12;
  WifiPhy listener(f.sim, 9, &far_mob, sensitive);
  Channel::Attachment link = f.channel.attach(&listener);

  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(stats.counter("chan.evaluated").value(), 1u);  // the 700 m one
  EXPECT_EQ(stats.counter("chan.culled").value(), 1u);     // the listener

  link.detach();
  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(stats.counter("chan.evaluated").value(), 1u);
  EXPECT_EQ(stats.counter("chan.culled").value(), 2u);  // now the 700 m one
}

TEST(ChannelIndexTest, GridAndLinearCountersAgree) {
  // chan.evaluated / chan.culled are defined by the exact distance cull,
  // not by how candidates were found — both modes must publish identical
  // numbers for the same topology and traffic.
  std::optional<std::uint64_t> expected_evaluated;
  std::optional<std::uint64_t> expected_culled;
  for (const ChannelIndex index : {ChannelIndex::kGrid, ChannelIndex::kLinear}) {
    Fixture f(index);
    obs::StatsRegistry stats;
    f.channel.bind_stats(stats);
    // A 1500 m line at 100 m spacing: the 550 m interaction radius covers
    // 5 neighbours a side, so roughly 2/3 of the pairs are culled.
    for (int i = 0; i < 16; ++i) {
      f.add_radio({static_cast<double>(i) * 100.0, 0.0});
    }
    f.radios[0]->transmit(Packet(64));
    f.sim.run();
    f.radios[8]->transmit(Packet(64));
    f.sim.run();

    const std::uint64_t tx = stats.counter("chan.tx").value();
    const std::uint64_t evaluated = stats.counter("chan.evaluated").value();
    const std::uint64_t culled = stats.counter("chan.culled").value();
    EXPECT_EQ(tx, 2u);
    // Every (transmission, other radio) pair is either evaluated or culled.
    EXPECT_EQ(evaluated + culled, 2u * 15u);
    EXPECT_GT(culled, 0u);
    if (!expected_evaluated) {
      expected_evaluated = evaluated;
      expected_culled = culled;
    } else {
      EXPECT_EQ(evaluated, *expected_evaluated);
      EXPECT_EQ(culled, *expected_culled);
    }
  }
}

TEST(ChannelIndexTest, GridDeliversSameFramesAsLinear) {
  for (const ChannelIndex index : {ChannelIndex::kGrid, ChannelIndex::kLinear}) {
    Fixture f(index);
    WifiPhy& tx = f.add_radio({0, 0});
    std::vector<int> delivered;
    for (int i = 1; i <= 8; ++i) {
      WifiPhy& rx = f.add_radio({static_cast<double>(i) * 80.0, 0.0});
      rx.set_receive_callback(
          [&delivered, i](Packet, double) { delivered.push_back(i); });
    }
    tx.transmit(Packet(64));
    f.sim.run();
    // Two-ray rx threshold is 250 m: radios at 80/160/240 m decode.
    EXPECT_EQ(delivered, (std::vector<int>{1, 2, 3}));
  }
}

TEST(ChannelIndexTest, InvalidatePositionsPicksUpTeleport) {
  // StaticMobility can't move, so stand in a mutable model and teleport a
  // receiver out of range at an unchanged timestamp: without invalidation
  // the snapshot would still deliver to the old position.
  struct Teleport final : netsim::MobilityModel {
    explicit Teleport(Vec2 p) : pos(p) {}
    Vec2 position(SimTime) const override { return pos; }
    Vec2 velocity(SimTime) const override { return {}; }
    Vec2 pos;
  };

  Fixture f;
  WifiPhy& tx = f.add_radio({0, 0});
  Teleport mob({100, 0});
  WifiPhy rx(f.sim, 9, &mob);
  Channel::Attachment link = f.channel.attach(&rx);
  int count = 0;
  rx.set_receive_callback([&](Packet, double) { ++count; });

  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(count, 1);

  // Same timestamp (sim idle at its last event time), move out of range.
  mob.pos = {5000, 0};
  f.channel.invalidate_positions();
  tx.transmit(Packet(64));
  f.sim.run();
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace cavenet::phy
