#include "obs/kernel_profiler.h"

#include <gtest/gtest.h>

#include <sstream>

#include "netsim/simulator.h"
#include "obs/stats_registry.h"

namespace cavenet::obs {
namespace {

TEST(KernelProfilerTest, AttributesDispatches) {
  KernelProfiler profiler;
  profiler.record("mac", 100);
  profiler.record("mac", 50);
  profiler.record("phy", 10);
  profiler.record("", 1);  // unlabeled bucket

  EXPECT_EQ(profiler.total_dispatches(), 4u);
  EXPECT_EQ(profiler.total_wall_ns(), 161u);
  ASSERT_EQ(profiler.components().count("mac"), 1u);
  EXPECT_EQ(profiler.components().at("mac").dispatches, 2u);
  EXPECT_EQ(profiler.components().at("mac").wall_ns, 150u);
  EXPECT_EQ(profiler.components().count("(unlabeled)"), 1u);
}

TEST(KernelProfilerTest, PublishesIntoRegistry) {
  KernelProfiler profiler;
  profiler.record("aodv", 2'000'000);  // 2 ms
  StatsRegistry registry;
  profiler.publish(registry);
  const StatsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("kernel.aodv.dispatches"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauge("kernel.aodv.wall_ms"), 2.0);
}

TEST(KernelProfilerTest, WriteTableListsComponents) {
  KernelProfiler profiler;
  profiler.record("mac", 300);
  profiler.record("phy", 100);
  std::ostringstream out;
  profiler.write_table(out);
  const std::string text = out.str();
  // Sorted by wall time: mac before phy.
  EXPECT_LT(text.find("mac"), text.find("phy"));
}

TEST(KernelProfilerTest, SimulatorAttributesLabeledEvents) {
  netsim::Simulator sim(1);
  KernelProfiler profiler;
  sim.set_profiler(&profiler);
  int fired = 0;
  sim.schedule(SimTime::seconds(1), "mac", [&] { ++fired; });
  sim.schedule(SimTime::seconds(2), "mac", [&] { ++fired; });
  sim.schedule(SimTime::seconds(3), [&] { ++fired; });  // unlabeled
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(profiler.total_dispatches(), 3u);
  EXPECT_EQ(profiler.components().at("mac").dispatches, 2u);
  EXPECT_EQ(profiler.components().at("(unlabeled)").dispatches, 1u);
}

}  // namespace
}  // namespace cavenet::obs
