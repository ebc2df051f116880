// Simulator::enable_parallel units (docs/SCALING.md "Threading"):
// ParallelConfig validation, pool provisioning and the exec.* stats
// publication.
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "netsim/parallel.h"
#include "netsim/simulator.h"
#include "obs/stats_registry.h"
#include "util/sim_time.h"

namespace cavenet::netsim {
namespace {

std::uint64_t counter_value(const obs::StatsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "counter " << name << " not published";
  return 0;
}

bool has_gauge(const obs::StatsSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.gauges) {
    if (key == name) return true;
  }
  return false;
}

TEST(ParallelConfigTest, ValidateRejectsOutOfRangeValues) {
  EXPECT_THROW(ParallelConfig{.shards = 0}.validate(), std::invalid_argument);
  EXPECT_THROW((ParallelConfig{.shards = 1, .threads = 1, .epoch_s = 0.0}
                    .validate()),
               std::invalid_argument);
  EXPECT_NO_THROW((ParallelConfig{.shards = 4, .threads = 0, .epoch_s = 0.5}
                       .validate()));
}

TEST(ParallelKernelTest, EnableParallelProvisionsPool) {
  Simulator sim;
  EXPECT_EQ(sim.threads(), 1);
  sim.enable_parallel(3);
  EXPECT_EQ(sim.threads(), 3);
  EXPECT_EQ(sim.executor().workers(), 3);
}

TEST(ParallelKernelTest, EnableParallelRejectsReentryAndLateCalls) {
  Simulator sim;
  sim.enable_parallel(2);
  EXPECT_THROW(sim.enable_parallel(2), std::logic_error);

  Simulator late;
  late.schedule(SimTime::from_seconds(1.0), [] {});
  EXPECT_THROW(late.enable_parallel(2), std::logic_error);
}

TEST(ParallelKernelTest, PublishExecStatsExportsKernelPoolActivity) {
  // Serial kernel: no pool, publish is a no-op.
  Simulator serial;
  obs::StatsRegistry empty;
  serial.publish_exec_stats(empty);
  EXPECT_EQ(empty.snapshot().counters.size(), 0u);

  Simulator sim;
  sim.enable_parallel(2);
  std::atomic<std::size_t> covered{0};
  sim.executor().parallel_for(100, 1, [&](std::size_t) {
    covered.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 100u);

  obs::StatsRegistry registry;
  sim.publish_exec_stats(registry);
  const obs::StatsSnapshot snap = registry.snapshot();
  EXPECT_GE(counter_value(snap, "exec.batches"), 1u);
  EXPECT_GE(counter_value(snap, "exec.tasks"), 100u);
  EXPECT_GE(counter_value(snap, "exec.chunks"), 1u);
  EXPECT_TRUE(has_gauge(snap, "exec.worker0.wall_ms"));
  EXPECT_TRUE(has_gauge(snap, "exec.worker1.wall_ms"));
}

}  // namespace
}  // namespace cavenet::netsim
