#include "obs/stats_registry.h"

#include <gtest/gtest.h>

#include <sstream>

namespace cavenet::obs {
namespace {

TEST(StatsRegistryTest, UnboundHandlesDiscard) {
  Counter c;
  Gauge g;
  Quantile q;
  EXPECT_FALSE(c.bound());
  EXPECT_FALSE(g.bound());
  EXPECT_FALSE(q.bound());
  c.inc(5);
  g.set(1.5);
  q.observe(3.0);
  // Discarded, and a fresh unbound handle reads zero regardless of what
  // earlier unbound handles wrote.
  EXPECT_EQ(c.value(), Counter().value());
}

TEST(StatsRegistryTest, CounterIncrements) {
  StatsRegistry registry;
  Counter c = registry.counter("mac.tx.data");
  EXPECT_TRUE(c.bound());
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same cell.
  Counter again = registry.counter("mac.tx.data");
  again.inc();
  EXPECT_EQ(c.value(), 43u);
}

TEST(StatsRegistryTest, GaugeSetAndAdd) {
  StatsRegistry registry;
  Gauge g = registry.gauge("chan.utilization");
  g.set(0.25);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(StatsRegistryTest, SnapshotSortedAndQueryable) {
  StatsRegistry registry;
  registry.counter("b.second").inc(2);
  registry.counter("a.first").inc(1);
  registry.gauge("z.gauge").set(9.0);
  const StatsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "b.second");
  EXPECT_EQ(snap.counter("b.second"), 2u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("z.gauge"), 9.0);
}

TEST(StatsRegistryTest, SnapshotJsonRoundTrip) {
  StatsRegistry registry;
  registry.counter("mac.tx.data").inc(123);
  registry.gauge("chan.utilization").set(0.5);
  registry.quantile("delay").observe(4.0);
  const StatsSnapshot snap = registry.snapshot();
  const StatsSnapshot parsed = StatsSnapshot::from_json(snap.to_json());
  EXPECT_EQ(parsed.counter("mac.tx.data"), 123u);
  EXPECT_DOUBLE_EQ(parsed.gauge("chan.utilization"), 0.5);
  ASSERT_EQ(parsed.quantiles.size(), 1u);
  EXPECT_EQ(parsed.quantiles.front().count, 1u);
}

TEST(StatsRegistryTest, EmptySnapshotKeepsEverySection) {
  // Manifests, telemetry lines and the benchmark digests are hashed over
  // these four sections, "histograms" included, so both forms must keep
  // writing all of them even when there is nothing to report.
  const StatsSnapshot empty = StatsRegistry().snapshot();
  const std::string sections =
      R"({"counters":{},"gauges":{},"histograms":{},"quantiles":{}})";
  EXPECT_EQ(empty.to_json(), sections);
  EXPECT_EQ(empty.to_json_delta(empty), sections);
}

TEST(StatsRegistryTest, WriteTableContainsNames) {
  StatsRegistry registry;
  registry.counter("aodv.rreq.sent").inc(7);
  std::ostringstream out;
  registry.write_table(out);
  EXPECT_NE(out.str().find("aodv.rreq.sent"), std::string::npos);
  EXPECT_NE(out.str().find("7"), std::string::npos);
}

TEST(StatsRegistryTest, HandlesStayValidAcrossManyRegistrations) {
  // The registry must not invalidate earlier handles as it grows (node-
  // based storage): bind one counter, then register many more.
  StatsRegistry registry;
  Counter first = registry.counter("first");
  for (int i = 0; i < 1000; ++i) {
    registry.counter("c." + std::to_string(i)).inc();
  }
  first.inc(5);
  EXPECT_EQ(registry.snapshot().counter("first"), 5u);
}

}  // namespace
}  // namespace cavenet::obs
