#include "obs/run_manifest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/stats_registry.h"

namespace cavenet::obs {
namespace {

RunManifest sample() {
  RunManifest m;
  m.name = "fig11_pdr";
  m.seed = 3;
  m.set_param("protocol", "AODV");
  m.set_param("vehicles", std::int64_t{30});
  m.set_param("slowdown_p", 0.7);
  m.set_param("use_rts_cts", false);
  m.set_metric("pdr", 0.85);
  m.set_metric("mean_delay_s", 0.042);
  m.sim_duration_s = 100.0;
  m.wall_duration_s = 1.5;
  m.events_dispatched = 123456;
  m.events_per_wall_second = 82304.0;

  StatsRegistry registry;
  registry.counter("mac.tx.data").inc(42);
  registry.gauge("chan.utilization").set(0.25);
  m.stats = registry.snapshot();
  return m;
}

TEST(RunManifestTest, JsonRoundTrip) {
  const RunManifest m = sample();
  const RunManifest parsed = RunManifest::from_json(m.to_json());

  EXPECT_EQ(parsed.name, "fig11_pdr");
  EXPECT_EQ(parsed.seed, 3u);
  EXPECT_EQ(parsed.git_describe, m.git_describe);
  EXPECT_EQ(parsed.created_at, m.created_at);
  EXPECT_EQ(parsed.param("protocol"), "AODV");
  EXPECT_EQ(parsed.param("vehicles"), "30");
  EXPECT_EQ(parsed.param("use_rts_cts"), "false");
  EXPECT_DOUBLE_EQ(parsed.metric("pdr"), 0.85);
  EXPECT_DOUBLE_EQ(parsed.sim_duration_s, 100.0);
  EXPECT_EQ(parsed.events_dispatched, 123456u);
  EXPECT_EQ(parsed.stats.counter("mac.tx.data"), 42u);
  EXPECT_DOUBLE_EQ(parsed.stats.gauge("chan.utilization"), 0.25);
}

TEST(RunManifestTest, ParamAndMetricFallbacks) {
  const RunManifest m = sample();
  EXPECT_EQ(m.param("absent", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(m.metric("absent", -1.0), -1.0);
}

TEST(RunManifestTest, SetParamOverwrites) {
  RunManifest m;
  m.set_param("key", "first");
  m.set_param("key", "second");
  EXPECT_EQ(m.param("key"), "second");
  ASSERT_EQ(m.params.size(), 1u);
}

TEST(RunManifestTest, FileRoundTrip) {
  const RunManifest m = sample();
  const std::string path = "run_manifest_test.tmp.json";
  ASSERT_TRUE(m.write_file(path));
  const RunManifest read = RunManifest::read_file(path);
  EXPECT_EQ(read.name, m.name);
  EXPECT_EQ(read.stats.counter("mac.tx.data"), 42u);
  std::remove(path.c_str());
}

TEST(RunManifestTest, StripVolatileDropsWallClockGauges) {
  RunManifest m;
  m.name = "strip_probe";
  StatsRegistry registry;
  registry.counter("kernel.mac.dispatches").inc(9);  // deterministic: stays
  registry.gauge("kernel.mac.wall_ms").set(12.5);
  registry.gauge("exec.worker0.wall_ms").set(7.5);  // pool lane gauge
  registry.gauge("campaign.wall_s").set(3.25);
  registry.gauge("points.per_wall_s").set(88.0);
  registry.gauge("chan.utilization").set(0.25);  // sim-time gauge: stays
  registry.gauge("sim.events.dispatched").set(1000.0);
  m.stats = registry.snapshot();
  m.created_at = "2026-01-01T00:00:00Z";
  m.wall_duration_s = 1.5;
  m.events_per_wall_second = 666.0;

  m.strip_volatile();

  EXPECT_TRUE(m.created_at.empty());
  EXPECT_EQ(m.wall_duration_s, 0.0);
  EXPECT_EQ(m.events_per_wall_second, 0.0);
  EXPECT_EQ(m.stats.counter("kernel.mac.dispatches"), 9u);
  EXPECT_DOUBLE_EQ(m.stats.gauge("chan.utilization"), 0.25);
  EXPECT_DOUBLE_EQ(m.stats.gauge("sim.events.dispatched"), 1000.0);
  // Every wall-clock gauge is gone, whatever the prefix. (The top-level
  // events_per_wall_second key remains, zeroed.)
  const std::string json = m.to_json();
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);
  EXPECT_EQ(json.find("campaign.wall_s"), std::string::npos);
  EXPECT_EQ(json.find("points.per_wall_s"), std::string::npos);
}

TEST(RunManifestTest, StripVolatileKeepsEveryParam) {
  // Params are scenario identity, never wall-clock noise: the
  // determinism artifact keeps all of them.
  RunManifest m;
  m.set_param("vehicles", std::int64_t{30});
  m.set_param("protocol", "AODV");

  m.strip_volatile();

  EXPECT_EQ(m.params.size(), 2u);
  EXPECT_EQ(m.param("vehicles", ""), "30");
  EXPECT_EQ(m.param("protocol", ""), "AODV");
}

TEST(RunManifestTest, StripVolatileKeepsQuantiles) {
  RunManifest m;
  m.name = "quantile_probe";
  StatsRegistry registry;
  registry.quantile("agt.delay.e2e").observe(0.042);
  registry.gauge("kernel.agt.wall_ms").set(1.0);
  m.stats = registry.snapshot();

  m.strip_volatile();

  // Quantile histograms are sim-time data: stripping must not touch them,
  // and the stripped manifest round-trips with them intact.
  const RunManifest parsed = RunManifest::from_json(m.to_json());
  const auto* q = parsed.stats.quantile("agt.delay.e2e");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->count, 1u);
  EXPECT_DOUBLE_EQ(q->min, 0.042);
}

TEST(RunManifestTest, FromJsonRejectsGarbage) {
  EXPECT_THROW(RunManifest::from_json("not json"), std::runtime_error);
  EXPECT_THROW(RunManifest::from_json("[1,2,3]"), std::runtime_error);
  EXPECT_THROW(RunManifest::from_json(
                   R"({"stats":{"quantiles":{"d":{"count":1,"cdf":[[1]]}}}})"),
               std::runtime_error);
}

TEST(RunManifestTest, BuildVersionNonEmpty) {
  EXPECT_FALSE(build_version().empty());
}

TEST(RunManifestTest, Iso8601Shape) {
  const std::string now = iso8601_utc_now();
  // "YYYY-MM-DDThh:mm:ssZ"
  ASSERT_EQ(now.size(), 20u);
  EXPECT_EQ(now[4], '-');
  EXPECT_EQ(now[10], 'T');
  EXPECT_EQ(now.back(), 'Z');
}

}  // namespace
}  // namespace cavenet::obs
