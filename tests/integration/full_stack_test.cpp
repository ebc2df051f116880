// Full-stack integration: CA mobility under a moving VANET with each
// routing protocol; checks the paper's qualitative findings hold on a
// shortened Table-I scenario.
#include <gtest/gtest.h>

#include "netsim/packet_log.h"
#include "obs/kernel_profiler.h"
#include "obs/stats_registry.h"
#include "obs/trace_sink.h"
#include "scenario/run_record.h"
#include "scenario/table1.h"

namespace cavenet::scenario {
namespace {

TableIConfig base_config() {
  TableIConfig config;
  config.duration_s = 40.0;
  config.traffic_start_s = 8.0;
  config.traffic_stop_s = 35.0;
  config.sender = 3;
  config.seed = 5;
  return config;
}

TEST(FullStackTest, ReactiveProtocolsBeatProactiveOnPdr) {
  auto config = base_config();
  config.protocol = Protocol::kAodv;
  const auto aodv = run_table1(config);
  config.protocol = Protocol::kOlsr;
  const auto olsr = run_table1(config);
  config.protocol = Protocol::kDymo;
  const auto dymo = run_table1(config);

  // Paper Section IV-C: AODV and DYMO outperform OLSR.
  EXPECT_GT(aodv.pdr, olsr.pdr);
  EXPECT_GT(dymo.pdr, olsr.pdr);
}

TEST(FullStackTest, OlsrHasHighestControlOverhead) {
  auto config = base_config();
  config.protocol = Protocol::kAodv;
  const auto aodv = run_table1(config);
  config.protocol = Protocol::kOlsr;
  const auto olsr = run_table1(config);
  config.protocol = Protocol::kDymo;
  const auto dymo = run_table1(config);

  EXPECT_GT(olsr.control_bytes, aodv.control_bytes);
  EXPECT_GT(olsr.control_bytes, dymo.control_bytes);
}

TEST(FullStackTest, DymoAcquiresRoutesNoSlowerThanAodv) {
  // Paper: "the route searching time of DYMO is almost the same with OLSR
  // ... the delay of AODV is higher than DYMO". DYMO floods directly while
  // AODV walks an expanding ring, so DYMO's first delivery is not later.
  auto config = base_config();
  config.sender = 6;  // multi-hop: route acquisition is visible
  config.protocol = Protocol::kAodv;
  const auto aodv = run_table1(config);
  config.protocol = Protocol::kDymo;
  const auto dymo = run_table1(config);
  ASSERT_GE(aodv.first_delivery_delay_s, 0.0);
  ASSERT_GE(dymo.first_delivery_delay_s, 0.0);
  EXPECT_LE(dymo.first_delivery_delay_s, aodv.first_delivery_delay_s + 0.05);
}

TEST(FullStackTest, EveryProtocolSurvivesAllSenders) {
  // Jam-regime mobility (the Table-I default) partitions the ring; the
  // proactive protocol needs several TC rounds before any route exists,
  // so give the run the paper's full traffic window shape (scaled down).
  auto config = base_config();
  for (const Protocol protocol :
       {Protocol::kAodv, Protocol::kOlsr, Protocol::kDymo}) {
    config.protocol = protocol;
    const auto results = run_all_senders(config, 1, 8);
    ASSERT_EQ(results.size(), 8u);
    int with_delivery = 0;
    for (const auto& r : results) {
      EXPECT_EQ(r.tx_packets, 135u);  // 5 pkt/s x 27 s
      if (r.rx_packets > 0) ++with_delivery;
    }
    // Most senders reach node 0 despite the jam-induced partitions.
    EXPECT_GE(with_delivery, 4) << to_string(protocol);
  }
}

TEST(FullStackTest, MacRetriesOccurUnderMobility) {
  auto config = base_config();
  config.protocol = Protocol::kAodv;
  config.sender = 7;
  const auto result = run_table1(config);
  // A moving multi-hop path cannot be loss-free at the MAC layer.
  EXPECT_GT(result.mac_retries, 0u);
}

TEST(FullStackTest, StatsRegistryReconcilesWithPacketLog) {
  // Registry counters and PacketLog records are fed at the same call
  // sites, so the two independent observation paths must agree exactly.
  auto config = base_config();
  config.protocol = Protocol::kAodv;
  netsim::PacketLog log;
  obs::StatsRegistry stats;
  config.obs.packet_log = &log;
  config.obs.stats = &stats;
  const auto result = run_table1(config);
  ASSERT_GT(result.rx_packets, 0u);
  ASSERT_EQ(log.dropped(), 0u);  // under the default cap

  using Ev = netsim::PacketLog::Event;
  using Ly = netsim::PacketLog::Layer;
  EXPECT_EQ(stats.counter("mac.tx.data").value(),
            log.count(Ev::kSend, Ly::kMac));
  EXPECT_EQ(stats.counter("mac.rx.up").value(),
            log.count(Ev::kReceive, Ly::kMac));
  EXPECT_EQ(stats.counter("mac.drop.ifq_full").value() +
                stats.counter("mac.drop.retry_limit").value(),
            log.count(Ev::kDrop, Ly::kMac));
  EXPECT_EQ(stats.counter("rtr.tx.control").value(),
            log.count(Ev::kSend, Ly::kRouter));
  EXPECT_EQ(stats.counter("rtr.fwd.data").value(),
            log.count(Ev::kForward, Ly::kRouter));
  EXPECT_EQ(stats.counter("agt.rx.delivered").value(),
            log.count(Ev::kReceive, Ly::kAgent));

  // The app layer agrees with the flow metrics...
  EXPECT_EQ(stats.counter("agt.tx.cbr").value(), result.tx_packets);
  EXPECT_EQ(stats.counter("agt.rx.sink").value(), result.rx_packets);
  // ...and per-message-type counters partition the control total.
  EXPECT_EQ(stats.counter("aodv.hello.sent").value() +
                stats.counter("aodv.rreq.sent").value() +
                stats.counter("aodv.rrep.sent").value() +
                stats.counter("aodv.rerr.sent").value(),
            stats.counter("rtr.tx.control").value());
  // The run-level aggregates published post-run match the result struct.
  EXPECT_EQ(stats.counter("log.entries").value(), log.size());
  EXPECT_DOUBLE_EQ(stats.gauge("sim.events.dispatched").value(),
                   static_cast<double>(result.events_dispatched));
}

/// bench_fig11_pdr's instrumented wiring: packet log, stats, trace and
/// profiler on one DYMO run.
struct InstrumentedRun {
  netsim::PacketLog log;
  obs::StatsRegistry stats;
  obs::ChromeTraceWriter trace;
  obs::KernelProfiler profiler;
  TableIConfig config = base_config();
  SenderRunResult result;

  InstrumentedRun() {
    config.protocol = Protocol::kDymo;
    config.obs.packet_log = &log;
    config.obs.stats = &stats;
    config.obs.trace_sink = &trace;
    config.obs.profiler = &profiler;
    result = run_table1(config);
  }
  InstrumentedRun(const InstrumentedRun&) = delete;
  InstrumentedRun& operator=(const InstrumentedRun&) = delete;
};

TEST(FullStackTest, ObservabilityRunProducesManifestAndTrace) {
  InstrumentedRun run;
  const SenderRunResult& result = run.result;
  const obs::KernelProfiler& profiler = run.profiler;

  // Profiler saw every dispatched event, attributed to real components.
  EXPECT_EQ(profiler.total_dispatches(), result.events_dispatched);
  EXPECT_GT(profiler.components().count("mac"), 0u);
  EXPECT_GT(profiler.components().count("phy"), 0u);
  EXPECT_GT(profiler.components().count("dymo"), 0u);
  EXPECT_GT(profiler.components().count("app.cbr"), 0u);

  // Every trace event mirrors one packet-log record, so the trace is as
  // deterministic as the log: a second run writes the same bytes.
  EXPECT_EQ(run.trace.size(), run.log.size());
  const InstrumentedRun rerun;
  EXPECT_EQ(rerun.trace.to_json(), run.trace.to_json());

  // The manifest embeds config, results and the stats snapshot.
  const obs::RunManifest manifest =
      make_run_manifest("full_stack", run.config, {result}, 0.5);
  EXPECT_EQ(manifest.param("protocol"), "DYMO");
  EXPECT_DOUBLE_EQ(manifest.metric("pdr"), result.pdr);
  EXPECT_EQ(manifest.stats.counter("mac.tx.data"),
            run.stats.counter("mac.tx.data").value());
  // And round-trips through JSON.
  const auto parsed = obs::RunManifest::from_json(manifest.to_json());
  EXPECT_EQ(parsed.stats.counter("mac.tx.data"),
            run.stats.counter("mac.tx.data").value());
}

}  // namespace
}  // namespace cavenet::scenario
