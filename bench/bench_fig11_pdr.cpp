// Reproduces paper Fig. 11: packet delivery ratio per sender id (1..8)
// for AODV, OLSR and DYMO over the Table-I scenario.
//
// Expected shape: reactive protocols (AODV, DYMO) above OLSR for most
// senders; PDR tends to drop as the sender's initial distance from the
// receiver grows.
//
// --jobs N fans the per-sender runs and the seed sweep across N ensemble
// workers; fig11_pdr.csv and fig11_pdr.manifest.json are byte-identical
// for every N. (The final instrumented point is single-writer — packet
// log, trace, profiler — and always runs serially.)
#include <chrono>
#include <cstdio>
#include <iostream>

#include "netsim/packet_log.h"
#include "obs/kernel_profiler.h"
#include "obs/run_manifest.h"
#include "obs/stats_registry.h"
#include "obs/trace_sink.h"
#include "runner/ensemble.h"
#include "scenario/experiment.h"
#include "scenario/run_record.h"
#include "scenario/table1.h"
#include "util/table_writer.h"

namespace {

/// One fully-instrumented point (AODV, sender 5) demonstrating the
/// observability layer: RunManifest + Chrome trace + kernel profile, with
/// the stats registry reconciled against the ns-2 packet log.
int run_instrumented_point(cavenet::scenario::TableIConfig config) {
  using namespace cavenet;
  using namespace cavenet::scenario;

  config.protocol = Protocol::kAodv;
  config.sender = 5;

  netsim::PacketLog log;
  obs::StatsRegistry stats;
  obs::ChromeTraceWriter trace;
  obs::KernelProfiler profiler;
  config.obs.packet_log = &log;
  config.obs.stats = &stats;
  config.obs.trace_sink = &trace;
  config.obs.profiler = &profiler;

  const auto wall_start = std::chrono::steady_clock::now();
  const SenderRunResult result = run_table1(config);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  obs::RunManifest manifest =
      make_run_manifest("fig11_pdr", config, {result}, wall_s);
  // Keep the manifest a determinism artifact: wall timing varies run to
  // run and stays in the profiler table on stdout.
  manifest.strip_volatile();
  manifest.write_file("fig11_pdr.manifest.json");
  trace.write_file("fig11_pdr.trace.json");

  std::printf("manifest: fig11_pdr.manifest.json (build %.*s)\n",
              static_cast<int>(obs::build_version().size()),
              obs::build_version().data());
  std::printf("trace:    fig11_pdr.trace.json (%zu events)\n", trace.size());

  std::cout << "\nStats registry snapshot:\n";
  stats.write_table(std::cout);
  std::cout << "\nKernel profile:\n";
  profiler.write_table(std::cout);

  // The registry must agree exactly with the packet log: both are fed at
  // the same call sites.
  using Ev = netsim::PacketLog::Event;
  using Ly = netsim::PacketLog::Layer;
  const struct {
    const char* label;
    std::uint64_t counter;
    std::size_t log_count;
  } checks[] = {
      {"mac.tx.data == log s/MAC", stats.counter("mac.tx.data").value(),
       log.count(Ev::kSend, Ly::kMac)},
      {"mac.rx.up == log r/MAC", stats.counter("mac.rx.up").value(),
       log.count(Ev::kReceive, Ly::kMac)},
      {"mac.drop.* == log D/MAC",
       stats.counter("mac.drop.ifq_full").value() +
           stats.counter("mac.drop.retry_limit").value(),
       log.count(Ev::kDrop, Ly::kMac)},
      {"rtr.tx.control == log s/RTR", stats.counter("rtr.tx.control").value(),
       log.count(Ev::kSend, Ly::kRouter)},
      {"rtr.fwd.data == log f/RTR", stats.counter("rtr.fwd.data").value(),
       log.count(Ev::kForward, Ly::kRouter)},
      {"agt.rx.delivered == log r/AGT",
       stats.counter("agt.rx.delivered").value(),
       log.count(Ev::kReceive, Ly::kAgent)},
  };
  std::cout << "\nRegistry vs packet-log reconciliation:\n";
  int failures = 0;
  for (const auto& c : checks) {
    const bool ok = c.counter == static_cast<std::uint64_t>(c.log_count);
    if (!ok) ++failures;
    std::printf("  %-30s %8llu vs %8zu  %s\n", c.label,
                static_cast<unsigned long long>(c.counter), c.log_count,
                ok ? "OK" : "MISMATCH");
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::scenario;

  const int jobs = cavenet::runner::parse_jobs_flag(argc, argv);
  std::cout << "Fig. 11: PDR vs sender id, Table-I scenario\n\n";

  TableIConfig config;
  config.seed = 3;

  TableWriter table({"sender", "AODV", "OLSR", "DYMO"});
  TableWriter delays({"sender", "AODV delay [s]", "OLSR delay [s]",
                      "DYMO delay [s]", "AODV 1st-route [s]",
                      "DYMO 1st-route [s]"});
  std::vector<std::vector<SenderRunResult>> all;
  for (const Protocol protocol :
       {Protocol::kAodv, Protocol::kOlsr, Protocol::kDymo}) {
    config.protocol = protocol;
    all.push_back(run_all_senders(config, 1, 8, jobs));
  }
  double sums[3] = {0, 0, 0};
  for (std::size_t s = 0; s < 8; ++s) {
    table.add_row({static_cast<std::int64_t>(s + 1), all[0][s].pdr,
                   all[1][s].pdr, all[2][s].pdr});
    delays.add_row({static_cast<std::int64_t>(s + 1), all[0][s].mean_delay_s,
                    all[1][s].mean_delay_s, all[2][s].mean_delay_s,
                    all[0][s].first_delivery_delay_s,
                    all[2][s].first_delivery_delay_s});
    for (int p = 0; p < 3; ++p) sums[p] += all[static_cast<std::size_t>(p)][s].pdr;
  }
  table.print(std::cout);
  table.write_csv_file("fig11_pdr.csv");

  std::printf("\nmean PDR: AODV %.3f | OLSR %.3f | DYMO %.3f\n", sums[0] / 8,
              sums[1] / 8, sums[2] / 8);

  std::cout << "\nDelay detail (paper Sec. IV-C: AODV needs more time to "
               "find a route than DYMO):\n";
  delays.print(std::cout);

  std::cout << "\nRouting overhead (paper future-work metric):\n";
  TableWriter overhead({"protocol", "ctrl packets (all runs)",
                        "ctrl bytes", "route discoveries"});
  const char* names[3] = {"AODV", "OLSR", "DYMO"};
  for (std::size_t p = 0; p < 3; ++p) {
    std::uint64_t packets = 0, bytes = 0, discoveries = 0;
    for (const auto& r : all[p]) {
      packets += r.control_packets;
      bytes += r.control_bytes;
      discoveries += r.route_discoveries;
    }
    overhead.add_row({std::string(names[p]),
                      static_cast<std::int64_t>(packets),
                      static_cast<std::int64_t>(bytes),
                      static_cast<std::int64_t>(discoveries)});
  }
  overhead.print(std::cout);

  // Seed-sweep confidence intervals (sender 5, 5 independent seeds) — the
  // single-seed tables above are point estimates; this quantifies spread.
  std::cout << "\nSeed sweep (sender 5, seeds 1..5, mean +/- 95% CI):\n";
  TableWriter ci({"protocol", "PDR", "+/-", "ctrl bytes", "+/-"});
  const auto seeds = default_seeds(5);
  for (const Protocol protocol :
       {Protocol::kAodv, Protocol::kOlsr, Protocol::kDymo}) {
    TableIConfig sweep_config;
    sweep_config.protocol = protocol;
    sweep_config.sender = 5;
    const auto sweep = run_seed_sweep(sweep_config, seeds, jobs);
    ci.add_row({std::string(to_string(protocol)), sweep.pdr.mean,
                sweep.pdr.ci95, sweep.control_bytes.mean,
                sweep.control_bytes.ci95});
  }
  ci.print(std::cout);

  std::cout << "\nInstrumented point (AODV, sender 5, full observability):\n";
  return run_instrumented_point(config);
}
