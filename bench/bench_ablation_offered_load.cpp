// Paper Section V future work: "traffic quantity". Sweeps the CBR offered
// load (Table I fixes 5 pkt/s) and reports PDR/delay per protocol; also
// reports the topology-change rate of the underlying mobility (the other
// future-work metric), computed from the Table-I trace.
//
// --jobs N fans the (protocol, rate) replications across N ensemble
// workers; the table is byte-identical for every N.
#include <cstdio>
#include <iostream>

#include "runner/ensemble.h"
#include "scenario/table1.h"
#include "trace/connectivity.h"
#include "util/table_writer.h"

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::scenario;

  std::cout << "Future-work metrics: offered-load sweep + topology-change "
               "rate (sender 4)\n\n";

  const Protocol protocols[] = {Protocol::kAodv, Protocol::kOlsr,
                                Protocol::kDymo};
  const double rates[] = {1.0, 5.0, 15.0, 40.0};
  const int jobs = runner::parse_jobs_flag(argc, argv);
  const auto results = runner::map<SenderRunResult>(
      std::size(protocols) * std::size(rates), jobs,
      [&protocols, &rates](runner::ReplicationContext& ctx) {
        TableIConfig config;
        config.protocol = protocols[ctx.index / std::size(rates)];
        config.sender = 4;
        config.seed = 3;
        config.packets_per_second = rates[ctx.index % std::size(rates)];
        return run_table1(config);
      });

  TableWriter table({"protocol", "pkt/s", "offered [kbps]", "PDR",
                     "mean delay [s]", "rx [kbps]"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SenderRunResult& r = results[i];
    const double rate = rates[i % std::size(rates)];
    const double offered_kbps = rate * 512.0 * 8.0 / 1000.0;
    table.add_row({std::string(to_string(protocols[i / std::size(rates)])),
                   rate, offered_kbps, r.pdr, r.mean_delay_s,
                   offered_kbps * r.pdr});
  }
  table.print(std::cout);

  // Topology churn of the mobility pattern itself.
  TableIConfig config;
  const auto mobility = make_table1_trace(config);
  const auto paths = trace::compile_paths(mobility);
  trace::ConnectivitySweepOptions sweep;
  sweep.t_end_s = config.duration_s;
  const double churn = trace::link_change_rate(paths, sweep);
  std::printf(
      "\ntopology-change rate of the Table-I mobility (p=%.1f): %.2f link "
      "up/down events per second across 30 nodes\n",
      config.slowdown_p, churn);
  std::cout << "\nExpected: PDR holds up to moderate load, then the 2 Mbps "
               "DCF channel saturates — reactive protocols degrade "
               "gracefully, OLSR's fixed-rate control traffic competes "
               "with data hardest at high load.\n";
  return 0;
}
