// Ablation: MAC data rate (Table I fixes 2 Mbps). Higher rates shrink
// frame airtime, cutting collision probability and serialization delay;
// 1 Mbps doubles airtime and stresses the DCF under the same load.
//
// --jobs N fans the (rate, protocol) replications across N ensemble
// workers; the table is byte-identical for every N.
#include <cstdio>
#include <iostream>

#include "runner/ensemble.h"
#include "scenario/table1.h"
#include "util/table_writer.h"

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::scenario;

  std::cout << "Ablation: MAC rate sweep (Table I: 2 Mbps), AODV and DYMO, "
               "sender 5\n\n";

  const double rates_mbps[] = {1.0, 2.0, 11.0};
  const Protocol protocols[] = {Protocol::kAodv, Protocol::kDymo};
  const int jobs = runner::parse_jobs_flag(argc, argv);
  const auto results = runner::map<SenderRunResult>(
      std::size(rates_mbps) * std::size(protocols), jobs,
      [&rates_mbps, &protocols](runner::ReplicationContext& ctx) {
        TableIConfig config;
        config.protocol = protocols[ctx.index % std::size(protocols)];
        config.sender = 5;
        config.seed = 3;
        config.mac_rate_bps = rates_mbps[ctx.index / std::size(protocols)] * 1e6;
        return run_table1(config);
      });

  TableWriter table({"rate [Mbps]", "protocol", "PDR", "mean delay [s]",
                     "channel util", "collisions"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SenderRunResult& r = results[i];
    table.add_row({rates_mbps[i / std::size(protocols)],
                   std::string(to_string(protocols[i % std::size(protocols)])),
                   r.pdr, r.mean_delay_s, r.channel_utilization,
                   static_cast<std::int64_t>(r.mac_collisions)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: at Table-I load the channel is far from "
               "saturation, so PDR barely moves with rate, but delay and "
               "airtime scale with frame serialization time.\n";
  return 0;
}
