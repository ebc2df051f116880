// Ablation 3 (DESIGN.md): RTS/CTS off (Table I) vs on. With 512-byte CBR
// payloads and a ring topology, the paper disables RTS/CTS; this bench
// quantifies what that costs/saves under hidden terminals.
//
// --jobs N fans the (sender, RTS/CTS) replications across N ensemble
// workers; the table is byte-identical for every N.
#include <cstdio>
#include <iostream>

#include "runner/ensemble.h"
#include "scenario/table1.h"
#include "util/table_writer.h"

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::scenario;

  std::cout << "Ablation: RTS/CTS off (Table I) vs on, AODV, senders 2, 4, "
               "6, 8\n\n";

  const netsim::NodeId senders[] = {2u, 4u, 6u, 8u};
  // One replication per (sender, rts_cts); run_table1 derives its streams
  // from config.seed exactly as the serial loop did.
  const int jobs = runner::parse_jobs_flag(argc, argv);
  const auto results = runner::map<SenderRunResult>(
      std::size(senders) * 2, jobs,
      [&senders](runner::ReplicationContext& ctx) {
        TableIConfig config;
        config.protocol = Protocol::kAodv;
        config.seed = 3;
        config.sender = senders[ctx.index / 2];
        config.use_rts_cts = ctx.index % 2 == 1;
        return run_table1(config);
      });

  TableWriter table({"sender", "PDR off", "PDR on", "collisions off",
                     "collisions on", "retries off", "retries on"});
  for (std::size_t i = 0; i < std::size(senders); ++i) {
    const SenderRunResult& off = results[i * 2];
    const SenderRunResult& on = results[i * 2 + 1];
    table.add_row({static_cast<std::int64_t>(senders[i]), off.pdr, on.pdr,
                   static_cast<std::int64_t>(off.mac_collisions),
                   static_cast<std::int64_t>(on.mac_collisions),
                   static_cast<std::int64_t>(off.mac_retries),
                   static_cast<std::int64_t>(on.mac_retries)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: RTS/CTS trades extra control airtime for fewer "
               "data-frame collisions; at Table-I load the paper's choice "
               "(off) is justified when PDR is comparable.\n";
  return 0;
}
