// Ablation 4 (DESIGN.md): hello-interval sensitivity. Table I fixes all
// hello intervals at 1 s; this sweep shows the freshness/overhead
// trade-off for the reactive protocols.
//
// --jobs N fans the (hello interval, protocol) replications across N
// ensemble workers; the table is byte-identical for every N.
#include <cstdio>
#include <iostream>

#include "runner/ensemble.h"
#include "scenario/table1.h"
#include "util/table_writer.h"

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::scenario;

  std::cout << "Ablation: hello interval sweep (Table I: 1 s), sender 5\n\n";

  const std::int64_t hellos_s[] = {1, 2, 4};
  const Protocol protocols[] = {Protocol::kAodv, Protocol::kDymo};
  const int jobs = runner::parse_jobs_flag(argc, argv);
  const auto results = runner::map<SenderRunResult>(
      std::size(hellos_s) * std::size(protocols), jobs,
      [&hellos_s, &protocols](runner::ReplicationContext& ctx) {
        TableIConfig config;
        config.protocol = protocols[ctx.index % std::size(protocols)];
        config.sender = 5;
        config.seed = 3;
        const std::int64_t hello_s = hellos_s[ctx.index / std::size(protocols)];
        config.protocol_options.aodv.hello_interval = SimTime::seconds(hello_s);
        config.protocol_options.dymo.hello_interval = SimTime::seconds(hello_s);
        return run_table1(config);
      });

  TableWriter table({"protocol", "hello [s]", "PDR", "mean delay [s]",
                     "ctrl bytes", "route discoveries"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SenderRunResult& r = results[i];
    table.add_row({std::string(to_string(protocols[i % std::size(protocols)])),
                   hellos_s[i / std::size(protocols)], r.pdr, r.mean_delay_s,
                   static_cast<std::int64_t>(r.control_bytes),
                   static_cast<std::int64_t>(r.route_discoveries)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: longer hello intervals cut control bytes but slow "
               "link-failure detection, costing PDR under vehicular "
               "mobility.\n";
  return 0;
}
