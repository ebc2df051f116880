// Ablation 2 (DESIGN.md): parallel vs sequential CA update. The paper's
// footnote 1 mandates parallel update; sequential (leaders-first) update
// lets followers react within the step, inflating flow and erasing the
// jam branch of the fundamental diagram.
//
// --jobs N fans the (density, update-rule) replications across N
// ensemble workers; the table is byte-identical for every N.
#include <cstdio>
#include <iostream>

#include "analysis/stats.h"
#include "core/fundamental_diagram.h"
#include "core/nas_lane.h"
#include "runner/ensemble.h"
#include "util/table_writer.h"

namespace {

using namespace cavenet;
using namespace cavenet::ca;

double mean_flow(bool sequential, double rho, double p) {
  NasParams params;
  params.lane_length = 400;
  params.slowdown_p = p;
  const auto n = static_cast<std::int64_t>(rho * 400.0);
  NasLane lane(params, n, InitialPlacement::kRandom, Rng(12));
  for (int i = 0; i < 300; ++i) {
    sequential ? lane.step_sequential() : lane.step();
  }
  analysis::RunningStats flow;
  for (int i = 0; i < 300; ++i) {
    sequential ? lane.step_sequential() : lane.step();
    flow.add(lane.flow());
  }
  return flow.mean();
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "Ablation: parallel (paper footnote 1) vs sequential NaS "
               "update, L = 400, p = 0\n\n";
  TableWriter table({"rho", "J parallel", "J sequential", "J theory",
                     "seq inflation"});
  const double rhos[] = {0.1, 0.2, 0.3, 0.5, 0.7, 0.9};
  // One replication per (density, update rule); mean_flow seeds its own
  // Rng(12) exactly as the serial loop did, so the table is unchanged.
  const int jobs = cavenet::runner::parse_jobs_flag(argc, argv);
  const auto flows = cavenet::runner::map<double>(
      std::size(rhos) * 2, jobs,
      [&rhos](cavenet::runner::ReplicationContext& ctx) {
        return mean_flow(/*sequential=*/ctx.index % 2 == 1,
                         rhos[ctx.index / 2], 0.0);
      });
  for (std::size_t d = 0; d < std::size(rhos); ++d) {
    const double par = flows[d * 2];
    const double seq = flows[d * 2 + 1];
    table.add_row({rhos[d], par, seq, deterministic_flow(rhos[d], 5),
                   par > 0 ? seq / par : 0.0});
  }
  table.print(std::cout);
  std::cout << "\nExpected: the parallel update tracks the min(5 rho, 1-rho) "
               "theory; the sequential update inflates flow in the jammed "
               "branch (followers close gaps within a step), distorting the "
               "fundamental diagram the mobility model is validated by.\n";
  return 0;
}
