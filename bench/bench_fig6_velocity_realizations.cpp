// Reproduces paper Fig. 6: sample realizations of the average velocity
// v(t) for rho = 0.1 and rho = 0.5 over 5000 steps (stochastic NaS).
//
// Expected shape: the low-density lane settles near free-flow velocity
// (v ~ 4-5 cells/step, transient jam waves dying out quickly); the
// high-density lane stays jammed around v ~ 0.5-1.
//
// --jobs N fans the two 5000-step realizations across N ensemble
// workers; the CSV and stdout are byte-identical for every N.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/stats.h"
#include "analysis/transient.h"
#include "core/velocity_series.h"
#include "runner/ensemble.h"
#include "util/table_writer.h"

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::ca;

  std::cout << "Fig. 6: sample realizations of v(t), 5000 steps, p = 0.3, "
               "L = 400\n\n";

  NasParams params;
  params.lane_length = 400;
  params.slowdown_p = 0.3;

  TableWriter csv({"step", "v_rho_0.1", "v_rho_0.5"});
  TableWriter table({"rho", "mean v (tail)", "min v", "max v",
                     "transient tau [steps]", "MSER-5 cut"});
  const double densities[] = {0.1, 0.5};
  const int jobs = runner::parse_jobs_flag(argc, argv);
  const auto series_by_density = runner::map<std::vector<double>>(
      2, jobs, [&params, &densities](runner::ReplicationContext& ctx) {
        // Seed 6 for both densities, exactly as the serial version ran.
        return velocity_series(params, densities[ctx.index], 5000, 6);
      });
  const auto& low = series_by_density[0];
  const auto& high = series_by_density[1];
  for (std::size_t i = 0; i < low.size(); ++i) {
    csv.add_row({static_cast<std::int64_t>(i), low[i], high[i]});
  }
  csv.write_csv_file("fig6_velocity_realizations.csv");

  for (const auto& [rho, series] :
       {std::pair{0.1, &low}, std::pair{0.5, &high}}) {
    const std::span<const double> s(*series);
    const auto tail = s.subspan(s.size() / 2);
    const auto tau = analysis::transient_end(s);
    table.add_row({rho, analysis::mean(tail),
                   *std::min_element(s.begin(), s.end()),
                   *std::max_element(s.begin(), s.end()),
                   tau ? static_cast<std::int64_t>(*tau) : std::int64_t{-1},
                   static_cast<std::int64_t>(analysis::mser_truncation(s))});
  }
  table.print(std::cout);
  std::cout << "\n(full series in fig6_velocity_realizations.csv; tau = -1 "
               "means the window never satisfied the stationarity test — "
               "the paper's LRD caveat)\n";

  // Coarse ASCII sketch of both realizations (every 50th step).
  std::cout << "\nv(t) sketch (x = rho 0.1, o = rho 0.5; rows = v in "
               "cells/step)\n";
  for (int level = 5; level >= 0; --level) {
    std::printf("%d |", level);
    for (std::size_t i = 0; i < low.size(); i += 50) {
      const bool lo = static_cast<int>(low[i] + 0.5) == level;
      const bool hi = static_cast<int>(high[i] + 0.5) == level;
      std::putchar(lo && hi ? '*' : lo ? 'x' : hi ? 'o' : ' ');
    }
    std::putchar('\n');
  }
  return 0;
}
