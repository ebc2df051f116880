#include "core/fundamental_diagram.h"

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"
#include "core/nas_lane.h"
#include "runner/ensemble.h"

namespace cavenet::ca {

std::vector<FundamentalDiagramPoint> fundamental_diagram(
    const FundamentalDiagramOptions& options) {
  options.params.validate();
  const std::size_t densities = options.densities.size();
  const auto trials = static_cast<std::size_t>(options.trials);

  // One replication per (density, trial) pair, fanned out with
  // runner::map. The per-trial RNG stream is keyed on (seed, density
  // index, trial) exactly as the serial loop always was, so the sweep is
  // reproducible and independent of worker count and schedule.
  struct TrialMeans {
    double flow = 0.0;
    double velocity = 0.0;
  };
  const std::vector<TrialMeans> means = runner::map<TrialMeans>(
      densities * trials, options.jobs,
      [&options, trials](runner::ReplicationContext& ctx) {
        const std::size_t d = ctx.index / trials;
        const std::size_t trial = ctx.index % trials;
        const double rho = options.densities[d];
        const auto n = static_cast<std::int64_t>(std::llround(
            rho * static_cast<double>(options.params.lane_length)));
        Rng rng(options.seed, (static_cast<std::uint64_t>(d) << 32) |
                                  static_cast<std::uint64_t>(trial));
        NasLane lane(options.params, std::max<std::int64_t>(n, 0),
                     InitialPlacement::kRandom, std::move(rng));
        lane.run(options.warmup);
        analysis::RunningStats flow_over_time;
        analysis::RunningStats velocity_over_time;
        for (std::int64_t it = 0; it < options.iterations; ++it) {
          lane.step();
          flow_over_time.add(lane.flow());
          velocity_over_time.add(lane.average_velocity());
        }
        return TrialMeans{flow_over_time.mean(), velocity_over_time.mean()};
      });

  std::vector<FundamentalDiagramPoint> out;
  out.reserve(densities);
  for (std::size_t d = 0; d < densities; ++d) {
    analysis::RunningStats flow_over_trials;
    analysis::RunningStats velocity_over_trials;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      flow_over_trials.add(means[d * trials + trial].flow);
      velocity_over_trials.add(means[d * trials + trial].velocity);
    }
    FundamentalDiagramPoint point;
    point.density = options.densities[d];
    point.flow = flow_over_trials.mean();
    point.flow_stddev = flow_over_trials.stddev();
    point.mean_velocity = velocity_over_trials.mean();
    out.push_back(point);
  }
  return out;
}

std::vector<double> density_ladder(std::int64_t lane_length, double max_density,
                                   std::size_t points) {
  std::vector<double> out;
  out.reserve(points);
  const double min_density = 1.0 / static_cast<double>(lane_length);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = points > 1
                         ? static_cast<double>(i) / static_cast<double>(points - 1)
                         : 0.0;
    out.push_back(min_density + t * (max_density - min_density));
  }
  return out;
}

double deterministic_flow(double density, std::int32_t v_max) noexcept {
  return std::min(static_cast<double>(v_max) * density, 1.0 - density);
}

}  // namespace cavenet::ca
