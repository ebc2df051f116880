#include "scenario/experiment.h"

#include <cmath>
#include <numeric>

#include "analysis/stats.h"
#include "runner/ensemble.h"

namespace cavenet::scenario {

Estimate estimate(std::span<const double> samples) {
  Estimate out;
  out.n = samples.size();
  if (samples.empty()) return out;
  out.mean = analysis::mean(samples);
  out.stddev = analysis::stddev(samples);
  if (out.n > 1) {
    out.ci95 = 1.96 * out.stddev / std::sqrt(static_cast<double>(out.n));
  }
  return out;
}

SeedSweepResult run_seed_sweep(TableIConfig config,
                               std::span<const std::uint64_t> seeds,
                               int jobs) {
  obs::StatsRegistry* const shared_stats = config.obs.stats;
  SeedSweepResult result;
  result.runs = runner::map<SenderRunResult>(
      seeds.size(), config.obs.has_serial_sink() ? 1 : jobs,
      [&config, shared_stats, seeds](runner::ReplicationContext& ctx) {
        TableIConfig run = config;
        run.seed = seeds[ctx.index];
        run.obs.stats = shared_stats != nullptr ? ctx.stats : nullptr;
        return run_table1(run);
      },
      shared_stats);

  std::vector<double> pdrs, delays, bytes, first_deliveries;
  for (const SenderRunResult& run : result.runs) {
    pdrs.push_back(run.pdr);
    delays.push_back(run.mean_delay_s);
    bytes.push_back(static_cast<double>(run.control_bytes));
    if (run.first_delivery_delay_s >= 0.0) {
      first_deliveries.push_back(run.first_delivery_delay_s);
    }
  }
  result.pdr = estimate(pdrs);
  result.mean_delay_s = estimate(delays);
  result.control_bytes = estimate(bytes);
  result.first_delivery_delay_s = estimate(first_deliveries);
  return result;
}

double jain_fairness(std::span<const double> throughputs) {
  if (throughputs.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const double x : throughputs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(throughputs.size()) * sum_sq);
}

std::vector<std::uint64_t> default_seeds(std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 1);
  return seeds;
}

}  // namespace cavenet::scenario
