// Multi-seed experiment runner: repeats a Table-I configuration across
// independent seeds and reports means with confidence intervals, so bench
// results can be quoted as estimates rather than single draws.
#ifndef CAVENET_SCENARIO_EXPERIMENT_H
#define CAVENET_SCENARIO_EXPERIMENT_H

#include <cstdint>
#include <span>
#include <vector>

#include "scenario/table1.h"

namespace cavenet::scenario {

/// Mean, sample standard deviation, and a normal-approximation 95%
/// confidence half-width over the replications.
struct Estimate {
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;
  std::size_t n = 0;
};

/// Builds an Estimate from raw samples.
Estimate estimate(std::span<const double> samples);

struct SeedSweepResult {
  Estimate pdr;
  Estimate mean_delay_s;
  Estimate control_bytes;
  Estimate first_delivery_delay_s;  ///< over runs that delivered at all
  std::vector<SenderRunResult> runs;
};

/// Runs `config` once per seed (overriding config.seed) and aggregates.
/// `jobs` fans the replications out with runner::map (<= 0 means one
/// lane per hardware thread); every aggregate and the `runs` vector
/// are bitwise-identical for any jobs value. Configs wiring a shared
/// packet_log / trace_sink / profiler run serially (single-writer sinks).
SeedSweepResult run_seed_sweep(TableIConfig config,
                               std::span<const std::uint64_t> seeds,
                               int jobs = 1);

/// Convenience: seeds 1..n.
std::vector<std::uint64_t> default_seeds(std::size_t n);

/// Jain's fairness index over per-flow throughputs: (sum x)^2 / (n sum x^2),
/// 1.0 when all flows get equal service, 1/n when one flow starves the rest.
double jain_fairness(std::span<const double> throughputs);

}  // namespace cavenet::scenario

#endif  // CAVENET_SCENARIO_EXPERIMENT_H
