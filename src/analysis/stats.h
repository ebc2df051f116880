// Streaming and batch descriptive statistics.
#ifndef CAVENET_ANALYSIS_STATS_H
#define CAVENET_ANALYSIS_STATS_H

#include <cstddef>
#include <limits>
#include <span>

namespace cavenet::analysis {

/// Welford single-pass accumulator for mean/variance/min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample (n-1) variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Arithmetic mean of a sample (0 for empty).
double mean(std::span<const double> xs) noexcept;
/// Sample variance (n-1 denominator; 0 for fewer than two samples).
double variance(std::span<const double> xs) noexcept;
double stddev(std::span<const double> xs) noexcept;

}  // namespace cavenet::analysis

#endif  // CAVENET_ANALYSIS_STATS_H
