#include "analysis/stats.h"

#include <algorithm>
#include <cmath>

namespace cavenet::analysis {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (const double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

}  // namespace cavenet::analysis
