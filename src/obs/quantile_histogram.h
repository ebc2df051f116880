// Log-bucketed quantile histogram (HDR-histogram style): the stats
// registry's one distribution kind.
//
// Plain power-of-two buckets would carry up to 2x quantile error —
// useless for the p95/p99 delay figures the robustness studies report.
// QuantileHistogramData subdivides every power-of-two decade into
// 2^kSubBucketBits linear sub-buckets, bounding the relative quantile
// error by 1/2^kSubBucketBits (3.125%) over the whole range while keeping
// observe() a branch-light array increment.
//
// The bucket layout is FIXED at compile time (no per-instance resizing or
// rescaling), so merging two histograms is a plain bucket-wise add: the
// merged result is independent of observation interleaving, which is what
// lets parallel ensemble runs reproduce a serial run's quantiles exactly.
#ifndef CAVENET_OBS_QUANTILE_HISTOGRAM_H
#define CAVENET_OBS_QUANTILE_HISTOGRAM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cavenet::obs {

struct QuantileHistogramData {
  /// Sub-buckets per power-of-two decade; the relative quantile error
  /// bound is 1 / 2^kSubBucketBits.
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  /// Decade range: values in [2^kMinExp, 2^kMaxExp) land in linear
  /// sub-buckets; below is one underflow bucket (with zero and negatives),
  /// above one overflow bucket. With delays measured in seconds this spans
  /// ~1 ns .. ~272 years.
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 33;
  static constexpr int kDecades = kMaxExp - kMinExp;
  static constexpr int kBucketCount = kDecades * kSubBuckets + 2;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, static_cast<std::size_t>(kBucketCount)> buckets{};

  /// Bucket index of `v`. Values <= 0 (and NaN) go to the underflow
  /// bucket 0; values >= 2^kMaxExp to the overflow bucket.
  static int bucket_index(double v) noexcept;
  /// Inclusive lower bound of bucket `index` (0 for the underflow bucket).
  static double bucket_lower_bound(int index) noexcept;
  /// Exclusive upper bound of bucket `index`.
  static double bucket_upper_bound(int index) noexcept;

  void observe(double v) noexcept;
  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Upper bound of the bucket holding the ceil(q * count)-th smallest
  /// observation, clamped to [min, max]; 0 when empty. The clamp makes
  /// single-valued distributions exact and quantile(1) == max.
  double quantile(double q) const noexcept;
  /// Folds `other` in bucket-wise. Deterministic: any merge order over
  /// the same observation multiset yields identical buckets.
  void merge(const QuantileHistogramData& other) noexcept;
  /// Cumulative distribution as (bucket upper bound clamped to max,
  /// observations <= bound) for every non-empty bucket, in value order.
  std::vector<std::pair<double, std::uint64_t>> cdf() const;
};

/// Registry handle mirroring Counter/Gauge: unbound handles
/// observe into a thread-local discard cell, so instrumented hot paths
/// need no null checks and never allocate.
class Quantile {
 public:
  Quantile() noexcept = default;

  void observe(double v) noexcept { data_->observe(v); }
  const QuantileHistogramData& data() const noexcept { return *data_; }
  bool bound() const noexcept { return data_ != &discard_; }

 private:
  friend class StatsRegistry;
  explicit Quantile(QuantileHistogramData* data) noexcept : data_(data) {}

  static thread_local QuantileHistogramData discard_;
  QuantileHistogramData* data_ = &discard_;
};

}  // namespace cavenet::obs

#endif  // CAVENET_OBS_QUANTILE_HISTOGRAM_H
