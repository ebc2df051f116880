// StatsRegistry: named counters, gauges and quantile histograms for the
// simulator.
//
// Components register once ("mac.tx.data", "aodv.rreq.sent", ...) and get
// back a lightweight handle; the hot-path increment is a single add
// through a pointer. Unbound handles point at a shared discard cell, so
// instrumented code needs no null checks and costs the same one add when
// observability is not wired up.
//
// Names are hierarchical dotted paths. A snapshot is deterministic
// (lexicographically sorted) and serializes to JSON and to an aligned
// text table. Single-threaded by design, like the simulator kernel.
#ifndef CAVENET_OBS_STATS_REGISTRY_H
#define CAVENET_OBS_STATS_REGISTRY_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/quantile_histogram.h"

namespace cavenet::obs {

struct JsonValue;

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() noexcept = default;

  void inc(std::uint64_t n = 1) noexcept { *cell_ += n; }
  std::uint64_t value() const noexcept { return *cell_; }
  /// True when bound to a registry (an unbound counter discards).
  bool bound() const noexcept { return cell_ != &discard_; }

 private:
  friend class StatsRegistry;
  explicit Counter(std::uint64_t* cell) noexcept : cell_(cell) {}

  // thread_local: unbound handles on concurrent ensemble workers must not
  // race on a shared discard cell (each replication runs on one thread).
  static thread_local std::uint64_t discard_;
  std::uint64_t* cell_ = &discard_;
};

/// Last-written value (queue depths, utilizations, run aggregates).
class Gauge {
 public:
  Gauge() noexcept = default;

  void set(double v) noexcept { *cell_ = v; }
  void add(double v) noexcept { *cell_ += v; }
  double value() const noexcept { return *cell_; }
  bool bound() const noexcept { return cell_ != &discard_; }

 private:
  friend class StatsRegistry;
  explicit Gauge(double* cell) noexcept : cell_(cell) {}

  static thread_local double discard_;
  double* cell_ = &discard_;
};

/// Point-in-time copy of a registry, detached from the live cells.
struct StatsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< sorted
  std::vector<std::pair<std::string, double>> gauges;           ///< sorted

  /// Fine-grained quantile histogram (see quantile_histogram.h): the
  /// standard percentiles plus the full CDF over non-empty buckets.
  struct QuantileSummary {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// (bucket upper bound, observations <= bound), in value order.
    std::vector<std::pair<double, std::uint64_t>> cdf;
  };
  std::vector<QuantileSummary> quantiles;  ///< sorted

  std::uint64_t counter(std::string_view name) const noexcept;
  double gauge(std::string_view name) const noexcept;
  /// Quantile summary by name, or nullptr when absent.
  const QuantileSummary* quantile(std::string_view name) const noexcept;

  /// Writes four sections; "histograms" is always empty. Quantile is the
  /// only distribution kind, but run manifests, telemetry streams, the
  /// golden fixtures and the benchmark digests all carry that key, so
  /// dropping it would change every published byte.
  std::string to_json() const;
  /// Same sectioned shape as to_json but holding only the entries that
  /// differ from `baseline` (values stay absolute, not differences). New
  /// entries count as changed; entries that vanished are not reported —
  /// registries only grow, so that never happens between two snapshots
  /// of one run.
  std::string to_json_delta(const StatsSnapshot& baseline) const;
  /// Inverse of to_json (quantile buckets are not restored, summaries
  /// are; the "histograms" section is ignored). Throws std::runtime_error
  /// on malformed input.
  static StatsSnapshot from_json(std::string_view json);
  /// Same, for an already parsed document such as a run manifest's
  /// "stats" member: the one reader of the stats JSON.
  static StatsSnapshot from_json(const JsonValue& doc);

  /// Aligned "name value" table grouped by top-level prefix.
  void write_table(std::ostream& out) const;
};

class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Returns a handle to the named metric, creating it at zero on first
  /// use. Handles stay valid for the registry's lifetime; the same name
  /// always maps to the same cell, so components on different nodes
  /// naturally aggregate by sharing a name.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Quantile quantile(std::string_view name);

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + quantiles_.size();
  }

  StatsSnapshot snapshot() const;
  void write_table(std::ostream& out) const;

  /// Folds `other` into this registry, reproducing what sequential reuse
  /// of ONE shared registry would have recorded: counters and quantile
  /// observations accumulate; gauges present in `other` overwrite (the
  /// simulator only set()s gauges, so the later run wins, exactly as it
  /// would writing into a shared registry). The ensemble runner merges
  /// per-replication registries with this, in replication order, so the
  /// merged result is independent of worker count and scheduling.
  void merge_from(const StatsRegistry& other);

 private:
  // std::map: node-based, so cell addresses are stable across inserts.
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, QuantileHistogramData, std::less<>> quantiles_;
};

}  // namespace cavenet::obs

#endif  // CAVENET_OBS_STATS_REGISTRY_H
