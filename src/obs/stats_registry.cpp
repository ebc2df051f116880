#include "obs/stats_registry.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/json.h"

namespace cavenet::obs {

thread_local std::uint64_t Counter::discard_ = 0;
thread_local double Gauge::discard_ = 0.0;

Counter StatsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return Counter(&it->second);
  return Counter(&counters_.emplace(std::string(name), 0).first->second);
}

Gauge StatsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return Gauge(&it->second);
  return Gauge(&gauges_.emplace(std::string(name), 0.0).first->second);
}

Quantile StatsRegistry::quantile(std::string_view name) {
  const auto it = quantiles_.find(name);
  if (it != quantiles_.end()) return Quantile(&it->second);
  return Quantile(&quantiles_.emplace(std::string(name), QuantileHistogramData{})
                       .first->second);
}

void StatsRegistry::merge_from(const StatsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counter(name).inc(value);
  }
  for (const auto& [name, value] : other.gauges_) {
    gauge(name).set(value);
  }
  for (const auto& [name, data] : other.quantiles_) {
    const auto it = quantiles_.find(name);
    if (it != quantiles_.end()) {
      it->second.merge(data);
    } else {
      quantiles_.emplace(name, data);
    }
  }
}

StatsSnapshot StatsRegistry::snapshot() const {
  StatsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_) snap.counters.emplace_back(name, value);
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, value] : gauges_) snap.gauges.emplace_back(name, value);
  snap.quantiles.reserve(quantiles_.size());
  for (const auto& [name, data] : quantiles_) {
    StatsSnapshot::QuantileSummary q;
    q.name = name;
    q.count = data.count;
    q.sum = data.sum;
    q.min = data.min;
    q.max = data.max;
    q.p50 = data.quantile(0.50);
    q.p90 = data.quantile(0.90);
    q.p95 = data.quantile(0.95);
    q.p99 = data.quantile(0.99);
    q.cdf = data.cdf();
    snap.quantiles.push_back(std::move(q));
  }
  return snap;
}

std::uint64_t StatsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double StatsSnapshot::gauge(std::string_view name) const noexcept {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const StatsSnapshot::QuantileSummary* StatsSnapshot::quantile(
    std::string_view name) const noexcept {
  for (const auto& q : quantiles) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

namespace {

void write_quantile_summary(JsonWriter& w,
                            const StatsSnapshot::QuantileSummary& q) {
  w.begin_object();
  w.key("count");
  w.value(q.count);
  w.key("sum");
  w.value(q.sum);
  w.key("min");
  w.value(q.min);
  w.key("max");
  w.value(q.max);
  w.key("p50");
  w.value(q.p50);
  w.key("p90");
  w.value(q.p90);
  w.key("p95");
  w.value(q.p95);
  w.key("p99");
  w.value(q.p99);
  w.key("cdf");
  w.begin_array();
  for (const auto& [bound, cumulative] : q.cdf) {
    w.begin_array();
    w.value(bound);
    w.value(cumulative);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

/// Previous value of `name` in a sorted (name, value) vector, advancing
/// `it` — both snapshots are sorted, so diffing is one merge walk.
template <typename Vector>
const typename Vector::value_type* find_sorted(
    const Vector& entries, typename Vector::const_iterator& it,
    const std::string& name) {
  while (it != entries.end() && it->first < name) ++it;
  if (it != entries.end() && it->first == name) return &*it;
  return nullptr;
}

template <typename Vector>
const typename Vector::value_type* find_sorted_named(
    const Vector& entries, typename Vector::const_iterator& it,
    const std::string& name) {
  while (it != entries.end() && it->name < name) ++it;
  if (it != entries.end() && it->name == name) return &*it;
  return nullptr;
}

}  // namespace

std::string StatsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : gauges) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  w.end_object();
  w.key("quantiles");
  w.begin_object();
  for (const auto& q : quantiles) {
    w.key(q.name);
    write_quantile_summary(w, q);
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string StatsSnapshot::to_json_delta(const StatsSnapshot& baseline) const {
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  {
    auto it = baseline.counters.begin();
    for (const auto& [name, value] : counters) {
      const auto* prev = find_sorted(baseline.counters, it, name);
      if (prev != nullptr && prev->second == value) continue;
      w.key(name);
      w.value(value);
    }
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  {
    auto it = baseline.gauges.begin();
    for (const auto& [name, value] : gauges) {
      const auto* prev = find_sorted(baseline.gauges, it, name);
      if (prev != nullptr && prev->second == value) continue;
      w.key(name);
      w.value(value);
    }
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  w.end_object();
  w.key("quantiles");
  w.begin_object();
  {
    auto it = baseline.quantiles.begin();
    for (const auto& q : quantiles) {
      // observe() always bumps count, so equal counts mean unchanged.
      const auto* prev = find_sorted_named(baseline.quantiles, it, q.name);
      if (prev != nullptr && prev->count == q.count) continue;
      w.key(q.name);
      write_quantile_summary(w, q);
    }
  }
  w.end_object();
  w.end_object();
  return w.str();
}

StatsSnapshot StatsSnapshot::from_json(std::string_view json) {
  return from_json(parse_json(json));
}

StatsSnapshot StatsSnapshot::from_json(const JsonValue& doc) {
  if (!doc.is_object()) throw std::runtime_error("stats snapshot: not an object");
  StatsSnapshot snap;
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->object) {
      snap.counters.emplace_back(name,
                                 static_cast<std::uint64_t>(value.number));
    }
  }
  if (const JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [name, value] : gauges->object) {
      snap.gauges.emplace_back(name, value.number);
    }
  }
  if (const JsonValue* quantiles = doc.find("quantiles")) {
    for (const auto& [name, value] : quantiles->object) {
      QuantileSummary q;
      q.name = name;
      if (const JsonValue* v = value.find("count")) {
        q.count = static_cast<std::uint64_t>(v->number);
      }
      if (const JsonValue* v = value.find("sum")) q.sum = v->number;
      if (const JsonValue* v = value.find("min")) q.min = v->number;
      if (const JsonValue* v = value.find("max")) q.max = v->number;
      if (const JsonValue* v = value.find("p50")) q.p50 = v->number;
      if (const JsonValue* v = value.find("p90")) q.p90 = v->number;
      if (const JsonValue* v = value.find("p95")) q.p95 = v->number;
      if (const JsonValue* v = value.find("p99")) q.p99 = v->number;
      if (const JsonValue* v = value.find("cdf")) {
        for (const auto& point : v->array) {
          if (point.array.size() != 2) {
            throw std::runtime_error("stats snapshot: malformed cdf point");
          }
          q.cdf.emplace_back(
              point.array[0].number,
              static_cast<std::uint64_t>(point.array[1].number));
        }
      }
      snap.quantiles.push_back(std::move(q));
    }
  }
  return snap;
}

void StatsSnapshot::write_table(std::ostream& out) const {
  std::size_t width = 0;
  for (const auto& [name, value] : counters) width = std::max(width, name.size());
  for (const auto& [name, value] : gauges) width = std::max(width, name.size());
  for (const auto& q : quantiles) width = std::max(width, q.name.size());

  const auto pad = [&](const std::string& name) {
    out << "  " << name << std::string(width - name.size() + 2, ' ');
  };
  if (!counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : counters) {
      pad(name);
      out << value << "\n";
    }
  }
  if (!gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : gauges) {
      pad(name);
      out << value << "\n";
    }
  }
  if (!quantiles.empty()) {
    out << "quantiles:\n";
    for (const auto& q : quantiles) {
      pad(q.name);
      out << "count=" << q.count << " mean="
          << (q.count == 0 ? 0.0 : q.sum / static_cast<double>(q.count))
          << " min=" << q.min << " max=" << q.max << " p50<=" << q.p50
          << " p90<=" << q.p90 << " p95<=" << q.p95 << " p99<=" << q.p99
          << "\n";
    }
  }
}

void StatsRegistry::write_table(std::ostream& out) const {
  snapshot().write_table(out);
}

}  // namespace cavenet::obs
