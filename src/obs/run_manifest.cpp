#include "obs/run_manifest.h"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "util/logging.h"

namespace cavenet::obs {

std::string_view build_version() noexcept {
#ifdef CAVENET_GIT_DESCRIBE
  return CAVENET_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

void RunManifest::set_param(std::string key, std::string value) {
  for (auto& [k, v] : params) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  params.emplace_back(std::move(key), std::move(value));
}
void RunManifest::set_param(std::string key, std::string_view value) {
  set_param(std::move(key), std::string(value));
}
void RunManifest::set_param(std::string key, const char* value) {
  set_param(std::move(key), std::string(value));
}
void RunManifest::set_param(std::string key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  set_param(std::move(key), std::string(buf));
}
void RunManifest::set_param(std::string key, std::uint64_t value) {
  set_param(std::move(key), std::to_string(value));
}
void RunManifest::set_param(std::string key, std::int64_t value) {
  set_param(std::move(key), std::to_string(value));
}
void RunManifest::set_param(std::string key, std::int32_t value) {
  set_param(std::move(key), std::to_string(value));
}
void RunManifest::set_param(std::string key, bool value) {
  set_param(std::move(key), std::string(value ? "true" : "false"));
}

void RunManifest::set_metric(std::string key, double value) {
  for (auto& [k, v] : metrics) {
    if (k == key) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(std::move(key), value);
}

std::string_view RunManifest::param(std::string_view key,
                                    std::string_view fallback) const noexcept {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return fallback;
}

double RunManifest::metric(std::string_view key,
                           double fallback) const noexcept {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  return fallback;
}

void RunManifest::strip_volatile() {
  created_at.clear();
  wall_duration_s = 0.0;
  events_per_wall_second = 0.0;
  // Wall-clock and wall-throughput gauges are timing noise, not
  // simulation results: the kernel profiler's per-component ".wall_ms",
  // plus any ".wall_s" / ".per_wall_s" gauges the progress/telemetry
  // layer publishes. Everything keyed on sim time stays.
  // (kernel.*.dispatches counters are deterministic and stay.)
  static constexpr std::string_view kVolatileSuffixes[] = {
      ".wall_ms", ".wall_s", ".per_wall_s"};
  std::erase_if(stats.gauges, [](const auto& gauge) {
    const std::string& name = gauge.first;
    for (const std::string_view suffix : kVolatileSuffixes) {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        return true;
      }
    }
    return false;
  });
}

std::string RunManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value(name);
  w.key("seed");
  w.value(seed);
  w.key("git_describe");
  w.value(git_describe);
  w.key("created_at");
  w.value(created_at);
  w.key("params");
  w.begin_object();
  for (const auto& [key, value] : params) {
    w.key(key);
    w.value(value);
  }
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [key, value] : metrics) {
    w.key(key);
    w.value(value);
  }
  w.end_object();
  w.key("sim_duration_s");
  w.value(sim_duration_s);
  w.key("wall_duration_s");
  w.value(wall_duration_s);
  w.key("events_dispatched");
  w.value(events_dispatched);
  w.key("events_per_wall_second");
  w.value(events_per_wall_second);
  w.key("stats");
  w.raw(stats.to_json());
  w.end_object();
  return w.str();
}

RunManifest RunManifest::from_json(std::string_view json) {
  const JsonValue doc = parse_json(json);
  if (!doc.is_object()) throw std::runtime_error("run manifest: not an object");
  RunManifest m;
  m.git_describe.clear();
  m.created_at.clear();
  if (const JsonValue* v = doc.find("name")) m.name = v->string;
  if (const JsonValue* v = doc.find("seed")) {
    m.seed = static_cast<std::uint64_t>(v->number);
  }
  if (const JsonValue* v = doc.find("git_describe")) m.git_describe = v->string;
  if (const JsonValue* v = doc.find("created_at")) m.created_at = v->string;
  if (const JsonValue* v = doc.find("params")) {
    for (const auto& [key, value] : v->object) {
      m.params.emplace_back(key, value.string);
    }
  }
  if (const JsonValue* v = doc.find("metrics")) {
    for (const auto& [key, value] : v->object) {
      m.metrics.emplace_back(key, value.number);
    }
  }
  if (const JsonValue* v = doc.find("sim_duration_s")) m.sim_duration_s = v->number;
  if (const JsonValue* v = doc.find("wall_duration_s")) m.wall_duration_s = v->number;
  if (const JsonValue* v = doc.find("events_dispatched")) {
    m.events_dispatched = static_cast<std::uint64_t>(v->number);
  }
  if (const JsonValue* v = doc.find("events_per_wall_second")) {
    m.events_per_wall_second = v->number;
  }
  if (const JsonValue* v = doc.find("stats")) {
    m.stats = StatsSnapshot::from_json(*v);
  }
  return m;
}

RunManifest RunManifest::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read manifest " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

bool RunManifest::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    CAVENET_LOG(kError, "obs") << "cannot write manifest " << path;
    return false;
  }
  out << to_json() << "\n";
  return static_cast<bool>(out);
}

}  // namespace cavenet::obs
