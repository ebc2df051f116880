// Scaling sweep: what does one transmission cost as the fleet grows?
//
// Runs the Table-I protocol stack at constant vehicle density (10 veh/km,
// the paper's 30 vehicles / 3000 m) on proportionally longer circuits for
// N = 30 / 100 / 300 / 1000 vehicles under AODV and OLSR, and reports per
// point: events dispatched, channel transmissions, receive-power
// evaluations performed vs culled by the spatial index (chan.* counters),
// the cull factor (evaluations a full O(N) fan-out would have cost per
// one performed), kernel handler wall time, and whole-run wall clock.
//
// --jobs N     fan the sweep points across N ensemble workers (results
//              are bitwise-identical for every N; wall-clock columns
//              vary).
// --smoke      tiny fleets + short runs; the `bench-smoke` ctest label
//              runs this mode so the bench itself stays green under the
//              sanitizer presets. Smoke runs also record kernel-ms and
//              events/s per sweep point into BENCH_scale.json (keyed by
//              --json-label, default "current"), extending the
//              checked-in perf trajectory.
// --linear     use the brute-force channel (kLinear) instead of the
//              grid, for A/B-ing the index's win. The grid channel
//              derives its own strip count from each fleet's extent
//              (docs/SCALING.md "Sharding").
// --vehicles   comma-separated fleet-size override (e.g.
//              --vehicles 10000).
// --duration S sim-seconds override per point.
// --json       write BENCH_scale.json even outside --smoke.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "scenario/scale.h"
#include "util/cli_args.h"
#include "util/table_writer.h"

namespace {

/// Rewrites BENCH_scale.json with this run's kernel-ms / events-per-s
/// per sweep point under `label`, keeping entries with other labels.
/// Shape: {"entries": [{"label": "...", "points": [{...}, ...]}, ...]}
void write_scale_json(
    const std::string& path, const std::string& label,
    const std::vector<cavenet::scenario::ScaleRunResult>& results) {
  using cavenet::obs::JsonValue;
  std::vector<std::string> kept;  // raw pre-serialized entries
  if (std::ifstream in(path); in.is_open()) {
    std::stringstream buf;
    buf << in.rdbuf();
    const JsonValue doc = cavenet::obs::parse_json(buf.str());
    if (const JsonValue* entries = doc.find("entries");
        entries != nullptr && entries->is_array()) {
      for (const JsonValue& entry : entries->array) {
        const JsonValue* entry_label = entry.find("label");
        const JsonValue* points = entry.find("points");
        if (entry_label == nullptr || !entry_label->is_string() ||
            entry_label->string == label || points == nullptr ||
            !points->is_array()) {
          continue;
        }
        cavenet::obs::JsonWriter raw;
        raw.begin_object();
        raw.key("label");
        raw.value(entry_label->string);
        raw.key("points");
        raw.begin_array();
        for (const JsonValue& point : points->array) {
          raw.begin_object();
          for (const auto& [name, value] : point.object) {
            raw.key(name);
            if (value.is_string()) {
              raw.value(value.string);
            } else {
              raw.value(value.number);
            }
          }
          raw.end_object();
        }
        raw.end_array();
        raw.end_object();
        kept.push_back(raw.str());
      }
    }
  }

  cavenet::obs::JsonWriter w;
  w.begin_object();
  w.key("entries");
  w.begin_array();
  for (const std::string& entry : kept) w.raw(entry);
  w.begin_object();
  w.key("label");
  w.value(label);
  w.key("points");
  w.begin_array();
  for (const cavenet::scenario::ScaleRunResult& r : results) {
    w.begin_object();
    w.key("protocol");
    w.value(to_string(r.protocol));
    w.key("vehicles");
    w.value(static_cast<std::int64_t>(r.vehicles));
    w.key("events");
    w.value(static_cast<std::uint64_t>(r.flow.events_dispatched));
    w.key("kernel_ms");
    w.value(r.kernel_wall_ms);
    w.key("wall_ms");
    w.value(r.wall_s * 1e3);
    w.key("events_per_s");
    w.value(r.wall_s > 0.0
                ? static_cast<double>(r.flow.events_dispatched) / r.wall_s
                : 0.0);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();

  std::ofstream out(path, std::ios::trunc);
  out << w.str() << '\n';
  std::cout << "json: " << path << " (label \"" << label << "\")\n";
}

std::vector<std::int32_t> parse_fleets(const std::string& csv) {
  std::vector<std::int32_t> fleets;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int n = std::atoi(item.c_str());
    if (n < 2) {
      throw std::invalid_argument("--vehicles: bad fleet size '" + item +
                                  "'");
    }
    fleets.push_back(n);
  }
  if (fleets.empty()) throw std::invalid_argument("--vehicles: empty list");
  return fleets;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cavenet;
  using namespace cavenet::scenario;

  CliArgs args(argc, argv);
  const int jobs = static_cast<int>(args.get_int("jobs", 1));
  const bool smoke = args.get_bool("smoke", false);
  const bool linear = args.get_bool("linear", false);
  const std::string vehicles_csv = args.get_string("vehicles", "");
  const double duration_override = args.get_double("duration", 0.0);
  const bool write_json = args.get_bool("json", false);
  const std::string json_label = args.get_string("json-label", "current");
  for (const std::string& flag : args.unknown_flags()) {
    std::cerr << args.describe_unknown(flag) << "\n";
    return 2;
  }

  std::vector<std::int32_t> fleets;
  try {
    fleets = !vehicles_csv.empty()
                 ? parse_fleets(vehicles_csv)
                 : smoke ? std::vector<std::int32_t>{10, 20}
                         : std::vector<std::int32_t>{30, 100, 300, 1000};
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double duration_s =
      duration_override > 0.0 ? duration_override : (smoke ? 6.0 : 30.0);
  const double traffic_start_s = smoke ? 1.0 : 5.0;

  std::vector<ScaleConfig> sweep;
  for (const Protocol protocol : {Protocol::kAodv, Protocol::kOlsr}) {
    for (const std::int32_t n : fleets) {
      ScaleConfig config;
      config.protocol = protocol;
      config.vehicles = n;
      config.duration_s = duration_s;
      config.traffic_start_s = traffic_start_s;
      config.channel_index =
          linear ? phy::ChannelIndex::kLinear : phy::ChannelIndex::kGrid;
      sweep.push_back(config);
    }
  }

  std::cout << "Scaling sweep: Table-I stack at 10 veh/km, N = ";
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    std::cout << (i ? "/" : "") << fleets[i];
  }
  std::cout << " vehicles, AODV + OLSR, channel index "
            << (linear ? "linear (brute force)" : "grid") << "\n\n";

  const std::vector<ScaleRunResult> results = run_scale_sweep(sweep, jobs);

  TableWriter table({"protocol", "N", "PDR", "events", "chan tx",
                     "rx-pow eval", "rx-pow culled", "cull x", "kernel [ms]",
                     "wall [s]", "ev/s"});
  for (const ScaleRunResult& r : results) {
    table.add_row({std::string(to_string(r.protocol)),
                   static_cast<std::int64_t>(r.vehicles), r.flow.pdr,
                   static_cast<std::int64_t>(r.flow.events_dispatched),
                   static_cast<std::int64_t>(r.transmissions),
                   static_cast<std::int64_t>(r.rx_power_evaluated),
                   static_cast<std::int64_t>(r.rx_power_culled),
                   r.cull_factor, r.kernel_wall_ms, r.wall_s,
                   r.wall_s > 0.0
                       ? static_cast<double>(r.flow.events_dispatched) /
                             r.wall_s
                       : 0.0});
  }
  table.print(std::cout);
  table.write_csv_file("scale.csv");
  std::cout << "\ncsv: scale.csv\n";
  if (smoke || write_json) {
    write_scale_json("BENCH_scale.json", json_label, results);
  }

  // Sanity gates so the smoke run fails loudly if the index regresses:
  // every pair (transmission, other radio) is either evaluated or culled,
  // and at the largest fleet the index must pay for itself.
  int failures = 0;
  for (const ScaleRunResult& r : results) {
    const auto expected =
        r.transmissions * static_cast<std::uint64_t>(r.vehicles - 1);
    if (r.rx_power_evaluated + r.rx_power_culled != expected) {
      std::printf("FAIL %s N=%d: eval %llu + culled %llu != tx*(N-1) %llu\n",
                  std::string(to_string(r.protocol)).c_str(), r.vehicles,
                  static_cast<unsigned long long>(r.rx_power_evaluated),
                  static_cast<unsigned long long>(r.rx_power_culled),
                  static_cast<unsigned long long>(expected));
      ++failures;
    }
  }
  if (!smoke && !linear) {
    for (const ScaleRunResult& r : results) {
      if (r.vehicles >= 1000 && r.cull_factor < 5.0) {
        std::printf("FAIL %s N=%d: cull factor %.2f < 5\n",
                    std::string(to_string(r.protocol)).c_str(), r.vehicles,
                    r.cull_factor);
        ++failures;
      }
    }
  }
  return failures;
}
