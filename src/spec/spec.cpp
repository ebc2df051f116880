#include "spec/spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "spec/fingerprint.h"
#include "util/suggest.h"

namespace cavenet::spec {

namespace {

using obs::JsonValue;

std::string render_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

std::string lowercase(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "a boolean";
    case JsonValue::Kind::kNumber: return "a number";
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kArray: return "an array";
    case JsonValue::Kind::kObject: return "an object";
  }
  return "a value";
}

/// Cursor over one JSON object: typed, range-checked member access with
/// spec-path diagnostics, plus unknown-key rejection on finish().
class ObjectReader {
 public:
  ObjectReader(const JsonValue& value, std::string path)
      : value_(value), path_(std::move(path)) {
    if (!value_.is_object()) {
      throw SpecError(path_ + ": expected an object, got " +
                      kind_name(value_.kind));
    }
  }

  const std::string& path() const noexcept { return path_; }

  std::string member_path(const std::string& key) const {
    return path_ + "." + key;
  }

  /// Marks `key` as part of the schema and returns it when present.
  const JsonValue* find(const std::string& key) {
    known_.push_back(key);
    return value_.find(key);
  }

  bool has(const std::string& key) { return find(key) != nullptr; }

  bool get_bool(const std::string& key, bool fallback) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    if (v->kind != JsonValue::Kind::kBool) {
      throw SpecError(member_path(key) + ": expected a boolean, got " +
                      kind_name(v->kind));
    }
    return v->boolean;
  }

  double get_double(const std::string& key, double fallback, double min,
                    double max) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    return check_range(key, number_of(key, *v), min, max);
  }

  std::int64_t get_int(const std::string& key, std::int64_t fallback,
                       std::int64_t min, std::int64_t max) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    const double number = number_of(key, *v);
    if (number != std::floor(number)) {
      throw SpecError(member_path(key) + ": expected an integer, got " +
                      render_number(number));
    }
    return static_cast<std::int64_t>(
        check_range(key, number, static_cast<double>(min),
                    static_cast<double>(max)));
  }

  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    const double number = number_of(key, *v);
    if (number != std::floor(number) || number < 0) {
      throw SpecError(member_path(key) +
                      ": expected a non-negative integer, got " +
                      render_number(number));
    }
    return static_cast<std::uint64_t>(number);
  }

  std::string get_string(const std::string& key, std::string fallback) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    if (!v->is_string()) {
      throw SpecError(member_path(key) + ": expected a string, got " +
                      kind_name(v->kind));
    }
    return v->string;
  }

  /// Lower-cased string member constrained to `choices`; diagnostics
  /// list the choices and suggest the closest one.
  std::string get_enum(const std::string& key, std::string fallback,
                       const std::vector<std::string>& choices) {
    const JsonValue* v = find(key);
    if (v == nullptr) return fallback;
    if (!v->is_string()) {
      throw SpecError(member_path(key) + ": expected a string, got " +
                      kind_name(v->kind));
    }
    const std::string choice = lowercase(v->string);
    if (std::find(choices.begin(), choices.end(), choice) != choices.end()) {
      return choice;
    }
    std::string all;
    for (const std::string& c : choices) {
      if (!all.empty()) all += ", ";
      all += "\"" + c + "\"";
    }
    throw SpecError(member_path(key) + ": \"" + v->string +
                    "\" is not one of " + all + did_you_mean(choice, choices));
  }

  /// Rejects members never named by a find()/get_*() call.
  void finish() const {
    for (const auto& [key, value] : value_.object) {
      if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
        throw SpecError(member_path(key) + ": unknown key" +
                        did_you_mean(key, known_));
      }
    }
  }

 private:
  double number_of(const std::string& key, const JsonValue& v) const {
    if (!v.is_number()) {
      throw SpecError(member_path(key) + ": expected a number, got " +
                      kind_name(v.kind));
    }
    return v.number;
  }

  double check_range(const std::string& key, double value, double min,
                     double max) const {
    if (value < min || value > max) {
      throw SpecError(member_path(key) + ": " + render_number(value) +
                      " is out of range [" + render_number(min) + ", " +
                      render_number(max) + "]");
    }
    return value;
  }

  const JsonValue& value_;
  std::string path_;
  std::vector<std::string> known_;
};

constexpr double kInf = 1e308;
constexpr std::int64_t kMaxCells = 1'000'000'000;

/// Outputs are written relative to the output directory (or a job's
/// directory under cavenet-serve), so a path that could leave it is
/// rejected: absolute, or with a ".." segment.
void check_output_path(const std::string& value, const std::string& path) {
  const std::filesystem::path output(value);
  if (output.is_absolute()) {
    throw SpecError(path + ": \"" + value +
                    "\" is absolute; outputs are relative to the output "
                    "directory");
  }
  for (const std::filesystem::path& segment : output) {
    if (segment == "..") {
      throw SpecError(path + ": \"" + value +
                      "\" has a \"..\" segment; outputs stay inside the "
                      "output directory");
    }
  }
}

scenario::Protocol parse_protocol(ObjectReader& r) {
  const std::string p = r.get_enum("protocol", "aodv",
                                   {"aodv", "olsr", "dymo", "dsdv"});
  if (p == "olsr") return scenario::Protocol::kOlsr;
  if (p == "dymo") return scenario::Protocol::kDymo;
  if (p == "dsdv") return scenario::Protocol::kDsdv;
  return scenario::Protocol::kAodv;
}

void parse_phy(ObjectReader& r, scenario::TableIConfig& config) {
  const std::string propagation =
      r.get_enum("propagation", "two_ray_ground",
                 {"two_ray_ground", "free_space", "shadowing", "rayleigh"});
  if (propagation == "free_space") {
    config.propagation = scenario::Propagation::kFreeSpace;
  } else if (propagation == "shadowing") {
    config.propagation = scenario::Propagation::kShadowing;
  } else if (propagation == "rayleigh") {
    config.propagation = scenario::Propagation::kRayleigh;
  } else {
    config.propagation = scenario::Propagation::kTwoRayGround;
  }
  config.shadowing_exponent =
      r.get_double("shadowing_exponent", config.shadowing_exponent, 1.0, 10.0);
  config.shadowing_sigma_db =
      r.get_double("shadowing_sigma_db", config.shadowing_sigma_db, 0.0, 30.0);
  r.finish();
}

void parse_mobility(ObjectReader& r, ScenarioSpec& spec) {
  scenario::TableIConfig& config = spec.config;
  const std::string model = r.get_enum("model", "nas", {"nas", "grid"});
  spec.mobility_model =
      model == "grid" ? MobilityModel::kGrid : MobilityModel::kNas;

  if (spec.mobility_model == MobilityModel::kNas) {
    config.lane_cells = r.get_int("lane_cells", config.lane_cells, 2, kMaxCells);
    config.vehicles = static_cast<std::int32_t>(
        r.get_int("vehicles", config.vehicles, 1, 1'000'000));
    config.slowdown_p = r.get_double("slowdown_p", config.slowdown_p, 0.0, 1.0);
    config.circular_layout =
        r.get_enum("boundary", "circular", {"circular", "open"}) == "circular";
    if (const obs::JsonValue* t = r.find("transform")) {
      ObjectReader tr(*t, r.member_path("transform"));
      TransformSpec transform;
      transform.rotate_deg =
          tr.get_double("rotate_deg", 0.0, -360.0, 360.0);
      transform.translate_x = tr.get_double("translate_x", 0.0, -kInf, kInf);
      transform.translate_y = tr.get_double("translate_y", 0.0, -kInf, kInf);
      transform.mirror_x = tr.get_bool("mirror_x", false);
      tr.finish();
      spec.transform = transform;
    }
  } else {
    if (const obs::JsonValue* g = r.find("grid")) {
      ObjectReader gr(*g, r.member_path("grid"));
      spec.grid.horizontal_lanes = static_cast<std::int32_t>(
          gr.get_int("horizontal_lanes", spec.grid.horizontal_lanes, 1, 64));
      spec.grid.vertical_lanes = static_cast<std::int32_t>(
          gr.get_int("vertical_lanes", spec.grid.vertical_lanes, 1, 64));
      spec.grid.block_cells =
          gr.get_int("block_cells", spec.grid.block_cells, 2, kMaxCells);
      spec.grid.vehicles_per_lane = gr.get_int(
          "vehicles_per_lane", spec.grid.vehicles_per_lane, 1, 100'000);
      spec.grid.green_period_steps = gr.get_int(
          "green_period_steps", spec.grid.green_period_steps, 1, kMaxCells);
      spec.grid.slowdown_p =
          gr.get_double("slowdown_p", spec.grid.slowdown_p, 0.0, 1.0);
      gr.finish();
    }
    spec.grid_trace_steps =
        r.get_int("trace_steps", spec.grid_trace_steps, 1, 1'000'000);
  }
  r.finish();
}

void parse_traffic(ObjectReader& r, ScenarioSpec& spec,
                   bool& has_sender_range) {
  scenario::TableIConfig& config = spec.config;
  config.packets_per_second =
      r.get_double("packets_per_second", config.packets_per_second, 1e-6, 1e6);
  config.payload_bytes = static_cast<std::size_t>(
      r.get_int("payload_bytes",
                static_cast<std::int64_t>(config.payload_bytes), 1, 65'536));
  config.traffic_start_s =
      r.get_double("start_s", config.traffic_start_s, 0.0, kInf);
  config.traffic_stop_s =
      r.get_double("stop_s", config.traffic_stop_s, 0.0, kInf);
  if (config.traffic_stop_s < config.traffic_start_s) {
    throw SpecError(r.member_path("stop_s") + ": stop_s (" +
                    render_number(config.traffic_stop_s) +
                    ") precedes start_s (" +
                    render_number(config.traffic_start_s) + ")");
  }
  config.receiver = static_cast<netsim::NodeId>(
      r.get_uint("receiver", config.receiver));

  const obs::JsonValue* senders = r.find("senders");
  const bool has_single = r.has("sender");
  if (senders != nullptr && has_single) {
    throw SpecError(r.member_path("senders") +
                    ": give either \"sender\" or \"senders\", not both");
  }
  if (senders != nullptr) {
    ObjectReader sr(*senders, r.member_path("senders"));
    spec.first_sender =
        static_cast<netsim::NodeId>(sr.get_uint("first", spec.first_sender));
    spec.last_sender =
        static_cast<netsim::NodeId>(sr.get_uint("last", spec.last_sender));
    sr.finish();
    if (spec.first_sender > spec.last_sender) {
      throw SpecError(r.member_path("senders") + ": first (" +
                      std::to_string(spec.first_sender) + ") > last (" +
                      std::to_string(spec.last_sender) + ")");
    }
    config.sender = spec.first_sender;
    has_sender_range = true;
  } else {
    config.sender =
        static_cast<netsim::NodeId>(r.get_uint("sender", config.sender));
    spec.first_sender = spec.last_sender = config.sender;
  }
  r.finish();
}

std::int64_t node_count(const ScenarioSpec& spec) {
  if (spec.mobility_model == MobilityModel::kGrid) {
    return static_cast<std::int64_t>(spec.grid.horizontal_lanes +
                                     spec.grid.vertical_lanes) *
           spec.grid.vehicles_per_lane;
  }
  return spec.config.vehicles;
}

FundamentalDiagramSpec parse_fd(const JsonValue& value,
                                const std::string& path) {
  ObjectReader r(value, path);
  FundamentalDiagramSpec fd;
  fd.lane_cells = r.get_int("lane_cells", fd.lane_cells, 2, kMaxCells);
  fd.v_max = static_cast<std::int32_t>(r.get_int("v_max", fd.v_max, 1, 1000));
  fd.max_density = r.get_double("max_density", fd.max_density, 0.0, 1.0);
  fd.points = r.get_int("points", fd.points, 1, 100'000);
  fd.iterations = r.get_int("iterations", fd.iterations, 1, kMaxCells);
  fd.trials = r.get_int("trials", fd.trials, 1, 1'000'000);
  fd.warmup = r.get_int("warmup", fd.warmup, 0, kMaxCells);
  fd.seed = r.get_uint("seed", fd.seed);
  if (const JsonValue* ps = r.find("slowdown_p")) {
    if (!ps->is_array() || ps->array.empty()) {
      throw SpecError(r.member_path("slowdown_p") +
                      ": expected a non-empty array of probabilities");
    }
    fd.slowdown_ps.clear();
    for (std::size_t i = 0; i < ps->array.size(); ++i) {
      const JsonValue& p = ps->array[i];
      if (!p.is_number() || p.number < 0.0 || p.number > 1.0) {
        throw SpecError(r.member_path("slowdown_p") + "[" +
                        std::to_string(i) +
                        "]: expected a probability in [0, 1]");
      }
      fd.slowdown_ps.push_back(p.number);
    }
  }
  r.finish();
  return fd;
}

SweepSpec parse_sweep(const JsonValue& value, const std::string& path) {
  ObjectReader r(value, path);
  SweepSpec sweep;
  sweep.replications = r.get_int("replications", 1, 1, 1'000'000);
  if (const JsonValue* axes = r.find("axes")) {
    if (!axes->is_array()) {
      throw SpecError(r.member_path("axes") + ": expected an array");
    }
    for (std::size_t i = 0; i < axes->array.size(); ++i) {
      const std::string axis_path =
          r.member_path("axes") + "[" + std::to_string(i) + "]";
      ObjectReader ar(axes->array[i], axis_path);
      SweepAxis axis;
      axis.param = ar.get_string("param", "");
      if (axis.param.empty()) {
        throw SpecError(axis_path + ": \"param\" is required");
      }
      if (axis.param == "seed") {
        throw SpecError(axis_path +
                        ": sweeping \"seed\" is not allowed; use "
                        "\"replications\" — each replication already draws "
                        "an independent substream seed");
      }
      const JsonValue* values = ar.find("values");
      if (values == nullptr || !values->is_array() || values->array.empty()) {
        throw SpecError(axis_path +
                        ": \"values\" must be a non-empty array");
      }
      axis.values = values->array;
      ar.finish();
      sweep.axes.push_back(std::move(axis));
    }
  }
  return sweep;
}

}  // namespace

std::string_view to_string(SpecKind kind) noexcept {
  switch (kind) {
    case SpecKind::kCampaign: return "campaign";
    case SpecKind::kGoodputSurface: return "goodput_surface";
    case SpecKind::kFundamentalDiagram: return "fundamental_diagram";
  }
  return "?";
}

ScenarioSpec parse_scenario(const obs::JsonValue& value,
                            const std::string& path) {
  ObjectReader r(value, path);
  ScenarioSpec spec;
  scenario::TableIConfig& config = spec.config;

  config.seed = r.get_uint("seed", config.seed);
  config.duration_s = r.get_double("duration_s", config.duration_s, 1e-9, kInf);

  bool has_sender_range = false;
  if (const obs::JsonValue* v = r.find("mobility")) {
    ObjectReader mr(*v, r.member_path("mobility"));
    parse_mobility(mr, spec);
  }
  if (const obs::JsonValue* v = r.find("phy")) {
    ObjectReader pr(*v, r.member_path("phy"));
    parse_phy(pr, config);
  }
  if (const obs::JsonValue* v = r.find("mac")) {
    ObjectReader mr(*v, r.member_path("mac"));
    config.mac_rate_bps =
        mr.get_double("rate_bps", config.mac_rate_bps, 1e3, 1e12);
    config.use_rts_cts = mr.get_bool("rts_cts", config.use_rts_cts);
    mr.finish();
  }
  if (const obs::JsonValue* v = r.find("routing")) {
    ObjectReader rr(*v, r.member_path("routing"));
    config.protocol = parse_protocol(rr);
    rr.finish();
  }
  if (const obs::JsonValue* v = r.find("engine")) {
    ObjectReader er(*v, r.member_path("engine"));
    // Accepted and range-checked so existing specs stay valid, but
    // neither key changes a run: the channel derives its own strip count
    // (docs/SCALING.md "Sharding") and a run is single-threaded. The
    // block is never part of the scenario's identity.
    if (const obs::JsonValue* p = er.find("parallel")) {
      ObjectReader pr(*p, er.member_path("parallel"));
      pr.get_int("shards", 1, 1, 4096);
      config.parallel.threads =
          static_cast<int>(pr.get_int("threads", 1, 0, 4096));
      pr.finish();
    }
    er.finish();
  }
  if (const obs::JsonValue* v = r.find("traffic")) {
    ObjectReader tr(*v, r.member_path("traffic"));
    parse_traffic(tr, spec, has_sender_range);
  }
  if (const obs::JsonValue* v = r.find("obs")) {
    ObjectReader orr(*v, r.member_path("obs"));
    spec.collect_stats = orr.get_bool("stats", true);
    if (const obs::JsonValue* t = orr.find("telemetry")) {
      ObjectReader tr(*t, orr.member_path("telemetry"));
      // period_s is required: a telemetry block that samples nothing is
      // a spec mistake, not a default to silently fill in.
      if (!tr.has("period_s")) {
        throw SpecError(orr.member_path("telemetry") +
                        ".period_s: a sampling period is required");
      }
      config.telemetry.period_s =
          tr.get_double("period_s", 0.0, 1e-9, kInf);
      config.telemetry.delta =
          tr.get_enum("mode", "full", {"full", "delta"}) == "delta";
      tr.finish();
      if (!spec.collect_stats) {
        throw SpecError(orr.member_path("telemetry") +
                        ": telemetry samples the stats registry; it "
                        "requires \"stats\": true");
      }
    }
    orr.finish();
  }
  r.finish();

  // Without an explicit "senders" range the scenario is a single flow
  // from config.sender (this also clears the struct's 1..8 defaults when
  // the traffic block is absent); parse_campaign enforces kind rules.
  if (!has_sender_range) {
    spec.first_sender = spec.last_sender = config.sender;
  }

  if (config.traffic_stop_s > config.duration_s) {
    throw SpecError(path + ".traffic.stop_s: traffic stops after the " +
                    render_number(config.duration_s) + " s simulation ends");
  }
  const std::int64_t nodes = node_count(spec);
  const auto check_node = [&](const char* what, netsim::NodeId id) {
    if (static_cast<std::int64_t>(id) >= nodes) {
      throw SpecError(path + ".traffic: " + what + " " + std::to_string(id) +
                      " is out of range for " + std::to_string(nodes) +
                      " nodes");
    }
  };
  check_node("receiver", config.receiver);
  check_node("sender", spec.first_sender);
  check_node("sender", spec.last_sender);
  if (spec.transform && spec.mobility_model != MobilityModel::kNas) {
    throw SpecError(path +
                    ".mobility.transform: only the NaS model supports "
                    "placement transforms");
  }
  return spec;
}

CampaignSpec parse_campaign(std::string_view json_text,
                            std::string source_name) {
  const obs::JsonValue doc = obs::parse_json(json_text, source_name);
  const std::string root_path = source_name + ": $";
  ObjectReader r(doc, root_path);

  CampaignSpec spec;
  spec.source = std::move(source_name);
  spec.name = r.get_string("name", "");
  if (spec.name.empty()) {
    throw SpecError(root_path + ".name: a non-empty name is required");
  }
  if (spec.name.find('/') != std::string::npos) {
    // The name prefixes point manifests, telemetry and progress files.
    throw SpecError(root_path + ".name: \"" + spec.name +
                    "\" contains '/'; the name is a file stem");
  }
  spec.title = r.get_string("title", spec.name);
  const std::string kind =
      r.get_enum("kind", "campaign",
                 {"campaign", "goodput_surface", "fundamental_diagram"});
  spec.kind = kind == "goodput_surface"   ? SpecKind::kGoodputSurface
              : kind == "fundamental_diagram" ? SpecKind::kFundamentalDiagram
                                              : SpecKind::kCampaign;

  const obs::JsonValue* scenario = r.find("scenario");
  const obs::JsonValue* fd = r.find("fundamental_diagram");
  const obs::JsonValue* sweep = r.find("sweep");

  if (spec.kind == SpecKind::kFundamentalDiagram) {
    if (scenario != nullptr || sweep != nullptr) {
      throw SpecError(root_path +
                      ": \"fundamental_diagram\" kind takes no scenario/sweep");
    }
    if (fd != nullptr) {
      spec.fd = parse_fd(*fd, root_path + ".fundamental_diagram");
    }
  } else {
    if (fd != nullptr) {
      throw SpecError(root_path + ".fundamental_diagram: only valid with " +
                      "\"kind\": \"fundamental_diagram\"");
    }
    if (scenario == nullptr) {
      throw SpecError(root_path + ": \"scenario\" is required for kind \"" +
                      kind + "\"");
    }
    spec.scenario_json = *scenario;
    spec.scenario = parse_scenario(*scenario, root_path + ".scenario");
    const bool is_range = spec.scenario.first_sender !=
                              spec.scenario.last_sender ||
                          spec.scenario.config.sender !=
                              spec.scenario.first_sender;
    if (spec.kind == SpecKind::kCampaign) {
      if (is_range) {
        throw SpecError(root_path +
                        ".scenario.traffic.senders: campaign points run one "
                        "flow each; use \"sender\" (sweep it to vary)");
      }
      if (sweep != nullptr) {
        spec.sweep = parse_sweep(*sweep, root_path + ".sweep");
      }
    } else if (sweep != nullptr) {
      throw SpecError(root_path + ".sweep: only valid with "
                      "\"kind\": \"campaign\"");
    }
    // run_goodput_surface tabulates seconds 10..90 of each run's
    // per-second goodput, which a shorter run does not have.
    if (spec.kind == SpecKind::kGoodputSurface &&
        spec.scenario.config.duration_s < 90.0) {
      throw SpecError(root_path + ".scenario.duration_s: a goodput_surface "
                      "tabulates the 10-90 s window, so the run must last "
                      "at least 90 s, not " +
                      render_number(spec.scenario.config.duration_s));
    }
  }

  if (const obs::JsonValue* outputs = r.find("outputs")) {
    ObjectReader out(*outputs, root_path + ".outputs");
    spec.outputs.csv = out.get_string("csv", "");
    spec.outputs.manifest = out.get_string("manifest", "");
    out.finish();
    check_output_path(spec.outputs.csv, out.member_path("csv"));
    check_output_path(spec.outputs.manifest, out.member_path("manifest"));
  }
  if (spec.outputs.csv.empty()) spec.outputs.csv = spec.name + ".csv";
  if (spec.outputs.manifest.empty()) {
    spec.outputs.manifest = spec.name + ".manifest.json";
  }
  r.finish();

  spec.fingerprint = fingerprint_hex(doc);
  return spec;
}

CampaignSpec load_campaign_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read spec file " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_campaign(buffer.str(), path);
}

}  // namespace cavenet::spec
