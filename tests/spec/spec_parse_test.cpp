#include "spec/spec.h"

#include <string>

#include "obs/json.h"
#include "scenario/table1.h"

#include <gtest/gtest.h>

namespace cavenet::spec {
namespace {

std::string error_of(const std::string& json) {
  try {
    parse_campaign(json, "test.json");
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecParseTest, MinimalCampaignGetsTableIDefaults) {
  const CampaignSpec spec = parse_campaign(
      R"({"name": "t", "kind": "campaign", "scenario": {}})", "test.json");
  EXPECT_EQ(spec.name, "t");
  EXPECT_EQ(spec.title, "t");
  EXPECT_EQ(spec.kind, SpecKind::kCampaign);
  const scenario::TableIConfig defaults;
  const scenario::TableIConfig& config = spec.scenario.config;
  EXPECT_EQ(config.vehicles, defaults.vehicles);
  EXPECT_EQ(config.lane_cells, defaults.lane_cells);
  EXPECT_DOUBLE_EQ(config.slowdown_p, defaults.slowdown_p);
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_DOUBLE_EQ(config.mac_rate_bps, defaults.mac_rate_bps);
  EXPECT_EQ(config.protocol, defaults.protocol);
  EXPECT_EQ(spec.outputs.csv, "t.csv");
  EXPECT_EQ(spec.outputs.manifest, "t.manifest.json");
  EXPECT_EQ(spec.fingerprint.size(), 16u);
}

TEST(SpecParseTest, FullScenarioRoundTrip) {
  const CampaignSpec spec = parse_campaign(R"({
    "name": "full", "title": "Full", "kind": "campaign",
    "scenario": {
      "seed": 9, "duration_s": 50,
      "mobility": {"model": "nas", "lane_cells": 200, "vehicles": 12,
                   "slowdown_p": 0.25, "boundary": "open"},
      "phy": {"propagation": "shadowing", "shadowing_exponent": 3.0,
              "shadowing_sigma_db": 6.0},
      "mac": {"rate_bps": 11e6, "rts_cts": true},
      "routing": {"protocol": "dsdv"},
      "traffic": {"packets_per_second": 2, "payload_bytes": 256,
                  "start_s": 5, "stop_s": 45, "receiver": 0, "sender": 3},
      "obs": {"stats": false}
    }
  })", "test.json");
  const scenario::TableIConfig& config = spec.scenario.config;
  EXPECT_EQ(config.seed, 9u);
  EXPECT_DOUBLE_EQ(config.duration_s, 50.0);
  EXPECT_EQ(config.lane_cells, 200);
  EXPECT_EQ(config.vehicles, 12);
  EXPECT_DOUBLE_EQ(config.slowdown_p, 0.25);
  EXPECT_FALSE(config.circular_layout);
  EXPECT_EQ(config.propagation, scenario::Propagation::kShadowing);
  EXPECT_DOUBLE_EQ(config.mac_rate_bps, 11e6);
  EXPECT_TRUE(config.use_rts_cts);
  EXPECT_EQ(config.protocol, scenario::Protocol::kDsdv);
  EXPECT_DOUBLE_EQ(config.packets_per_second, 2.0);
  EXPECT_EQ(config.payload_bytes, 256u);
  EXPECT_EQ(config.sender, 3u);
  EXPECT_FALSE(spec.scenario.collect_stats);
}

TEST(SpecParseTest, PhyIndexKeyIsRejectedAsUnknown) {
  // The brute-force channel is a test and bench reference
  // (TableIConfig::channel_index), not a spec option.
  const std::string what = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"phy": {"index": "linear"}}
  })");
  EXPECT_NE(what.find("$.scenario.phy.index"), std::string::npos) << what;
  EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
}

TEST(SpecParseTest, EngineParallelParsesAndDefaults) {
  // shards and threads stay accepted so existing specs remain valid; the
  // channel derives its own strip count, so shards is read and dropped.
  const CampaignSpec plain = parse_campaign(
      R"({"name": "t", "kind": "campaign", "scenario": {}})", "test.json");
  EXPECT_EQ(plain.scenario.config.parallel.threads, 1);

  const CampaignSpec parallel = parse_campaign(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel": {"shards": 4, "threads": 2}}}
  })", "test.json");
  EXPECT_EQ(parallel.scenario.config.parallel.threads, 2);
}

TEST(SpecParseTest, EngineFlatShardKeyIsRejectedAsUnknown) {
  // The knobs live only in the engine.parallel block; a flat spelling is
  // an unknown key like any other.
  const std::string what = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"shards": 4}}
  })");
  EXPECT_NE(what.find("$.scenario.engine.shards"), std::string::npos) << what;
  EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
}

TEST(SpecParseTest, EngineParallelIsRangeChecked) {
  const std::string zero = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel": {"shards": 0}}}
  })");
  EXPECT_NE(zero.find("$.scenario.engine.parallel.shards"),
            std::string::npos)
      << zero;

  // The rebucket period is the channel's own constant: epoch_s is an
  // unknown key.
  const std::string epoch = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel": {"epoch_s": 0.5}}}
  })");
  EXPECT_NE(epoch.find("$.scenario.engine.parallel.epoch_s"),
            std::string::npos)
      << epoch;
  EXPECT_NE(epoch.find("unknown key"), std::string::npos) << epoch;

  const std::string unknown = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"engine": {"parallel": {"shard": 4}}}
  })");
  EXPECT_NE(unknown.find("$.scenario.engine.parallel.shard"),
            std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("did you mean \"shards\"?"), std::string::npos)
      << unknown;
}

TEST(SpecParseTest, UnknownKeyIsRejectedWithSuggestion) {
  const std::string what = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"mobility": {"vehicels": 10}}
  })");
  EXPECT_NE(what.find("$.scenario.mobility.vehicels"), std::string::npos)
      << what;
  EXPECT_NE(what.find("did you mean \"vehicles\"?"), std::string::npos)
      << what;

  // Keys that were removed from the schema fail the same way, so an old
  // spec names the path instead of being read with the key ignored.
  struct Removed {
    const char* scenario;
    const char* path;
  };
  for (const Removed& removed : {
           Removed{R"({"obs": {"heartbeat_s": 10}})",
                   "$.scenario.obs.heartbeat_s"},
           Removed{R"({"mobility": {"ns2_round_trip": true}})",
                   "$.scenario.mobility.ns2_round_trip"},
       }) {
    const std::string error =
        error_of(std::string(R"({"name": "t", "kind": "campaign", )") +
                 R"("scenario": )" + removed.scenario + "}");
    EXPECT_NE(error.find(removed.path), std::string::npos) << error;
    EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  }
}

TEST(SpecParseTest, EnumErrorListsChoicesAndSuggests) {
  const std::string what = error_of(R"({
    "name": "t", "kind": "campaign",
    "scenario": {"routing": {"protocol": "adov"}}
  })");
  EXPECT_NE(what.find("$.scenario.routing.protocol"), std::string::npos)
      << what;
  EXPECT_NE(what.find("\"aodv\""), std::string::npos) << what;
  EXPECT_NE(what.find("did you mean \"aodv\"?"), std::string::npos) << what;
}

TEST(SpecParseTest, RangeAndTypeErrorsNameTheSpecPath) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"mobility": {"slowdown_p": 1.5}}})")
                .find("$.scenario.mobility.slowdown_p"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"mobility": {"vehicles": 2.5}}})")
                .find("expected an integer"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"traffic": {"sender": true}}})")
                .find("$.scenario.traffic.sender"),
            std::string::npos);
}

TEST(SpecParseTest, SyntaxErrorsCarryLineAndColumn) {
  try {
    parse_campaign("{\n  \"name\": oops\n}", "bad.json");
    FAIL() << "expected obs::JsonParseError";
  } catch (const obs::JsonParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bad.json:2:"), std::string::npos);
  }
}

TEST(SpecParseTest, TrafficWindowMustFitTheRun) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"duration_s": 20}})")
                .find("traffic stops after"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"traffic": {"start_s": 50,
                                                  "stop_s": 40}}})")
                .find("precedes start_s"),
            std::string::npos);
}

TEST(SpecParseTest, SenderMustBeWithinTheFleet) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign",
                         "scenario": {"mobility": {"vehicles": 5},
                                      "traffic": {"sender": 7}}})")
                .find("sender 7 is out of range for 5 nodes"),
            std::string::npos);
}

TEST(SpecParseTest, CampaignRejectsSenderRange) {
  EXPECT_NE(
      error_of(R"({"name": "t", "kind": "campaign",
                   "scenario": {"traffic": {"senders": {"first": 1,
                                                        "last": 4}}}})")
          .find("campaign points run one flow"),
      std::string::npos);
}

TEST(SpecParseTest, GoodputSurfaceAcceptsSenderRange) {
  const CampaignSpec spec = parse_campaign(
      R"({"name": "g", "kind": "goodput_surface",
          "scenario": {"traffic": {"senders": {"first": 2, "last": 6}}}})",
      "test.json");
  EXPECT_EQ(spec.scenario.first_sender, 2u);
  EXPECT_EQ(spec.scenario.last_sender, 6u);
}

// The goodput surface tabulates seconds 10..90 of each run; a shorter run
// has fewer per-second bins than that table reads.
TEST(SpecParseTest, GoodputSurfaceShorterThanItsWindowIsRejected) {
  const std::string what = error_of(R"({"name": "g",
      "kind": "goodput_surface", "scenario": {"duration_s": 20,
          "traffic": {"start_s": 5, "stop_s": 15}}})");
  EXPECT_NE(what.find("$.scenario.duration_s"), std::string::npos) << what;
  EXPECT_NE(what.find("10-90 s"), std::string::npos) << what;
  EXPECT_NE(error_of(R"({"name": "g", "kind": "goodput_surface",
                         "scenario": {"duration_s": 89.5,
                                      "traffic": {"stop_s": 85}}})")
                .find("$.scenario.duration_s"),
            std::string::npos);
  // The window's end is enough, and campaigns keep any duration.
  EXPECT_EQ(error_of(R"({"name": "g", "kind": "goodput_surface",
                         "scenario": {"duration_s": 90}})"),
            "");
  EXPECT_EQ(error_of(R"({"name": "c", "kind": "campaign",
                         "scenario": {"duration_s": 20,
                                      "traffic": {"stop_s": 15}}})"),
            "");
}

TEST(SpecParseTest, SweepingTheSeedIsRejected) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign", "scenario": {},
                         "sweep": {"axes": [{"param": "seed",
                                             "values": [1, 2]}]}})")
                .find("sweeping \"seed\" is not allowed"),
            std::string::npos);
}

TEST(SpecParseTest, KindGatesTheSections) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "fundamental_diagram",
                         "scenario": {}})")
                .find("takes no scenario/sweep"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "goodput_surface",
                         "scenario": {},
                         "sweep": {"replications": 2}})")
                .find("only valid with"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign"})")
                .find("\"scenario\" is required"),
            std::string::npos);
}

TEST(SpecParseTest, FundamentalDiagramSection) {
  const CampaignSpec spec = parse_campaign(R"({
    "name": "fd", "kind": "fundamental_diagram",
    "fundamental_diagram": {"lane_cells": 100, "points": 5, "trials": 2,
                            "iterations": 50, "warmup": 10, "seed": 2,
                            "slowdown_p": [0.1, 0.2, 0.3]}
  })", "test.json");
  EXPECT_EQ(spec.kind, SpecKind::kFundamentalDiagram);
  EXPECT_EQ(spec.fd.lane_cells, 100);
  EXPECT_EQ(spec.fd.points, 5);
  EXPECT_EQ(spec.fd.slowdown_ps.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.fd.slowdown_ps[1], 0.2);
}

TEST(SpecParseTest, GridMobilityAndTransformRules) {
  const CampaignSpec grid = parse_campaign(R"({
    "name": "g", "kind": "campaign",
    "scenario": {"mobility": {"model": "grid",
                              "grid": {"horizontal_lanes": 2,
                                       "vertical_lanes": 2,
                                       "vehicles_per_lane": 4},
                              "trace_steps": 50},
                 "traffic": {"sender": 3}}
  })", "test.json");
  EXPECT_EQ(grid.scenario.mobility_model, MobilityModel::kGrid);
  EXPECT_EQ(grid.scenario.grid.horizontal_lanes, 2);
  EXPECT_EQ(grid.scenario.grid_trace_steps, 50);

  const CampaignSpec ring = parse_campaign(R"({
    "name": "r", "kind": "campaign",
    "scenario": {"mobility": {"transform": {"rotate_deg": 45,
                                            "translate_x": 10,
                                            "mirror_x": true}}}
  })", "test.json");
  ASSERT_TRUE(ring.scenario.transform.has_value());
  EXPECT_DOUBLE_EQ(ring.scenario.transform->rotate_deg, 45.0);
  EXPECT_TRUE(ring.scenario.transform->mirror_x);
}

TEST(SpecParseTest, SenderAndSendersAreMutuallyExclusive) {
  EXPECT_NE(error_of(R"({"name": "t", "kind": "goodput_surface",
                         "scenario": {"traffic": {"sender": 1,
                                                  "senders": {"first": 1,
                                                              "last": 2}}}})")
                .find("not both"),
            std::string::npos);
}

// Outputs are written relative to the output directory (a job's directory
// under cavenet-serve), so no spec may name a path that leaves it.
TEST(SpecParseTest, AbsoluteOutputPathIsRejected) {
  const std::string what = error_of(R"({"name": "t", "kind": "campaign",
      "scenario": {}, "outputs": {"manifest": "/tmp/t.manifest.json"}})");
  EXPECT_NE(what.find("$.outputs.manifest"), std::string::npos) << what;
  EXPECT_NE(what.find("absolute"), std::string::npos) << what;
}

TEST(SpecParseTest, DotDotOutputSegmentIsRejected) {
  const std::string what = error_of(R"({"name": "t",
      "kind": "goodput_surface", "scenario": {},
      "outputs": {"csv": "../../journal.jsonl"}})");
  EXPECT_NE(what.find("$.outputs.csv"), std::string::npos) << what;
  EXPECT_NE(what.find("\"..\" segment"), std::string::npos) << what;
  EXPECT_NE(error_of(R"({"name": "t", "kind": "campaign", "scenario": {},
                         "outputs": {"csv": "out/../../t.csv"}})")
                .find("$.outputs.csv"),
            std::string::npos);
  // Dots inside a file name and plain subdirectories stay allowed.
  const CampaignSpec spec = parse_campaign(
      R"({"name": "t", "kind": "campaign", "scenario": {},
          "outputs": {"csv": "./sub/t..v2.csv", "manifest": "..t.json"}})",
      "test.json");
  EXPECT_EQ(spec.outputs.csv, "./sub/t..v2.csv");
  EXPECT_EQ(spec.outputs.manifest, "..t.json");
}

TEST(SpecParseTest, NameWithSlashIsRejected) {
  // The name prefixes point manifests, telemetry and progress files.
  const std::string what = error_of(
      R"({"name": "../esc_name", "kind": "campaign", "scenario": {}})");
  EXPECT_NE(what.find("$.name"), std::string::npos) << what;
  EXPECT_NE(error_of(R"({"name": "sub/t", "kind": "fundamental_diagram"})")
                .find("$.name"),
            std::string::npos);
  EXPECT_EQ(parse_campaign(R"({"name": "..", "kind": "fundamental_diagram"})",
                           "test.json")
                .outputs.csv,
            "...csv");
}

}  // namespace
}  // namespace cavenet::spec
