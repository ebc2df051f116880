#include "trace/ns2_format.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/geometry.h"
#include "core/nas_lane.h"
#include "core/road.h"
#include "trace/trace_generator.h"

namespace cavenet::trace {
namespace {

MobilityTrace sample_trace() {
  MobilityTrace trace;
  trace.initial_positions = {{1.5, 2.5}, {10.0, 20.0}};
  trace.events.push_back({1.0, 0, TraceEvent::Kind::kSetDest, {5.0, 2.5}, 3.5});
  trace.events.push_back(
      {2.0, 1, TraceEvent::Kind::kSetPosition, {0.25, 0.75}, 0.0});
  trace.normalize();
  return trace;
}

TEST(Ns2FormatTest, WriteProducesExpectedSyntax) {
  std::ostringstream out;
  write_ns2(sample_trace(), out);
  const std::string s = out.str();
  EXPECT_NE(s.find("$node_(0) set X_ 1.5"), std::string::npos);
  EXPECT_NE(s.find("$node_(1) set Y_ 20"), std::string::npos);
  EXPECT_NE(s.find("$ns_ at 1 \"$node_(0) setdest 5 2.5 3.5\""),
            std::string::npos);
  EXPECT_NE(s.find("$ns_ at 2 \"$node_(1) set X_ 0.25\""), std::string::npos);
}

TEST(Ns2FormatTest, RoundTripPreservesTrace) {
  const MobilityTrace original = sample_trace();
  std::stringstream buffer;
  write_ns2(original, buffer);
  const MobilityTrace parsed = read_ns2(buffer);

  ASSERT_EQ(parsed.node_count(), original.node_count());
  for (std::uint32_t i = 0; i < original.node_count(); ++i) {
    EXPECT_NEAR(parsed.initial_positions[i].x, original.initial_positions[i].x,
                1e-9);
    EXPECT_NEAR(parsed.initial_positions[i].y, original.initial_positions[i].y,
                1e-9);
  }
  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, original.events[i].kind);
    EXPECT_EQ(parsed.events[i].node, original.events[i].node);
    EXPECT_NEAR(parsed.events[i].time_s, original.events[i].time_s, 1e-9);
    EXPECT_NEAR(parsed.events[i].target.x, original.events[i].target.x, 1e-9);
    EXPECT_NEAR(parsed.events[i].target.y, original.events[i].target.y, 1e-9);
    EXPECT_NEAR(parsed.events[i].speed_ms, original.events[i].speed_ms, 1e-9);
  }
}

TEST(Ns2FormatTest, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# comment line\n"
      "\n"
      "$node_(0) set X_ 4\n"
      "$node_(0) set Y_ 5\n"
      "$node_(0) set Z_ 0\n");
  const MobilityTrace trace = read_ns2(in);
  ASSERT_EQ(trace.node_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.initial_positions[0].x, 4.0);
  EXPECT_DOUBLE_EQ(trace.initial_positions[0].y, 5.0);
}

TEST(Ns2FormatTest, MergesTeleportAxisPairs) {
  std::istringstream in(
      "$node_(0) set X_ 0\n"
      "$node_(0) set Y_ 0\n"
      "$ns_ at 3 \"$node_(0) set X_ 7\"\n"
      "$ns_ at 3 \"$node_(0) set Y_ 8\"\n");
  const MobilityTrace trace = read_ns2(in);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].kind, TraceEvent::Kind::kSetPosition);
  EXPECT_DOUBLE_EQ(trace.events[0].target.x, 7.0);
  EXPECT_DOUBLE_EQ(trace.events[0].target.y, 8.0);
}

TEST(Ns2FormatTest, ThrowsOnGarbageWithLineNumber) {
  // Line 2 of each input is bad: not ns-2 at all, a node id no vector
  // can be indexed by (4294967295 wrapped max_node + 1 to 0; 3e9 would
  // size the node table at ~48 GB; -1 reads as the largest unsigned), or
  // a non-finite time, coordinate or speed.
  const std::string bad_lines[] = {
      "this is not ns-2",
      "$node_(4294967295) set X_ 5",
      "$node_(3000000000) set Y_ 5",
      "$node_(1000000) set X_ 5",
      "$node_(-1) set X_ 5",
      "$ns_ at 1 \"$node_(4294967295) setdest 1 2 3\"",
      "$ns_ at 1 \"$node_(3000000000) set X_ 1\"",
      "$node_(0) set X_ nan",
      "$node_(0) set Y_ inf",
      "$node_(0) set Z_ -inf",
      "$ns_ at nan \"$node_(0) setdest 1 2 3\"",
      "$ns_ at 1 \"$node_(0) setdest 1 nan 3\"",
      "$ns_ at 1 \"$node_(0) setdest 1 2 inf\"",
      "$ns_ at inf \"$node_(0) set X_ 1\"",
      "$ns_ at 1 \"$node_(0) set Y_ nan\"",
  };
  for (const std::string& bad : bad_lines) {
    std::istringstream in("$node_(0) set X_ 1\n" + bad + "\n");
    try {
      read_ns2(in);
      ADD_FAILURE() << "expected a parse error for: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // The largest accepted id still parses.
  std::istringstream in("$node_(999999) set X_ 1\n");
  EXPECT_EQ(read_ns2(in).node_count(), 1'000'000u);
}

TEST(Ns2FormatTest, EmptyInputGivesEmptyTrace) {
  std::istringstream in("");
  const MobilityTrace trace = read_ns2(in);
  EXPECT_EQ(trace.node_count(), 0u);
  EXPECT_TRUE(trace.events.empty());
}

TEST(Ns2FormatTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ns2_format_test.tr";
  ASSERT_TRUE(write_ns2_file(sample_trace(), path));
  const MobilityTrace parsed = read_ns2_file(path);
  EXPECT_EQ(parsed.node_count(), 2u);
  EXPECT_EQ(parsed.events.size(), 2u);
}

TEST(Ns2FormatTest, MissingFileThrows) {
  EXPECT_THROW(read_ns2_file("/nonexistent/path/to/trace.tr"),
               std::runtime_error);
}

TEST(Ns2FormatTest, GeneratedCaTraceRoundTripsThroughText) {
  // End-to-end: CA -> trace -> ns-2 text -> trace -> identical replay.
  ca::NasParams params;
  params.lane_length = 50;
  params.slowdown_p = 0.2;
  ca::Road road;
  road.add_lane(ca::NasLane(params, 8, ca::InitialPlacement::kRandom, Rng(9)),
                ca::make_circuit(375.0));
  TraceGeneratorOptions options;
  options.steps = 20;
  const MobilityTrace original = generate_trace(road, options);

  std::stringstream buffer;
  write_ns2(original, buffer);
  const MobilityTrace parsed = read_ns2(buffer);

  const auto paths_a = compile_paths(original);
  const auto paths_b = compile_paths(parsed);
  ASSERT_EQ(paths_a.size(), paths_b.size());
  for (std::size_t node = 0; node < paths_a.size(); ++node) {
    for (double t = 0.0; t <= 20.0; t += 0.5) {
      const Vec2 a = paths_a[node].position(t);
      const Vec2 b = paths_b[node].position(t);
      ASSERT_NEAR(a.x, b.x, 1e-5);
      ASSERT_NEAR(a.y, b.y, 1e-5);
    }
  }
}

}  // namespace
}  // namespace cavenet::trace
