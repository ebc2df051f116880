#include "runner/progress.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace cavenet::runner {
namespace {

ProgressOptions memory_only() {
  ProgressOptions options;
  options.heartbeat_period_s = 0.0;  // no watchdog thread in unit tests
  options.stall_after_s = 0.0;
  return options;
}

std::vector<std::string> lines(const std::string& jsonl) {
  std::vector<std::string> out;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(ProgressStreamTest, CampaignLifecycleEvents) {
  ProgressStream stream(3, 2, memory_only());
  stream.point_started(0, "fig8[0]");
  stream.point_finished(0, "fig8[0]", 1000);
  stream.point_started(1, "fig8[1]");
  stream.point_finished(1, "fig8[1]", 2000);
  stream.point_resumed(2, "fig8[2]");
  stream.campaign_finished();

  const auto ls = lines(stream.jsonl());
  ASSERT_EQ(ls.size(), 7u);  // started + 2x(start,finish) + resumed + done
  EXPECT_NE(ls[0].find("\"event\":\"campaign_started\""), std::string::npos);
  EXPECT_NE(ls[0].find("\"points\":3"), std::string::npos);
  EXPECT_NE(ls[0].find("\"jobs\":2"), std::string::npos);

  EXPECT_NE(ls[1].find("\"event\":\"point_started\""), std::string::npos);
  EXPECT_NE(ls[1].find("\"point\":0"), std::string::npos);
  EXPECT_NE(ls[1].find("\"name\":\"fig8[0]\""), std::string::npos);

  EXPECT_NE(ls[2].find("\"event\":\"point_finished\""), std::string::npos);
  EXPECT_NE(ls[2].find("\"events\":1000"), std::string::npos);
  EXPECT_NE(ls[2].find("\"events_per_wall_s\""), std::string::npos);
  EXPECT_NE(ls[2].find("\"eta_s\""), std::string::npos);
  EXPECT_NE(ls[2].find("\"finished\":1"), std::string::npos);

  EXPECT_NE(ls[5].find("\"event\":\"point_resumed\""), std::string::npos);
  EXPECT_NE(ls[6].find("\"event\":\"campaign_finished\""), std::string::npos);
  EXPECT_NE(ls[6].find("\"events\":3000"), std::string::npos);
  EXPECT_EQ(stream.finished(), 3u);  // resumed points count as finished
}

TEST(ProgressStreamTest, HeartbeatReportsRunningAndFinished) {
  ProgressStream stream(4, 1, memory_only());
  stream.point_started(0, "a");
  stream.point_finished(0, "a", 10);
  stream.point_started(1, "b");
  stream.emit_heartbeat();

  const auto ls = lines(stream.jsonl());
  const std::string& hb = ls.back();
  EXPECT_NE(hb.find("\"event\":\"heartbeat\""), std::string::npos);
  EXPECT_NE(hb.find("\"finished\":1"), std::string::npos);
  EXPECT_NE(hb.find("\"running\":1"), std::string::npos);
  EXPECT_NE(hb.find("\"points\":4"), std::string::npos);
  EXPECT_NE(hb.find("\"wall_s\""), std::string::npos);
}

TEST(ProgressStreamTest, WatchdogBeatsUntilTheCampaignFinishes) {
  ProgressOptions options = memory_only();
  options.heartbeat_period_s = 0.01;
  ProgressStream stream(1, 1, options);
  stream.point_started(0, "only");
  const auto has_heartbeat = [&stream] {
    return stream.jsonl().find("\"event\":\"heartbeat\"") !=
           std::string::npos;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!has_heartbeat() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(has_heartbeat()) << stream.jsonl();
  stream.point_finished(0, "only", 1);
  stream.campaign_finished();

  // The watchdog stopped with the campaign: nothing more is appended.
  const std::string closed = stream.jsonl();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(stream.jsonl(), closed);
}

TEST(ProgressStreamTest, WritesJsonlFile) {
  const std::string path = "progress_test.tmp.jsonl";
  {
    ProgressOptions options = memory_only();
    options.path = path;
    ProgressStream stream(1, 1, options);
    stream.point_started(0, "only");
    stream.point_finished(0, "only", 42);
    stream.campaign_finished();
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream read_back;
  read_back << in.rdbuf();
  const auto ls = lines(read_back.str());
  ASSERT_EQ(ls.size(), 4u);
  EXPECT_NE(ls.back().find("\"event\":\"campaign_finished\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ProgressStreamTest, EveryLineIsValidSingleObjectJson) {
  ProgressStream stream(2, 1, memory_only());
  stream.point_started(0, "x");
  stream.point_finished(0, "x", 1);
  stream.emit_heartbeat();
  stream.campaign_finished();

  for (const std::string& line : lines(stream.jsonl())) {
    SCOPED_TRACE(line);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // No raw newlines inside an event (JSONL framing).
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
}

TEST(ProgressStreamTest, FinishedCountsAreMonotone) {
  ProgressStream stream(3, 1, memory_only());
  EXPECT_EQ(stream.finished(), 0u);
  stream.point_started(0, "a");
  EXPECT_EQ(stream.finished(), 0u);
  stream.point_finished(0, "a", 5);
  EXPECT_EQ(stream.finished(), 1u);
  stream.point_resumed(1, "b");
  EXPECT_EQ(stream.finished(), 2u);
}

}  // namespace
}  // namespace cavenet::runner
