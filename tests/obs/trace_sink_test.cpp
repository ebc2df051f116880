#include "obs/trace_sink.h"

#include <gtest/gtest.h>

#include "obs/json.h"

namespace cavenet::obs {
namespace {

TraceEvent instant(std::int64_t us, std::string_view name,
                   std::uint32_t tid = 0) {
  TraceEvent e;
  e.ts = SimTime::microseconds(us);
  e.phase = TraceEvent::Phase::kInstant;
  e.name = name;
  e.category = "MAC";
  e.tid = tid;
  return e;
}

TEST(ChromeTraceWriterTest, EmitsValidChromeJson) {
  ChromeTraceWriter writer;
  writer.emit(instant(1500, "cbr", 4));

  TraceEvent complete;
  complete.ts = SimTime::microseconds(10);
  complete.dur = SimTime::microseconds(250);
  complete.phase = TraceEvent::Phase::kComplete;
  complete.name = "handler";
  complete.category = "kernel";
  writer.emit(complete);

  const JsonValue doc = parse_json(writer.to_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  const JsonValue& e0 = events->array[0];
  EXPECT_EQ(e0.find("name")->string, "cbr");
  EXPECT_EQ(e0.find("ph")->string, "i");
  EXPECT_DOUBLE_EQ(e0.find("ts")->number, 1500.0);
  EXPECT_DOUBLE_EQ(e0.find("tid")->number, 4.0);

  const JsonValue& e1 = events->array[1];
  EXPECT_EQ(e1.find("ph")->string, "X");
  EXPECT_DOUBLE_EQ(e1.find("dur")->number, 250.0);
}

}  // namespace
}  // namespace cavenet::obs
