#include "obs/trace_sink.h"

#include <fstream>
#include <ostream>

#include "obs/json.h"
#include "util/logging.h"

namespace cavenet::obs {

namespace {

void write_event(JsonWriter& w, const TraceEvent& e) {
  w.begin_object();
  w.key("name");
  w.value(e.name);
  w.key("cat");
  w.value(e.category.empty() ? std::string_view("sim") : e.category);
  w.key("ph");
  const char ph[2] = {static_cast<char>(e.phase), '\0'};
  w.value(std::string_view(ph, 1));
  // trace_event timestamps are microseconds; keep sub-us precision.
  w.key("ts");
  w.value(e.ts.us());
  if (e.phase == TraceEvent::Phase::kComplete) {
    w.key("dur");
    w.value(e.dur.us());
  }
  w.key("pid");
  w.value(std::uint64_t{0});
  w.key("tid");
  w.value(static_cast<std::uint64_t>(e.tid));
  if (e.phase == TraceEvent::Phase::kInstant) {
    w.key("s");
    w.value("t");  // thread-scoped instant
  }
  w.end_object();
}

}  // namespace

std::string ChromeTraceWriter::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const TraceEvent& e : events_) write_event(w, e);
  w.end_array();
  w.end_object();
  return w.str();
}

void ChromeTraceWriter::write(std::ostream& out) const { out << to_json(); }

bool ChromeTraceWriter::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    CAVENET_LOG(kError, "obs") << "cannot write trace file " << path;
    return false;
  }
  write(out);
  return static_cast<bool>(out);
}

}  // namespace cavenet::obs
