// Structured event tracing.
//
// The packet log emits TraceEvents into a ChromeTraceWriter, which
// renders the Chrome trace_event JSON format (load in chrome://tracing or
// https://ui.perfetto.dev).
//
// Event name/category fields are std::string_views and must outlive the
// sink: pass string literals or obs::intern()ed strings.
#ifndef CAVENET_OBS_TRACE_SINK_H
#define CAVENET_OBS_TRACE_SINK_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_time.h"

namespace cavenet::obs {

struct TraceEvent {
  /// Chrome trace_event phases: instant, complete (duration).
  enum class Phase : char { kInstant = 'i', kComplete = 'X' };

  SimTime ts;                       ///< simulation time of the event
  SimTime dur = SimTime::zero();    ///< kComplete only
  Phase phase = Phase::kInstant;
  std::string_view name;            ///< e.g. "cbr", "aodv"
  std::string_view category;        ///< e.g. "MAC", "RTR"
  std::uint32_t tid = 0;            ///< rendered as the track id (node id)
};

/// Collects events and serializes them as Chrome trace_event JSON:
/// {"traceEvents":[{"name":...,"ph":"i","ts":...,"pid":0,"tid":...},...]}
/// with ts/dur in microseconds of simulation time.
class ChromeTraceWriter {
 public:
  void emit(const TraceEvent& event) { events_.push_back(event); }

  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }

  /// Serializes all collected events.
  std::string to_json() const;
  void write(std::ostream& out) const;
  /// Returns false (and logs) when the file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace cavenet::obs

#endif  // CAVENET_OBS_TRACE_SINK_H
