// ns-2-style packet event logging.
//
// ns-2 writes one line per packet event ("s 10.0 _4_ AGT --- 17 cbr 512");
// researchers post-process these traces for every metric the simulator
// does not compute natively. PacketLog is the equivalent: layers record
// send/receive/forward/drop events into it, and it serializes in a
// compatible textual form (plus structured access for tests and tools).
//
// Memory behaviour: entries grow geometrically and are capped at
// max_entries() — records beyond the cap are counted in dropped() and
// discarded, so a multi-hour run degrades into a truncated log instead of
// silently exhausting memory. Entry type names are interned
// (obs::intern), so recording costs no per-event heap allocation.
//
// With a ChromeTraceWriter attached, every record is mirrored as a
// structured instant event (Chrome trace_event), which is how packet
// activity lands in Perfetto timelines.
#ifndef CAVENET_NETSIM_PACKET_LOG_H
#define CAVENET_NETSIM_PACKET_LOG_H

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "netsim/address.h"
#include "obs/trace_sink.h"
#include "util/sim_time.h"

namespace cavenet::netsim {

class PacketLog {
 public:
  enum class Event : std::uint8_t { kSend, kReceive, kForward, kDrop };
  enum class Layer : std::uint8_t { kAgent, kRouter, kMac };

  /// Default cap: ~1M entries (~48 MB). Override with set_max_entries().
  static constexpr std::size_t kDefaultMaxEntries = 1u << 20;

  struct Entry {
    SimTime time;
    Event event;
    Layer layer;
    NodeId node;
    std::uint64_t uid;
    std::string_view type;  ///< interned; e.g. "cbr", "aodv-rreq"
    std::size_t bytes;
  };

  void record(SimTime time, Event event, Layer layer, NodeId node,
              std::uint64_t uid, std::string_view type, std::size_t bytes);

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// Entry-count cap; records past it are dropped (and counted).
  std::size_t max_entries() const noexcept { return max_entries_; }
  void set_max_entries(std::size_t cap) noexcept { max_entries_ = cap; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Mirrors every record into `sink` as an instant trace event
  /// (category = layer name, tid = node). nullptr detaches.
  void set_trace_sink(obs::ChromeTraceWriter* sink) noexcept {
    trace_sink_ = sink;
  }

  /// Number of entries matching an (event, layer) pair.
  std::size_t count(Event event, Layer layer) const;

  /// ns-2 trace syntax: "<s|r|f|D> <time> _<node>_ <AGT|RTR|MAC> --- <uid>
  /// <type> <bytes>".
  void write_ns2(std::ostream& out) const;

  static char event_code(Event event) noexcept;
  static const char* layer_name(Layer layer) noexcept;

 private:
  std::vector<Entry> entries_;
  std::size_t max_entries_ = kDefaultMaxEntries;
  std::uint64_t dropped_ = 0;
  obs::ChromeTraceWriter* trace_sink_ = nullptr;
};

}  // namespace cavenet::netsim

#endif  // CAVENET_NETSIM_PACKET_LOG_H
