// Canonical text of a run's outcome for the byte-pin gates: every
// SenderRunResult field, doubles as exact hexfloats, so any drifted bit
// changes the text and its FNV-1a digest.
#ifndef CAVENET_TESTS_SCENARIO_RUN_DUMP_H
#define CAVENET_TESTS_SCENARIO_RUN_DUMP_H

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

#include "scenario/table1.h"

namespace cavenet::scenario::test {

inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// One line per SenderRunResult field; the goodput series as the hash of
/// its hexfloats.
inline std::string dump_result(const SenderRunResult& r) {
  std::ostringstream goodput;
  for (const double v : r.goodput_bps) goodput << hex_double(v) << ' ';

  std::ostringstream out;
  out << "tx_packets " << r.tx_packets << '\n'
      << "rx_packets " << r.rx_packets << '\n'
      << "pdr " << hex_double(r.pdr) << '\n'
      << "mean_delay_s " << hex_double(r.mean_delay_s) << '\n'
      << "max_delay_s " << hex_double(r.max_delay_s) << '\n'
      << "first_delivery_delay_s " << hex_double(r.first_delivery_delay_s)
      << '\n'
      << "mean_hop_count " << hex_double(r.mean_hop_count) << '\n'
      << "goodput_hash " << fnv1a(goodput.str()) << '\n'
      << "control_packets " << r.control_packets << '\n'
      << "control_bytes " << r.control_bytes << '\n'
      << "route_discoveries " << r.route_discoveries << '\n'
      << "mac_collisions " << r.mac_collisions << '\n'
      << "mac_retries " << r.mac_retries << '\n'
      << "mac_tx_failed " << r.mac_tx_failed << '\n'
      << "events_dispatched " << r.events_dispatched << '\n'
      << "channel_utilization " << hex_double(r.channel_utilization) << '\n';
  return out.str();
}

}  // namespace cavenet::scenario::test

#endif  // CAVENET_TESTS_SCENARIO_RUN_DUMP_H
