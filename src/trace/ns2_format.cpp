#include "trace/ns2_format.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cavenet::trace {
namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

[[noreturn]] void parse_error(std::size_t line_no, const std::string& line,
                              const char* what) {
  std::ostringstream msg;
  msg << "ns-2 trace parse error at line " << line_no << " (" << what
      << "): " << line;
  throw std::runtime_error(msg.str());
}

/// Node ids index a per-node vector, so they are capped at the spec
/// schema's `vehicles` limit: a larger id would wrap `max_node + 1` or
/// size that vector from one hostile line.
constexpr unsigned long kMaxNodes = 1'000'000;

/// Checks one parsed line's node id and numbers, and returns the id.
std::uint32_t checked_node(std::size_t line_no, const std::string& line,
                           unsigned long node,
                           std::initializer_list<double> numbers) {
  if (node >= kMaxNodes) parse_error(line_no, line, "node id >= 1000000");
  for (const double v : numbers) {
    if (!std::isfinite(v)) parse_error(line_no, line, "non-finite number");
  }
  return static_cast<std::uint32_t>(node);
}

}  // namespace

void write_ns2(const MobilityTrace& trace, std::ostream& out) {
  out << "# CAVENET++ ns-2 mobility trace, " << trace.node_count()
      << " nodes\n";
  for (std::uint32_t i = 0; i < trace.node_count(); ++i) {
    const Vec2 p = trace.initial_positions[i];
    out << "$node_(" << i << ") set X_ " << fmt(p.x) << "\n";
    out << "$node_(" << i << ") set Y_ " << fmt(p.y) << "\n";
    out << "$node_(" << i << ") set Z_ 0\n";
  }
  for (const TraceEvent& ev : trace.events) {
    if (ev.kind == TraceEvent::Kind::kSetDest) {
      out << "$ns_ at " << fmt(ev.time_s) << " \"$node_(" << ev.node
          << ") setdest " << fmt(ev.target.x) << " " << fmt(ev.target.y) << " "
          << fmt(ev.speed_ms) << "\"\n";
    } else {
      out << "$ns_ at " << fmt(ev.time_s) << " \"$node_(" << ev.node
          << ") set X_ " << fmt(ev.target.x) << "\"\n";
      out << "$ns_ at " << fmt(ev.time_s) << " \"$node_(" << ev.node
          << ") set Y_ " << fmt(ev.target.y) << "\"\n";
    }
  }
}

bool write_ns2_file(const MobilityTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_ns2(trace, out);
  return static_cast<bool>(out);
}

MobilityTrace read_ns2(std::istream& in) {
  MobilityTrace trace;
  std::map<std::uint32_t, Vec2> initial;
  // Timed "set X_ / set Y_" pairs are merged into one teleport event keyed
  // by (time, node).
  std::map<std::pair<double, std::uint32_t>, TraceEvent> teleports;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;

    unsigned long id = 0;
    double value = 0.0;
    char axis = 0;
    // Initial position: $node_(3) set X_ 1.25
    if (std::sscanf(line.c_str(), "$node_(%lu) set %c_ %lf", &id, &axis,
                    &value) == 3) {
      Vec2& p = initial[checked_node(line_no, line, id, {value})];
      if (axis == 'X') p.x = value;
      else if (axis == 'Y') p.y = value;
      else if (axis != 'Z') parse_error(line_no, line, "unknown axis");
      continue;
    }
    double t = 0.0;
    double x = 0.0, y = 0.0, speed = 0.0;
    // Waypoint: $ns_ at 2 "$node_(3) setdest 130.9 7.5 7.5"
    if (std::sscanf(line.c_str(),
                    "$ns_ at %lf \"$node_(%lu) setdest %lf %lf %lf\"", &t, &id,
                    &x, &y, &speed) == 5) {
      TraceEvent ev;
      ev.time_s = t;
      ev.node = checked_node(line_no, line, id, {t, x, y, speed});
      ev.kind = TraceEvent::Kind::kSetDest;
      ev.target = {x, y};
      ev.speed_ms = speed;
      trace.events.push_back(ev);
      continue;
    }
    // Teleport half: $ns_ at 3 "$node_(3) set X_ 1.0"
    if (std::sscanf(line.c_str(), "$ns_ at %lf \"$node_(%lu) set %c_ %lf\"",
                    &t, &id, &axis, &value) == 4) {
      const std::uint32_t node = checked_node(line_no, line, id, {t, value});
      auto& ev = teleports[{t, node}];
      ev.time_s = t;
      ev.node = node;
      ev.kind = TraceEvent::Kind::kSetPosition;
      if (axis == 'X') ev.target.x = value;
      else if (axis == 'Y') ev.target.y = value;
      else if (axis != 'Z') parse_error(line_no, line, "unknown axis");
      continue;
    }
    parse_error(line_no, line, "unrecognized line");
  }

  std::uint32_t max_node = 0;
  for (const auto& [node, pos] : initial) max_node = std::max(max_node, node);
  for (const auto& ev : trace.events) max_node = std::max(max_node, ev.node);
  for (const auto& [key, ev] : teleports) max_node = std::max(max_node, ev.node);
  if (!initial.empty() || !trace.events.empty() || !teleports.empty()) {
    trace.initial_positions.assign(max_node + 1, Vec2{});
    for (const auto& [node, pos] : initial) trace.initial_positions[node] = pos;
  }
  for (const auto& [key, ev] : teleports) trace.events.push_back(ev);
  trace.normalize();
  return trace;
}

MobilityTrace read_ns2_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_ns2(in);
}

}  // namespace cavenet::trace
