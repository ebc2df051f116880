#include "obs/intern.h"

#include <mutex>
#include <set>
#include <string>

namespace cavenet::obs {
namespace {

// std::set gives node-stable storage: a std::string's buffer never moves
// once inserted, so handed-out views stay valid as the table grows.
// Heterogeneous lookup (std::less<>) avoids building a std::string on hits.
// The mutex makes interning safe from concurrent ensemble workers; the
// table is tiny and hit mostly at component construction, so contention
// never reaches a packet hot path.
std::mutex table_mutex;

std::set<std::string, std::less<>>& table() {
  static auto* t = new std::set<std::string, std::less<>>();
  return *t;
}

}  // namespace

std::string_view intern(std::string_view s) {
  const std::lock_guard<std::mutex> lock(table_mutex);
  auto& t = table();
  const auto it = t.find(s);
  if (it != t.end()) return *it;
  return *t.emplace(s).first;
}

}  // namespace cavenet::obs
