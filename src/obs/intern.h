// Process-wide string interning.
//
// Hot paths (per-packet log records, trace events) tag data with a small
// fixed set of names ("80211-data", "aodv-rreq", ...). Interning turns
// those into std::string_views into stable storage: no per-event heap
// allocation, and equal names share one address, so later comparisons are
// pointer-cheap. Interned strings live for the process lifetime.
#ifndef CAVENET_OBS_INTERN_H
#define CAVENET_OBS_INTERN_H

#include <string_view>

namespace cavenet::obs {

/// Returns a view of `s` backed by the process-lifetime intern table.
/// The first call for a given content copies it; later calls return the
/// same view. The returned view's data() is NUL-terminated.
std::string_view intern(std::string_view s);

}  // namespace cavenet::obs

#endif  // CAVENET_OBS_INTERN_H
