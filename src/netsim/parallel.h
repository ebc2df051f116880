// Retired run-engine settings, kept so existing callers still compile.
//
// ParallelConfig is the value behind TableIConfig::parallel. A run is
// single-threaded (docs/SCALING.md "Threading") and the channel derives
// its own strip count (docs/SCALING.md "Sharding"), so nothing here
// changes a run.
#ifndef CAVENET_NETSIM_PARALLEL_H
#define CAVENET_NETSIM_PARALLEL_H

namespace cavenet::netsim {

struct ParallelConfig {
  /// Has no effect: a run is single-threaded. Kept so existing callers
  /// that set it stay valid.
  int threads = 1;
};

}  // namespace cavenet::netsim

#endif  // CAVENET_NETSIM_PARALLEL_H
