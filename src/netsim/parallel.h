// The kernel's one locality knob (docs/SCALING.md "Sharding").
//
// ParallelConfig is the single value behind TableIConfig::parallel and
// the spec's `engine.parallel` block. `shards` and `epoch_s` shape the
// channel's strip partition (phy::ShardPlan). A run is single-threaded
// whatever the config says (docs/SCALING.md "Threading"); `threads` is
// parsed and validated but has no effect. Every combination is a pure
// performance setting: results are byte-identical at any shard count,
// which the shard-equivalence suite and the golden kernel fixture
// enforce.
#ifndef CAVENET_NETSIM_PARALLEL_H
#define CAVENET_NETSIM_PARALLEL_H

#include <stdexcept>

namespace cavenet::netsim {

struct ParallelConfig {
  /// Spatial strips for the channel's candidate search: the world is
  /// partitioned into up to this many strips, each with its own position
  /// snapshot and grid (docs/SCALING.md "Sharding"). The event queue
  /// stays one queue at any value.
  int shards = 1;
  /// Has no effect: a run is single-threaded. Kept so existing specs and
  /// callers that set it stay valid.
  int threads = 1;
  /// Strip rebucket period in simulation seconds: strip membership is
  /// rebuilt from fresh positions once this much simulation time has
  /// passed since the last rebucket.
  double epoch_s = 1.0;

  /// Throws std::invalid_argument on out-of-range values; returns *this
  /// so call sites can validate inline.
  const ParallelConfig& validate() const {
    if (shards < 1) {
      throw std::invalid_argument("parallel: shards must be >= 1");
    }
    if (!(epoch_s > 0.0)) {
      throw std::invalid_argument("parallel: epoch_s must be > 0");
    }
    return *this;
  }
};

}  // namespace cavenet::netsim

#endif  // CAVENET_NETSIM_PARALLEL_H
