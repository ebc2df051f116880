// ParallelConfig validation (docs/SCALING.md "Sharding").
#include <stdexcept>

#include <gtest/gtest.h>

#include "netsim/parallel.h"

namespace cavenet::netsim {
namespace {

TEST(ParallelConfigTest, ValidateRejectsOutOfRangeValues) {
  EXPECT_THROW(ParallelConfig{.shards = 0}.validate(), std::invalid_argument);
  EXPECT_THROW((ParallelConfig{.shards = 1, .threads = 1, .epoch_s = 0.0}
                    .validate()),
               std::invalid_argument);
  EXPECT_NO_THROW((ParallelConfig{.shards = 4, .threads = 0, .epoch_s = 0.5}
                       .validate()));
}

}  // namespace
}  // namespace cavenet::netsim
