#include "util/rng.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cavenet {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsProduceDifferentSequences) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, StreamsAreIndependentAndDeterministic) {
  Rng a(7, 0);
  Rng b(7, 1);
  Rng a2(7, 0);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, a2.next_u64());
    if (va == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(5);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(7)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, 5.0 * std::sqrt(n / 7.0));
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.uniform_int(std::int64_t{-2}, std::int64_t{2});
    ASSERT_GE(x, -2);
    ASSERT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(std::int64_t{5}, std::int64_t{5}), 5);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(9);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialHasCorrectMean) {
  Rng rng(10);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v.begin(), v.end());
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(RngTest, ShuffleActuallyShuffles) {
  Rng rng(14);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  const std::vector<int> original = v;
  rng.shuffle(v.begin(), v.end());
  EXPECT_NE(v, original);
}

TEST(RngTest, JumpDecorrelatesStream) {
  Rng a(15);
  Rng b(15);
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

using State = std::array<std::uint64_t, 4>;

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** 1.0 draw on a raw state.
std::uint64_t reference_next(State& s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// The long jump by its definition: 256 generator steps, accumulating the
/// state at each set bit of the jump polynomial. Rng::jump() serves the
/// same map from a table.
State bitwise_jump(State s) {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  State acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s[i];
      }
      reference_next(s);
    }
  }
  return acc;
}

TEST(RngTest, JumpMatchesBitwiseReference) {
  std::size_t mismatches = 0;
  const auto check = [&](const State& s) {
    if (Rng::jump_state(s) != bitwise_jump(s)) ++mismatches;
  };
  check(State{});
  for (int bit = 0; bit < 256; ++bit) {
    State s{};
    s[bit / 64] = 1ULL << (bit % 64);
    check(s);
  }
  Rng states(20261020);
  for (int i = 0; i < 100'000; ++i) {
    check({states.next_u64(), states.next_u64(), states.next_u64(),
           states.next_u64()});
  }
  EXPECT_EQ(mismatches, 0u);

  // jump() on seeded streams: Rng(seed) starts from four SplitMix64 words,
  // so after a jump it must draw what the jumped reference state draws.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    SplitMix64 sm(seed);
    State s{};
    for (auto& word : s) word = sm.next();
    State jumped = bitwise_jump(s);
    Rng rng(seed);
    rng.jump();
    for (int draw = 0; draw < 4; ++draw) {
      EXPECT_EQ(rng.next_u64(), reference_next(jumped)) << "seed " << seed;
    }
  }
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

// A copied Rng would silently replay its source's stream — the classic
// correlated-replication bug. Copying is deleted; ownership moves.
TEST(RngTest, CopyIsDeletedMoveIsAllowed) {
  static_assert(!std::is_copy_constructible_v<Rng>);
  static_assert(!std::is_copy_assignable_v<Rng>);
  static_assert(std::is_nothrow_move_constructible_v<Rng>);
  static_assert(std::is_nothrow_move_assignable_v<Rng>);
  SUCCEED();
}

TEST(RngTest, MovePreservesTheStream) {
  Rng a(21);
  Rng reference(21);
  a.next_u64();
  reference.next_u64();
  Rng b(std::move(a));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b.next_u64(), reference.next_u64());
}

TEST(RngTest, SubstreamIsDeterministic) {
  const Rng parent(42, 7);
  Rng a = parent.substream(3);
  Rng b = parent.substream(3);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// Substreams are keyed on the parent's construction-time identity, not
// its current state: drawing from the parent first must not change what
// substream(i) yields. This is what makes parallel replication order
// irrelevant.
TEST(RngTest, SubstreamIgnoresParentState) {
  Rng drained(42, 7);
  for (int i = 0; i < 1000; ++i) drained.next_u64();
  const Rng fresh(42, 7);
  Rng a = drained.substream(5);
  Rng b = fresh.substream(5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SubstreamsOfNestedSubstreamsDiffer) {
  const Rng parent(1);
  Rng a = parent.substream(0).substream(1);
  Rng b = parent.substream(1).substream(0);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

// The determinism guarantee of the ensemble runner rests on substreams
// being non-overlapping in practice: 10^6 draws from each of several
// sibling substreams (and the parent itself) share no values at all.
// For full-period xoshiro256** the birthday bound puts the chance of any
// collision among these 4 x 10^6 64-bit draws below 1e-6, so a single
// shared value would flag a stream-splitting defect, not bad luck.
TEST(RngTest, SubstreamsDoNotOverlapInFirstMillionDraws) {
  constexpr std::size_t kDraws = 1'000'000;
  const Rng parent(123, 9);

  const auto draw_sorted = [](Rng rng) {
    std::vector<std::uint64_t> values(kDraws);
    for (auto& v : values) v = rng.next_u64();
    std::sort(values.begin(), values.end());
    return values;
  };

  std::vector<std::vector<std::uint64_t>> streams;
  streams.push_back(draw_sorted(Rng(123, 9)));  // the parent's own stream
  streams.push_back(draw_sorted(parent.substream(0)));
  streams.push_back(draw_sorted(parent.substream(1)));
  streams.push_back(draw_sorted(parent.substream(2)));

  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      std::vector<std::uint64_t> common;
      std::set_intersection(streams[i].begin(), streams[i].end(),
                            streams[j].begin(), streams[j].end(),
                            std::back_inserter(common));
      EXPECT_TRUE(common.empty())
          << "streams " << i << " and " << j << " share " << common.size()
          << " values in their first " << kDraws << " draws";
    }
  }
}

}  // namespace
}  // namespace cavenet
