// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component of CAVENET++ draws from its own Rng stream,
// seeded from a master seed plus a stream identifier. Identical seeds
// reproduce identical traffic traces, packet logs and metrics, which the
// test suite relies on.
//
// The generator is xoshiro256** 1.0 (Blackman & Vigna), seeded through
// SplitMix64 as its authors recommend. It is small, fast, and of far
// higher quality than std::minstd_rand while being fully portable across
// standard library implementations (std::mt19937's distributions are not
// bit-reproducible across vendors; ours are hand-rolled and are).
#ifndef CAVENET_UTIL_RNG_H
#define CAVENET_UTIL_RNG_H

#include <array>
#include <cstdint>

namespace cavenet {

/// SplitMix64: used to expand a 64-bit seed into xoshiro256** state.
/// Also usable standalone for cheap hash-like seed derivation.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** pseudo-random generator with reproducible distributions.
///
/// Rng is move-only. Copying a generator would silently give two
/// components the *same* future draws — a correlated-streams bug that is
/// invisible until an ensemble's replications stop being independent. Use
/// substream() to derive an independent child stream instead, or
/// std::move() to transfer ownership of a stream.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator from a single 64-bit value via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9d2c5680u) noexcept;

  /// Derives an independent stream: same master seed + different stream id
  /// gives a statistically independent generator. Deterministic.
  Rng(std::uint64_t master_seed, std::uint64_t stream_id) noexcept;

  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  /// Counter-based child-stream split: substream(i) depends only on the
  /// seed material this generator was constructed with and on `child_id`,
  /// never on how many draws have been made since — so replication i of an
  /// ensemble gets the same stream no matter which worker thread reaches
  /// it first or in what order. Distinct child ids (and distinct parents)
  /// give statistically independent streams; splits nest.
  Rng substream(std::uint64_t child_id) const noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next_u64(); }

  /// Inline: this is the innermost call of every stochastic hot loop
  /// (the NaS slowdown pass draws one per moving vehicle per step), so
  /// the generator must compile to a handful of register ops, not a
  /// cross-TU call.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
    step_(s_);
    return result;
  }

  /// Uniform double in [0, 1): 53 random bits into the mantissa.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_int(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  /// Draw-order contract: consumes exactly one next_u64() draw iff
  /// 0 < p < 1; the clamped ends consume nothing.
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  /// Exponential with rate lambda (> 0); mean 1/lambda.
  double exponential(double lambda) noexcept;
  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Fisher-Yates shuffle of [first, last).
  template <typename It>
  void shuffle(It first, It last) noexcept {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const std::uint64_t j = uniform_int(i);
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

  /// Long-jump equivalent: discards 2^128 draws, for stream separation.
  void jump() noexcept { s_ = jump_state(s_); }

  /// The jump as a map on a raw xoshiro256** state. The jump is linear
  /// over GF(2), so it is served from a table holding the jump of every
  /// nibble value at each of the state's 64 nibble positions (32 KB,
  /// built once from the bitwise definition on first use, thread-safe):
  /// 64 lookups instead of 256 generator steps.
  static std::array<std::uint64_t, 4> jump_state(
      const std::array<std::uint64_t, 4>& state) noexcept;

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  /// xoshiro256**'s state transition: next_u64() without its output.
  static constexpr void step_(std::array<std::uint64_t, 4>& s) noexcept {
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl_(s[3], 45);
  }

  std::array<std::uint64_t, 4> s_{};
  /// Hash of the construction-time seed material, fixed for the stream's
  /// lifetime; substream() keys children off it (counter-based split).
  std::uint64_t stream_key_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cavenet

#endif  // CAVENET_UTIL_RNG_H
