#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace cavenet {

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  stream_key_ = SplitMix64(seed ^ 0x6a09e667f3bcc909ULL).next();
}

Rng::Rng(std::uint64_t master_seed, std::uint64_t stream_id) noexcept
    : Rng(master_seed) {
  // Mix the stream id into the state, then decorrelate with a jump. This is
  // cheaper than stream_id sequential jumps and still gives independent
  // streams because SplitMix64 output is equidistributed.
  SplitMix64 sm(stream_id ^ 0xa3ec647659359acdULL);
  for (auto& word : s_) word ^= sm.next();
  jump();
  stream_key_ ^= SplitMix64(stream_id ^ 0xbb67ae8584caa73bULL).next();
}

Rng Rng::substream(std::uint64_t child_id) const noexcept {
  // The child is an ordinary (master, stream) generator keyed on this
  // stream's construction-time key: independent of the parent's current
  // state, and the child's own stream_key_ re-mixes (key, child_id), so
  // grandchildren are distinct from children.
  return Rng(stream_key_, child_id);
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(uniform_int(span));
}


double Rng::exponential(double lambda) noexcept {
  // -log(1 - U) is exponential(1); 1 - U avoids log(0).
  return -std::log1p(-uniform()) / lambda;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::array<std::uint64_t, 4> Rng::jump_state(
    const std::array<std::uint64_t, 4>& state) noexcept {
  using State = std::array<std::uint64_t, 4>;
  using Table = std::array<std::array<State, 16>, 64>;
  // Campaign workers construct streams concurrently; a function-local
  // static is initialized exactly once, whichever thread gets here first.
  static const Table table = [] {
    // The jump by its definition (xoshiro256** 1.0's long-jump
    // polynomial): 256 steps, accumulating the state at each set bit.
    const auto bitwise_jump = [](State s) {
      static constexpr std::uint64_t kJump[] = {
          0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
          0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
      State acc{};
      for (const std::uint64_t word : kJump) {
        for (int bit = 0; bit < 64; ++bit) {
          if (word & (1ULL << bit)) {
            for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= s[i];
          }
          step_(s);
        }
      }
      return acc;
    };
    Table t{};
    for (std::size_t nibble = 0; nibble < 64; ++nibble) {
      for (unsigned value = 1; value < 16; ++value) {
        State fragment{};
        fragment[nibble / 16] = std::uint64_t{value} << (4 * (nibble % 16));
        t[nibble][value] = bitwise_jump(fragment);
      }
    }
    return t;
  }();

  State acc{};
  for (std::size_t nibble = 0; nibble < 64; ++nibble) {
    const std::size_t value = (state[nibble / 16] >> (4 * (nibble % 16))) & 0xF;
    const State& image = table[nibble][value];
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= image[i];
  }
  return acc;
}

}  // namespace cavenet
