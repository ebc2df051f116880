#include "core/lane_simd.h"

#include <limits>

// The explicit-intrinsics path compiles on every x86-64 GCC/Clang
// toolchain. Functions carry a target("avx2") attribute, so the rest of
// the TU — and the library — is still built for the base ISA; the
// runtime cpuid check picks the path once, which keeps the binary
// portable to machines without AVX2.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CAVENET_LANE_SIMD_AVX2 1
#include <immintrin.h>
#else
#define CAVENET_LANE_SIMD_AVX2 0
#endif

namespace cavenet::ca::simd {
namespace {

constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();

#if CAVENET_LANE_SIMD_AVX2

bool avx2() noexcept {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}

__attribute__((target("avx2"))) void gap_shifted_diff_avx2(
    const std::int64_t* cell, std::int64_t* gap, std::size_t n) noexcept {
  const __m256i ones = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n - 1; i += 4) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell + i));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell + i + 1));
    const __m256i g = _mm256_sub_epi64(_mm256_sub_epi64(hi, lo), ones);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(gap + i), g);
  }
  for (; i + 1 < n; ++i) gap[i] = cell[i + 1] - cell[i] - 1;
}

/// Saturates 4 non-negative int64 gaps into the low half of a __m128i.
__attribute__((target("avx2"))) inline __m128i clamp_pack_4(
    const std::int64_t* gap) noexcept {
  const __m256i cap = _mm256_set1_epi64x(kI32Max);
  __m256i g = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gap));
  const __m256i over = _mm256_cmpgt_epi64(g, cap);
  g = _mm256_blendv_epi8(g, cap, over);
  // Keep the low 32 bits of each 64-bit lane: indices 0,2,4,6.
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(g, perm));
}

__attribute__((target("avx2"))) void velocity_min_clamp_avx2(
    std::int32_t* velocity, const std::int64_t* gap, std::int32_t v_max,
    std::size_t n) noexcept {
  const __m256i vmax = _mm256_set1_epi32(v_max);
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(velocity + i));
    v = _mm256_min_epi32(_mm256_add_epi32(v, one), vmax);
    const __m128i g_lo = clamp_pack_4(gap + i);
    const __m128i g_hi = clamp_pack_4(gap + i + 4);
    const __m256i g = _mm256_set_m128i(g_hi, g_lo);
    v = _mm256_min_epi32(v, g);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(velocity + i), v);
  }
  for (; i < n; ++i) {
    const std::int32_t accel =
        velocity[i] + 1 < v_max ? velocity[i] + 1 : v_max;
    const std::int64_t g = gap[i] < kI32Max ? gap[i] : kI32Max;
    velocity[i] =
        accel < static_cast<std::int32_t>(g) ? accel
                                             : static_cast<std::int32_t>(g);
  }
}

/// Register variant of clamp_pack_4 for gaps already in a vector.
__attribute__((target("avx2"))) inline __m128i clamp_pack_reg(
    __m256i g) noexcept {
  const __m256i cap = _mm256_set1_epi64x(kI32Max);
  const __m256i over = _mm256_cmpgt_epi64(g, cap);
  g = _mm256_blendv_epi8(g, cap, over);
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(g, perm));
}

__attribute__((target("avx2"))) void gap_clamp_avx2(
    const std::int64_t* cell, std::int64_t* gap, std::int32_t* velocity,
    std::int32_t v_max, std::size_t n) noexcept {
  const __m256i ones64 = _mm256_set1_epi64x(1);
  const __m256i vmax = _mm256_set1_epi32(v_max);
  const __m256i one32 = _mm256_set1_epi32(1);
  std::size_t i = 0;
  // 8 vehicles per round; gap[i+7] reads cell[i+8], so the bulk loop
  // stops while i + 8 <= n - 1.
  for (; i + 9 <= n; i += 8) {
    const __m256i lo0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell + i));
    const __m256i hi0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell + i + 1));
    const __m256i g0 = _mm256_sub_epi64(_mm256_sub_epi64(hi0, lo0), ones64);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(gap + i), g0);
    const __m256i lo1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell + i + 4));
    const __m256i hi1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell + i + 5));
    const __m256i g1 = _mm256_sub_epi64(_mm256_sub_epi64(hi1, lo1), ones64);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(gap + i + 4), g1);
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(velocity + i));
    v = _mm256_min_epi32(_mm256_add_epi32(v, one32), vmax);
    const __m256i g =
        _mm256_set_m128i(clamp_pack_reg(g1), clamp_pack_reg(g0));
    v = _mm256_min_epi32(v, g);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(velocity + i), v);
  }
  for (; i + 1 < n; ++i) {
    const std::int64_t g64 = cell[i + 1] - cell[i] - 1;
    gap[i] = g64;
    const std::int32_t accel =
        velocity[i] + 1 < v_max ? velocity[i] + 1 : v_max;
    const std::int64_t g = g64 < kI32Max ? g64 : kI32Max;
    velocity[i] = accel < static_cast<std::int32_t>(g)
                      ? accel
                      : static_cast<std::int32_t>(g);
  }
}

__attribute__((target("avx2"))) void advance_cells_avx2(
    std::int64_t* cell, const std::int32_t* velocity,
    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(velocity + i));
    const __m256i v64 = _mm256_cvtepi32_epi64(v32);
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cell + i),
                        _mm256_add_epi64(c, v64));
  }
  for (; i < n; ++i) cell[i] += velocity[i];
}

__attribute__((target("avx2"))) std::int64_t sum_velocity_avx2(
    const std::int32_t* velocity, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(velocity + i));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(velocity + i + 4));
    acc = _mm256_add_epi64(acc, _mm256_cvtepi32_epi64(lo));
    acc = _mm256_add_epi64(acc, _mm256_cvtepi32_epi64(hi));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += velocity[i];
  return sum;
}

/// vpermd left-pack table: entry m lists the set-bit positions of the
/// 8-bit mask m in ascending order (unused lanes are don't-care zeros).
struct CompressTable {
  alignas(32) std::uint32_t perm[256][8];
};

constexpr CompressTable make_compress_table() {
  CompressTable table{};
  for (int mask = 0; mask < 256; ++mask) {
    int k = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if (mask >> bit & 1) {
        table.perm[mask][k++] = static_cast<std::uint32_t>(bit);
      }
    }
  }
  return table;
}

constexpr CompressTable kCompress = make_compress_table();

__attribute__((target("avx2"))) std::size_t compress_moving_avx2(
    const std::int32_t* velocity, std::size_t begin, std::size_t end,
    std::uint32_t* out) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i eight = _mm256_set1_epi32(8);
  __m256i idx =
      _mm256_add_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                       _mm256_set1_epi32(static_cast<int>(begin)));
  std::size_t c = 0;
  std::size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(velocity + i));
    const auto mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(v, zero))));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompress.perm[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c),
                        _mm256_permutevar8x32_epi32(idx, perm));
    c += static_cast<std::size_t>(__builtin_popcount(mask));
    idx = _mm256_add_epi32(idx, eight);
  }
  for (; i < end; ++i) {
    out[c] = static_cast<std::uint32_t>(i);
    c += velocity[i] > 0;
  }
  return c;
}

#endif  // CAVENET_LANE_SIMD_AVX2

}  // namespace

void gap_shifted_diff(const std::int64_t* cell, std::int64_t* gap,
                      std::size_t n) noexcept {
  if (n < 2) return;
#if CAVENET_LANE_SIMD_AVX2
  if (avx2()) {
    gap_shifted_diff_avx2(cell, gap, n);
    return;
  }
#endif
  for (std::size_t i = 0; i + 1 < n; ++i) gap[i] = cell[i + 1] - cell[i] - 1;
}

void velocity_min_clamp(std::int32_t* velocity, const std::int64_t* gap,
                        std::int32_t v_max, std::size_t n) noexcept {
#if CAVENET_LANE_SIMD_AVX2
  if (avx2()) {
    velocity_min_clamp_avx2(velocity, gap, v_max, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t accel =
        velocity[i] + 1 < v_max ? velocity[i] + 1 : v_max;
    const std::int64_t g = gap[i] < kI32Max ? gap[i] : kI32Max;
    velocity[i] = accel < static_cast<std::int32_t>(g)
                      ? accel
                      : static_cast<std::int32_t>(g);
  }
}

void gap_clamp(const std::int64_t* cell, std::int64_t* gap,
               std::int32_t* velocity, std::int32_t v_max,
               std::size_t n) noexcept {
  if (n < 2) return;
#if CAVENET_LANE_SIMD_AVX2
  if (avx2()) {
    gap_clamp_avx2(cell, gap, velocity, v_max, n);
    return;
  }
#endif
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::int64_t g64 = cell[i + 1] - cell[i] - 1;
    gap[i] = g64;
    const std::int32_t accel =
        velocity[i] + 1 < v_max ? velocity[i] + 1 : v_max;
    const std::int64_t g = g64 < kI32Max ? g64 : kI32Max;
    velocity[i] = accel < static_cast<std::int32_t>(g)
                      ? accel
                      : static_cast<std::int32_t>(g);
  }
}

void advance_cells(std::int64_t* cell, const std::int32_t* velocity,
                   std::size_t n) noexcept {
#if CAVENET_LANE_SIMD_AVX2
  if (avx2()) {
    advance_cells_avx2(cell, velocity, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) cell[i] += velocity[i];
}

std::int64_t sum_velocity(const std::int32_t* velocity,
                          std::size_t n) noexcept {
#if CAVENET_LANE_SIMD_AVX2
  if (avx2()) return sum_velocity_avx2(velocity, n);
#endif
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += velocity[i];
  return sum;
}

std::size_t compress_moving(const std::int32_t* velocity, std::size_t begin,
                            std::size_t end, std::uint32_t* out) noexcept {
#if CAVENET_LANE_SIMD_AVX2
  if (avx2()) return compress_moving_avx2(velocity, begin, end, out);
#endif
  std::size_t c = 0;
  for (std::size_t i = begin; i < end; ++i) {
    out[c] = static_cast<std::uint32_t>(i);
    c += velocity[i] > 0;
  }
  return c;
}

}  // namespace cavenet::ca::simd
