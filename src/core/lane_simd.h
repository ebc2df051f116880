// Vectorized primitives for the SoA NaS stepping kernel.
//
// Each primitive is a pure array transformation with a well-defined
// scalar meaning; the .cpp provides a portable scalar implementation
// (written so the autovectorizer can fold it) and, on x86-64, an
// explicit AVX2 path selected once at startup via cpuid — never by
// compiling the whole library for a wider ISA, so the binary still runs
// on machines without AVX2.
//
// Every primitive is exact integer arithmetic: the SIMD and scalar
// paths produce bit-identical outputs, which the SoA-vs-reference
// equivalence harness (tests/core/nas_soa_equivalence_test.cpp) and the
// fig4-fig7 golden CSVs rely on.
#ifndef CAVENET_CORE_LANE_SIMD_H
#define CAVENET_CORE_LANE_SIMD_H

#include <cstddef>
#include <cstdint>

namespace cavenet::ca::simd {

/// Shifted-difference gap pass: gap[i] = cell[i+1] - cell[i] - 1 for
/// i in [0, n-1). gap[n-1] is left untouched (the caller patches the
/// boundary tails). No-op for n < 2.
void gap_shifted_diff(const std::int64_t* cell, std::int64_t* gap,
                      std::size_t n) noexcept;

/// Branch-free velocity pass over [0, n):
///   v[i] = min(min(v[i] + 1, v_max), clamp32(gap[i]))
/// where clamp32 saturates the int64 gap into int32 range (gaps are
/// >= 0 after the gap pass; a gap beyond v_max never binds).
void velocity_min_clamp(std::int32_t* velocity, const std::int64_t* gap,
                        std::int32_t v_max, std::size_t n) noexcept;

/// Fused gap + velocity pass over the interior [0, n-1): computes
/// gap[i] = cell[i+1] - cell[i] - 1 and immediately applies
/// velocity[i] = min(min(velocity[i] + 1, v_max), clamp32(gap[i])) —
/// one traversal instead of gap_shifted_diff + velocity_min_clamp re-
/// reading the gap array. Entry n-1 (and any boundary-patch site, whose
/// raw diff is wrong) is left for the caller to patch and re-clamp.
/// No-op for n < 2.
void gap_clamp(const std::int64_t* cell, std::int64_t* gap,
               std::int32_t* velocity, std::int32_t v_max,
               std::size_t n) noexcept;

/// Motion pass over [0, n): cell[i] += velocity[i]. Wrap handling stays
/// with the caller (wrapped vehicles form a contiguous site-order
/// suffix, fixed up in O(wrapped)).
void advance_cells(std::int64_t* cell, const std::int32_t* velocity,
                   std::size_t n) noexcept;

/// Sum of velocity[0..n) as a 64-bit integer (exact; feeds
/// average_velocity, whose double result is bit-identical to the
/// sequential double accumulation because every partial sum of small
/// ints is exactly representable).
std::int64_t sum_velocity(const std::int32_t* velocity,
                          std::size_t n) noexcept;

/// Left-packs the indices i in [begin, end) with velocity[i] > 0 into
/// `out`, in ascending order; returns how many were written. The AVX2
/// path stores 8-wide at the write cursor, so `out` must have room for
/// end - begin entries even when fewer movers exist — the slack is
/// scratch that the next 8-wide store overwrites. Separating the movers
/// first lets the slowdown pass draw unconditionally: the serial RNG
/// dependency chain then runs without the branch mispredictions a
/// jammed lane's random stopped vehicles otherwise cause.
std::size_t compress_moving(const std::int32_t* velocity, std::size_t begin,
                            std::size_t end, std::uint32_t* out) noexcept;

}  // namespace cavenet::ca::simd

#endif  // CAVENET_CORE_LANE_SIMD_H
