// Radix-2 fast Fourier transform.
//
// The paper's SRD/LRD diagnostics (Fig. 7 periodograms) require spectral
// estimates; this is a dependency-free iterative Cooley-Tukey FFT.
#ifndef CAVENET_ANALYSIS_FFT_H
#define CAVENET_ANALYSIS_FFT_H

#include <complex>
#include <span>

namespace cavenet::analysis {

/// True iff n is a power of two (and nonzero).
constexpr bool is_power_of_two(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n (n >= 1).
std::size_t next_power_of_two(std::size_t n) noexcept;

/// In-place forward FFT. data.size() must be a power of two.
void fft_in_place(std::span<std::complex<double>> data);

/// In-place inverse FFT (includes the 1/N scaling).
void ifft_in_place(std::span<std::complex<double>> data);

}  // namespace cavenet::analysis

#endif  // CAVENET_ANALYSIS_FFT_H
