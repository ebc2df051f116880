#include "analysis/fft.h"

#include <numbers>
#include <stdexcept>

namespace cavenet::analysis {

std::size_t next_power_of_two(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

void bit_reverse_permute(std::span<std::complex<double>> data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

void transform(std::span<std::complex<double>> data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("FFT size must be a power of two");
  }
  bit_reverse_permute(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

}  // namespace

void fft_in_place(std::span<std::complex<double>> data) {
  transform(data, /*inverse=*/false);
}

void ifft_in_place(std::span<std::complex<double>> data) {
  transform(data, /*inverse=*/true);
}

}  // namespace cavenet::analysis
