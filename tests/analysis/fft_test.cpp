#include "analysis/fft.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cavenet::analysis {
namespace {

TEST(FftHelpersTest, PowerOfTwoPredicates) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(5), 8u);
  EXPECT_EQ(next_power_of_two(8), 8u);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(3);
  EXPECT_THROW(fft_in_place(data), std::invalid_argument);
}

TEST(FftTest, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> data(8);
  data[0] = 1.0;
  fft_in_place(data);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, ConstantGivesDcOnly) {
  std::vector<std::complex<double>> data(16, 1.0);
  fft_in_place(data);
  EXPECT_NEAR(data[0].real(), 16.0, 1e-12);
  for (std::size_t k = 1; k < 16; ++k) {
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-12);
  }
}

TEST(FftTest, SinePeaksAtItsFrequencyBin) {
  const std::size_t n = 256;
  const std::size_t k0 = 17;
  std::vector<std::complex<double>> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(k0 * i) /
                       static_cast<double>(n));
  }
  fft_in_place(data);
  // |X[k0]| = n/2 for a unit sine; everything else ~0.
  EXPECT_NEAR(std::abs(data[k0]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - k0]), n / 2.0, 1e-9);
  for (std::size_t k = 1; k < n / 2; ++k) {
    if (k != k0) {
      EXPECT_LT(std::abs(data[k]), 1e-9);
    }
  }
}

TEST(FftTest, InverseRoundTrips) {
  Rng rng(1);
  std::vector<std::complex<double>> data(64);
  std::vector<std::complex<double>> original(64);
  for (std::size_t i = 0; i < 64; ++i) {
    data[i] = {rng.normal(), rng.normal()};
    original[i] = data[i];
  }
  fft_in_place(data);
  ifft_in_place(data);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(FftTest, Linearity) {
  Rng rng(2);
  const std::size_t n = 32;
  std::vector<std::complex<double>> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft_in_place(a);
  fft_in_place(b);
  fft_in_place(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(sum[i] - (a[i] + 2.0 * b[i])), 0.0, 1e-9);
  }
}

TEST(FftTest, ParsevalHolds) {
  Rng rng(3);
  const std::size_t n = 128;
  std::vector<std::complex<double>> data(n);
  double time_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = rng.normal();
    time_energy += std::norm(data[i]);
  }
  fft_in_place(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8);
}

// The one-sided PSD in periodogram() relies on this property of a real
// input's spectrum.
TEST(FftRealTest, HermitianSymmetry) {
  Rng rng(4);
  std::vector<std::complex<double>> spectrum(64);
  for (auto& x : spectrum) x = rng.normal();
  fft_in_place(spectrum);
  for (std::size_t k = 1; k < 32; ++k) {
    EXPECT_NEAR(spectrum[k].real(), spectrum[64 - k].real(), 1e-10);
    EXPECT_NEAR(spectrum[k].imag(), -spectrum[64 - k].imag(), 1e-10);
  }
}

}  // namespace
}  // namespace cavenet::analysis
