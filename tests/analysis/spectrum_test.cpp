#include "analysis/spectrum.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/run_dump.h"
#include "util/rng.h"

namespace cavenet::analysis {
namespace {

std::vector<double> sine(std::size_t n, double cycles_per_sample,
                         double amplitude = 1.0) {
  std::vector<double> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    signal[i] = amplitude * std::sin(2.0 * std::numbers::pi *
                                     cycles_per_sample * static_cast<double>(i));
  }
  return signal;
}

TEST(PeriodogramTest, RejectsTooShortSignal) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(periodogram(one), std::invalid_argument);
}

TEST(PeriodogramTest, PeakAtSineFrequency) {
  const double f0 = 0.125;  // cycles per sample
  const auto spec = periodogram(sine(1024, f0));
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < spec.power.size(); ++k) {
    if (spec.power[k] > spec.power[argmax]) argmax = k;
  }
  EXPECT_NEAR(spec.frequency[argmax], f0, 1e-3);
}

TEST(PeriodogramTest, MeanRemovalKillsDcLeakage) {
  std::vector<double> signal = sine(512, 0.1);
  for (double& x : signal) x += 100.0;  // large DC offset
  const auto spec = periodogram(signal);
  // Lowest returned frequency should not dominate the sine peak.
  double peak = 0.0;
  for (const double p : spec.power) peak = std::max(peak, p);
  EXPECT_LT(spec.power.front(), peak * 0.01);
}

TEST(PeriodogramTest, ParsevalForWhiteNoise) {
  Rng rng(1);
  std::vector<double> signal(1024);
  for (double& x : signal) x = rng.normal();
  const auto spec = periodogram(signal);
  // Integrated one-sided PSD ~ signal variance.
  double integral = 0.0;
  const double df = spec.frequency[1] - spec.frequency[0];
  for (const double p : spec.power) integral += p * df;
  EXPECT_NEAR(integral, 1.0, 0.15);
}

// Pins the exact bits fig7's CSV is built from. Length 1000 pads to 1024,
// so the zero-padding path runs.
TEST(PeriodogramTest, OutputIsBitIdenticalToPinnedDigest) {
  using scenario::test::fnv1a;
  using scenario::test::hex_double;
  Rng rng(7);
  std::vector<double> signal = sine(1000, 0.05);
  for (double& x : signal) x += rng.normal();
  const auto spec = periodogram(signal);
  ASSERT_EQ(spec.frequency.size(), 512u);
  ASSERT_EQ(spec.power.size(), 512u);
  std::string text;
  for (std::size_t k = 0; k < spec.frequency.size(); ++k) {
    text += hex_double(spec.frequency[k]) + ' ' + hex_double(spec.power[k]) +
            '\n';
  }
  EXPECT_EQ(fnv1a(text), 16035762471541743071ull)
      << "periodogram output changed";
}

TEST(LowFrequencySlopeTest, DetectsOneOverFNoise) {
  // Synthesize 1/f-ish noise by summing random-phase sinusoids with
  // amplitude ~ 1/sqrt(f).
  Rng rng(4);
  const std::size_t n = 8192;
  std::vector<double> signal(n, 0.0);
  for (int k = 1; k <= 400; ++k) {
    const double f = static_cast<double>(k) / static_cast<double>(n);
    const double amp = 1.0 / std::sqrt(f);
    const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    for (std::size_t i = 0; i < n; ++i) {
      signal[i] +=
          amp * std::sin(2.0 * std::numbers::pi * f * static_cast<double>(i) +
                         phase);
    }
  }
  const auto spec = periodogram(signal);
  const double slope = low_frequency_slope(spec, 0.05);
  EXPECT_LT(slope, -0.5);  // diverges toward f -> 0
}

}  // namespace
}  // namespace cavenet::analysis
