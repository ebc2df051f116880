#include "analysis/spectrum.h"

#include <cmath>
#include <stdexcept>

#include "analysis/fft.h"
#include "analysis/stats.h"

namespace cavenet::analysis {

Spectrum periodogram(std::span<const double> signal) {
  if (signal.size() < 2) throw std::invalid_argument("signal too short");
  const double m = mean(signal);
  const std::size_t n = next_power_of_two(signal.size());
  std::vector<std::complex<double>> data(n);
  for (std::size_t i = 0; i < signal.size(); ++i) data[i] = signal[i] - m;
  fft_in_place(data);
  const double norm = 1.0 / static_cast<double>(signal.size());
  const std::size_t half = n / 2;
  Spectrum out;
  out.frequency.reserve(half);
  out.power.reserve(half);
  for (std::size_t k = 1; k <= half; ++k) {
    out.frequency.push_back(static_cast<double>(k) / static_cast<double>(n));
    // One-sided PSD: double everything except Nyquist.
    out.power.push_back((k == half ? 1.0 : 2.0) * std::norm(data[k]) * norm);
  }
  return out;
}

double low_frequency_slope(const Spectrum& spectrum, double fraction) {
  const auto n = spectrum.frequency.size();
  const auto k = std::max<std::size_t>(3, static_cast<std::size_t>(
                                              static_cast<double>(n) * fraction));
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < std::min(k, n); ++i) {
    if (spectrum.power[i] <= 0.0) continue;
    const double x = std::log10(spectrum.frequency[i]);
    const double y = std::log10(spectrum.power[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++used;
  }
  if (used < 2) return 0.0;
  const auto un = static_cast<double>(used);
  const double denom = un * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (un * sxy - sx * sy) / denom;
}

}  // namespace cavenet::analysis
