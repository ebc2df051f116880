// Spectral estimation: the raw periodogram and its low-frequency slope.
//
// Used to reproduce the paper's Fig. 7: the periodogram of the average
// velocity stays bounded at f -> 0 for the deterministic NaS model (SRD)
// and diverges 1/f-like for the stochastic model (LRD).
#ifndef CAVENET_ANALYSIS_SPECTRUM_H
#define CAVENET_ANALYSIS_SPECTRUM_H

#include <span>
#include <vector>

namespace cavenet::analysis {

/// One-sided power spectral density estimate.
struct Spectrum {
  std::vector<double> frequency;  ///< in cycles/sample
  std::vector<double> power;      ///< PSD estimate at each frequency
};

/// Raw periodogram of `signal`: mean removed, rectangular window,
/// zero-padded to the next power of two, one sample per unit time. Only
/// strictly positive frequencies are returned (DC is dropped because the
/// mean was subtracted).
Spectrum periodogram(std::span<const double> signal);

/// Least-squares slope of log10(power) vs log10(frequency) over the lowest
/// `fraction` of the spectrum. A slope near 0 indicates SRD; a slope near
/// -1 indicates 1/f (LRD) behaviour. This is the quantitative form of the
/// paper's "the periodogram diverges at the origin" observation.
double low_frequency_slope(const Spectrum& spectrum, double fraction = 0.1);

}  // namespace cavenet::analysis

#endif  // CAVENET_ANALYSIS_SPECTRUM_H
