#include "phy/propagation.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "util/units.h"

namespace cavenet::phy {

double RadioConstants::wavelength_m() const noexcept {
  return kSpeedOfLight / frequency_hz;
}

namespace {

double friis(double tx_power_w, double d, const RadioConstants& c) {
  const double lambda = c.wavelength_m();
  const double denom = 4.0 * std::numbers::pi * d;
  return tx_power_w * c.antenna_gain_tx * c.antenna_gain_rx * lambda * lambda /
         (denom * denom * c.system_loss);
}

/// Distance at which friis() drops to exactly `min_power_w` (both models'
/// max-range solves reduce to inverting a monotone power law).
double friis_range(double tx_power_w, double min_power_w,
                   const RadioConstants& c) {
  const double lambda = c.wavelength_m();
  return lambda / (4.0 * std::numbers::pi) *
         std::sqrt(tx_power_w * c.antenna_gain_tx * c.antenna_gain_rx /
                   (c.system_loss * min_power_w));
}

/// Safety padding on analytically solved ranges: the cull-by-distance
/// decision must never disagree with the exact power comparison at the
/// boundary, so the bound is inflated well past any floating-point wobble
/// of the closed-form inverse (power at 1.001 d is ~0.4% below threshold
/// under the d^4 law — orders of magnitude beyond rounding error).
constexpr double kRangePad = 1.001;

}  // namespace

FreeSpaceModel::FreeSpaceModel(RadioConstants constants)
    : constants_(constants) {}

double FreeSpaceModel::rx_power_w(double tx_power_w, double d) {
  if (d <= 0.0) return tx_power_w;
  return friis(tx_power_w, d, constants_);
}

std::optional<double> FreeSpaceModel::max_range_m(double tx_power_w,
                                                  double min_power_w) const {
  if (min_power_w <= 0.0 || tx_power_w <= 0.0) return std::nullopt;
  return friis_range(tx_power_w, min_power_w, constants_) * kRangePad;
}

TwoRayGroundModel::TwoRayGroundModel(RadioConstants constants)
    : constants_(constants),
      crossover_m_(4.0 * std::numbers::pi * constants.antenna_height_m *
                   constants.antenna_height_m / constants.wavelength_m()) {}

double TwoRayGroundModel::rx_power_w(double tx_power_w, double d) {
  if (d <= 0.0) return tx_power_w;
  if (d < crossover_m_) return friis(tx_power_w, d, constants_);
  const double h = constants_.antenna_height_m;
  return tx_power_w * constants_.antenna_gain_tx * constants_.antenna_gain_rx *
         h * h * h * h / (d * d * d * d * constants_.system_loss);
}

std::optional<double> TwoRayGroundModel::max_range_m(
    double tx_power_w, double min_power_w) const {
  if (min_power_w <= 0.0 || tx_power_w <= 0.0) return std::nullopt;
  // Received power is continuous and monotonically decreasing across the
  // crossover (the two formulas agree exactly at dc), so invert whichever
  // law covers the solution.
  const double h = constants_.antenna_height_m;
  const double d4 = tx_power_w * constants_.antenna_gain_tx *
                    constants_.antenna_gain_rx * h * h * h * h /
                    (constants_.system_loss * min_power_w);
  const double two_ray_range = std::sqrt(std::sqrt(d4));
  if (two_ray_range >= crossover_m_) return two_ray_range * kRangePad;
  return friis_range(tx_power_w, min_power_w, constants_) * kRangePad;
}

ShadowingModel::ShadowingModel(double path_loss_exponent, double sigma_db,
                               Rng rng, double reference_distance_m,
                               RadioConstants constants)
    : constants_(constants),
      beta_(path_loss_exponent),
      sigma_db_(sigma_db),
      d0_m_(reference_distance_m),
      pr0_factor_(friis(1.0, reference_distance_m, constants)),
      rng_(std::move(rng)) {
  if (path_loss_exponent <= 0.0) {
    throw std::invalid_argument("path loss exponent must be > 0");
  }
  if (sigma_db < 0.0) throw std::invalid_argument("sigma must be >= 0");
  if (reference_distance_m <= 0.0) {
    throw std::invalid_argument("reference distance must be > 0");
  }
}

RayleighFadingModel::RayleighFadingModel(
    std::unique_ptr<PropagationModel> base, Rng rng)
    : base_(std::move(base)), rng_(std::move(rng)) {
  if (!base_) throw std::invalid_argument("fading needs a base model");
}

double RayleighFadingModel::rx_power_w(double tx_power_w,
                                       double distance_m) {
  // |h|^2 with h circularly-symmetric complex Gaussian: Exp(1), unit mean.
  const double fade = rng_.exponential(1.0);
  return base_->rx_power_w(tx_power_w, distance_m) * fade;
}

double ShadowingModel::rx_power_w(double tx_power_w, double distance_m) {
  const double d = std::max(distance_m, d0_m_);
  const double mean_db = ratio_to_db(pr0_factor_ * tx_power_w) -
                         10.0 * beta_ * std::log10(d / d0_m_);
  const double shadow_db = sigma_db_ > 0.0 ? rng_.normal(0.0, sigma_db_) : 0.0;
  return db_to_ratio(mean_db + shadow_db);
}

}  // namespace cavenet::phy
