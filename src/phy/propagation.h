// Radio propagation models.
//
// Table I of the paper uses Two-Ray Ground; the free-space and log-normal
// shadowing models cover the paper's future-work references [18, 19] and
// the propagation-model ablation bench.
//
// Default radio constants reproduce the ns-2 Lucent WaveLAN profile the
// paper's setup relies on: 914 MHz, 281.8 mW transmit power, 1.5 m antenna
// height, RX threshold placed exactly at 250 m and carrier-sense threshold
// at 550 m under two-ray ground.
#ifndef CAVENET_PHY_PROPAGATION_H
#define CAVENET_PHY_PROPAGATION_H

#include <memory>
#include <optional>

#include "util/rng.h"
#include "util/vec2.h"

namespace cavenet::phy {

/// Antenna/system constants shared by the models.
struct RadioConstants {
  double frequency_hz = 914e6;
  double antenna_gain_tx = 1.0;
  double antenna_gain_rx = 1.0;
  double antenna_height_m = 1.5;
  double system_loss = 1.0;

  double wavelength_m() const noexcept;
};

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Received power in Watts for a transmission of `tx_power_w` from `tx`
  /// to `rx`. Stochastic models draw from their own RNG stream.
  virtual double rx_power_w(double tx_power_w, Vec2 tx, Vec2 rx) = 0;

  /// Conservative upper bound on the distance at which a transmission of
  /// `tx_power_w` can still arrive with at least `min_power_w`: beyond the
  /// returned distance, rx_power_w() is guaranteed below `min_power_w`.
  /// The bound is deliberately padded (a fraction of a percent) so that a
  /// caller culling receivers by distance never disagrees with the exact
  /// power comparison at the boundary. Returns nullopt when the model
  /// cannot bound its range (stochastic models: a lucky shadowing or
  /// fading draw can carry any distance) — callers must then fall back to
  /// evaluating every receiver.
  virtual std::optional<double> max_range_m(double tx_power_w,
                                            double min_power_w) const {
    (void)tx_power_w;
    (void)min_power_w;
    return std::nullopt;
  }
};

/// Friis free-space: Pr = Pt Gt Gr lambda^2 / ((4 pi d)^2 L).
class FreeSpaceModel final : public PropagationModel {
 public:
  explicit FreeSpaceModel(RadioConstants constants = {});
  double rx_power_w(double tx_power_w, Vec2 tx, Vec2 rx) override;
  std::optional<double> max_range_m(double tx_power_w,
                                    double min_power_w) const override;

 private:
  RadioConstants constants_;
};

/// ns-2 style two-ray ground: free-space below the crossover distance
/// dc = 4 pi ht hr / lambda, and Pr = Pt Gt Gr ht^2 hr^2 / (d^4 L) above.
class TwoRayGroundModel final : public PropagationModel {
 public:
  explicit TwoRayGroundModel(RadioConstants constants = {});
  double rx_power_w(double tx_power_w, Vec2 tx, Vec2 rx) override;
  std::optional<double> max_range_m(double tx_power_w,
                                    double min_power_w) const override;

  double crossover_distance_m() const noexcept { return crossover_m_; }

 private:
  RadioConstants constants_;
  double crossover_m_;
};

/// Log-normal shadowing: mean path loss with exponent `beta` relative to a
/// reference distance, plus a zero-mean Gaussian (sigma dB) per query.
class ShadowingModel final : public PropagationModel {
 public:
  ShadowingModel(double path_loss_exponent, double sigma_db, Rng rng,
                 double reference_distance_m = 1.0,
                 RadioConstants constants = {});
  double rx_power_w(double tx_power_w, Vec2 tx, Vec2 rx) override;

 private:
  RadioConstants constants_;
  double beta_;
  double sigma_db_;
  double d0_m_;
  double pr0_factor_;  ///< free-space gain at d0 for unit Pt
  Rng rng_;
};

/// Rayleigh fast fading stacked on a base path-loss model: the received
/// power is multiplied by an exponentially distributed unit-mean factor
/// per reception (non-line-of-sight multipath; paper future-work ref [19]
/// studies exactly this class of propagation effects in VANETs).
class RayleighFadingModel final : public PropagationModel {
 public:
  RayleighFadingModel(std::unique_ptr<PropagationModel> base, Rng rng);
  double rx_power_w(double tx_power_w, Vec2 tx, Vec2 rx) override;

 private:
  std::unique_ptr<PropagationModel> base_;
  Rng rng_;
};

/// The ns-2 WaveLAN defaults used throughout the Table-I experiments.
struct WaveLanProfile {
  double tx_power_w = 0.28183815;
  /// Receive threshold: frames below this power are undecodable.
  /// 3.652e-10 W = two-ray ground power at exactly 250 m.
  double rx_threshold_w = 3.652e-10;
  /// Carrier-sense threshold: energy above this makes the medium busy.
  /// 1.559e-11 W = two-ray ground power at ~550 m.
  double cs_threshold_w = 1.559e-11;
  /// Capture threshold (ratio): 10 dB.
  double capture_ratio = 10.0;
};

}  // namespace cavenet::phy

#endif  // CAVENET_PHY_PROPAGATION_H
