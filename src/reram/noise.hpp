// Stochastic non-ideality sources layered on top of the deterministic
// device model: programming (write) variation, read (thermal/shot) noise and
// cell-to-cell drift-coefficient variation. Used by the crossbar MVM path
// and by the Monte-Carlo accuracy evaluator.
#pragma once

#include "common/rng.hpp"
#include "reram/device.hpp"

namespace odin::reram {

/// Magnitudes follow the ReRAM variability literature (e.g. PytorX-style
/// noise injection): programming error is a few percent of the programmed
/// conductance, read noise well under a percent per access, and the drift
/// exponent itself varies cell to cell.
struct NoiseParams {
  double program_sigma = 0.02;  ///< rel. std-dev of programmed conductance
  double read_sigma = 0.003;    ///< rel. std-dev per analog read
  double drift_coeff_sigma = 0.10;  ///< rel. std-dev of the drift exponent v
  /// Stuck-at-fault rates: cells permanently stuck at G_ON (stuck-on,
  /// typically from over-forming) or G_OFF (stuck-off, broken filament).
  /// Sampled once per cell at programming time; writes cannot fix them.
  double stuck_on_rate = 0.0;
  double stuck_off_rate = 0.0;
};

/// Outcome of the per-cell fault lottery.
enum class CellFault { kNone, kStuckOn, kStuckOff };

class NoiseModel {
 public:
  NoiseModel(NoiseParams params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  /// Conductance actually stored after a write targeting `target_s`.
  double programmed(double target_s) noexcept {
    return clamp_positive(target_s *
                          (1.0 + params_.program_sigma * rng_.normal()));
  }

  /// One analog read of a cell currently at `stored_s`.
  double read(double stored_s) noexcept {
    return clamp_positive(stored_s *
                          (1.0 + params_.read_sigma * rng_.normal()));
  }

  /// Per-cell drift coefficient, jittered around the device nominal.
  double cell_drift_coefficient(const DeviceParams& dev) noexcept {
    const double v =
        dev.drift_coefficient *
        (1.0 + params_.drift_coeff_sigma * rng_.normal());
    return v > 0.0 ? v : dev.drift_coefficient;
  }

  /// Sample the permanent fault state of a cell.
  CellFault cell_fault() noexcept {
    const double u = rng_.uniform();
    if (u < params_.stuck_on_rate) return CellFault::kStuckOn;
    if (u < params_.stuck_on_rate + params_.stuck_off_rate)
      return CellFault::kStuckOff;
    return CellFault::kNone;
  }

  const NoiseParams& params() const noexcept { return params_; }

 private:
  static double clamp_positive(double g) noexcept { return g > 0.0 ? g : 0.0; }

  NoiseParams params_;
  common::Rng rng_;
};

}  // namespace odin::reram
