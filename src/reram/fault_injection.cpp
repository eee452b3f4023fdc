#include "reram/fault_injection.hpp"

#include <algorithm>
#include <cassert>

namespace odin::reram {

FaultInjector::FaultInjector(FaultScheduleParams params, std::uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
  assert(params_.tracked_cells > 0 && params_.array_lines > 0);
  const EnduranceModel endurance(params_.endurance);
  lifetimes_.reserve(static_cast<std::size_t>(params_.tracked_cells));
  for (int i = 0; i < params_.tracked_cells; ++i)
    lifetimes_.push_back(endurance.sample_lifetime(rng_));
  std::sort(lifetimes_.begin(), lifetimes_.end());
}

double FaultInjector::leveled_campaigns() const noexcept {
  const int spares = params_.leveling.resolved_spare_rows();
  const double spread =
      static_cast<double>(params_.array_lines) /
      static_cast<double>(params_.array_lines + spares);
  return static_cast<double>(campaigns_ - campaign_base_) * spread;
}

bool FaultInjector::program_campaign() {
  ++campaigns_;
  if (params_.leveling.enabled) {
    // Leveled wear: rotation spreads each campaign over array + spare rows,
    // and the spare pool absorbs worn rows before any cell is visibly
    // stuck. Pool exhaustion retires the crossbar in place — the tenant
    // migrates to a fresh array (lifetimes resampled at this deterministic
    // point in the RNG stream, peripheral failures cleared) rather than
    // serving from a dying one.
    writes_leveled_ += params_.array_lines;
    const int spares = params_.leveling.resolved_spare_rows();
    const int worn = static_cast<int>(
        std::upper_bound(lifetimes_.begin(), lifetimes_.end(),
                         leveled_campaigns()) -
        lifetimes_.begin());
    if (worn > spares) {
      ++crossbars_retired_;
      campaign_base_ = campaigns_;
      remapped_now_ = 0;
      stuck_cells_ = 0;
      failed_wl_ = 0;
      failed_bl_ = 0;
      const EnduranceModel endurance(params_.endurance);
      for (double& life : lifetimes_) life = endurance.sample_lifetime(rng_);
      std::sort(lifetimes_.begin(), lifetimes_.end());
    } else {
      remapped_now_ = worn;
      stuck_cells_ = 0;
    }
    // Peripheral drivers and write-verify convergence as below.
    if (params_.wordline_fail_rate > 0.0) {
      const int alive = params_.array_lines - failed_wl_;
      for (int i = 0; i < alive; ++i)
        if (rng_.bernoulli(params_.wordline_fail_rate)) ++failed_wl_;
    }
    if (params_.bitline_fail_rate > 0.0) {
      const int alive = params_.array_lines - failed_bl_;
      for (int i = 0; i < alive; ++i)
        if (rng_.bernoulli(params_.bitline_fail_rate)) ++failed_bl_;
    }
    return !rng_.bernoulli(params_.write_fail_rate);
  }
  // Endurance wear: cells whose sampled lifetime the campaign count has now
  // crossed become permanently stuck.
  stuck_cells_ = static_cast<int>(
      std::upper_bound(lifetimes_.begin(), lifetimes_.end(),
                       static_cast<double>(campaigns_)) -
      lifetimes_.begin());
  // Peripheral drivers: each still-working line survives this campaign's
  // write stress with probability 1 - rate.
  if (params_.wordline_fail_rate > 0.0) {
    const int alive = params_.array_lines - failed_wl_;
    for (int i = 0; i < alive; ++i)
      if (rng_.bernoulli(params_.wordline_fail_rate)) ++failed_wl_;
  }
  if (params_.bitline_fail_rate > 0.0) {
    const int alive = params_.array_lines - failed_bl_;
    for (int i = 0; i < alive; ++i)
      if (rng_.bernoulli(params_.bitline_fail_rate)) ++failed_bl_;
  }
  // Write-verify convergence of the campaign itself.
  return !rng_.bernoulli(params_.write_fail_rate);
}

bool FaultInjector::fast_forward(const WearState& state) {
  if (state.campaigns < campaigns_) return false;
  while (campaigns_ < state.campaigns) program_campaign();
  return campaigns_ == state.campaigns &&
         stuck_cells_ == state.stuck_cells &&
         failed_wl_ == state.failed_wordlines &&
         failed_bl_ == state.failed_bitlines &&
         crossbars_retired_ == state.crossbars_retired;
}

int FaultInjector::rows_remapped() const noexcept {
  if (!params_.leveling.enabled) return 0;
  return crossbars_retired_ * params_.leveling.resolved_spare_rows() +
         remapped_now_;
}

int FaultInjector::spares_remaining() const noexcept {
  if (!params_.leveling.enabled) return 0;
  return params_.leveling.resolved_spare_rows() - remapped_now_;
}

bool FaultInjector::wear_hot() const noexcept {
  if (!params_.leveling.enabled) return false;
  const EnduranceModel endurance(params_.endurance);
  return leveled_campaigns() >=
         params_.leveling.resolved_wear_budget() *
             endurance.cycles_to_failure_budget(1e-3);
}

double FaultInjector::wear_fraction() const noexcept {
  const EnduranceModel endurance(params_.endurance);
  const double budget = endurance.cycles_to_failure_budget(1e-3);
  const double worn = params_.leveling.enabled
                          ? leveled_campaigns()
                          : static_cast<double>(campaigns_);
  return budget > 0.0 ? worn / budget : 0.0;
}

double FaultInjector::stuck_cell_fraction() const noexcept {
  return static_cast<double>(stuck_cells_) /
         static_cast<double>(params_.tracked_cells);
}

double FaultInjector::peripheral_fraction() const noexcept {
  const double wl = static_cast<double>(failed_wl_) /
                    static_cast<double>(params_.array_lines);
  const double bl = static_cast<double>(failed_bl_) /
                    static_cast<double>(params_.array_lines);
  return 1.0 - (1.0 - wl) * (1.0 - bl);
}

double FaultInjector::fault_fraction() const noexcept {
  const double f =
      1.0 - (1.0 - stuck_cell_fraction()) * (1.0 - peripheral_fraction());
  return std::clamp(f, 0.0, 1.0);
}

bool FaultInjector::powered_down(double t_s) const noexcept {
  for (const DriftBurst& w : power_downs_)
    if (t_s >= w.start_s && t_s < w.start_s + w.duration_s) return true;
  return false;
}

double FaultInjector::drift_time_multiplier(double t_s) const noexcept {
  if (powered_down(t_s)) return 0.0;
  double m = 1.0;
  for (const DriftBurst& b : params_.bursts)
    if (t_s >= b.start_s && t_s < b.start_s + b.duration_s)
      m *= std::max(b.multiplier, 1.0);
  return m;
}

}  // namespace odin::reram
