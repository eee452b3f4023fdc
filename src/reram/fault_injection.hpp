// Fault-injection campaigns.
//
// The controller-visible fault surface of a ReRAM deployment has four
// ingredients the drift model alone cannot produce:
//
//  * endurance wear — every whole-array write-verify campaign stresses the
//    cells; with per-cell Weibull lifetimes (reram/endurance) the stuck
//    fraction ratchets up with each campaign and writes cannot undo it,
//  * peripheral failures — wordline/bitline drivers die per campaign,
//    taking a whole line of cells with them,
//  * drift bursts — temporary thermal/voltage events that accelerate the
//    apparent drift clock for a window of wall-clock time,
//  * write-verify non-convergence — a programming campaign that exhausts
//    its pulse budget without reaching tolerance.
//
// FaultInjector schedules all four deterministically from one seed, at the
// analytic granularity OdinController works at (device-global fractions).
// Its fault_fraction() is the measured health signal the recovery policy
// consumes, and it is the only wear model: with leveling on it also runs
// the rotate → remap → retire ladder (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <vector>

#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "reram/endurance.hpp"
#include "reram/wear_leveling.hpp"

namespace odin::reram {

/// One temporary drift acceleration window (e.g. a thermal event): while
/// active, elapsed-since-programming is multiplied by `multiplier` before
/// entering the drift law, so the apparent non-ideality spikes and then
/// returns to the baseline trajectory when the burst ends.
struct DriftBurst {
  double start_s = 0.0;
  double duration_s = 0.0;
  double multiplier = 1.0;  ///< >= 1; 1 is a no-op
};

struct FaultScheduleParams {
  /// Weibull wear model for the tracked-cell population.
  EnduranceParams endurance{};
  /// Size of the virtual cell population whose lifetimes are sampled; sets
  /// the resolution of stuck_cell_fraction (1/tracked_cells).
  int tracked_cells = 4096;
  /// Per-line, per-campaign failure probability of wordline / bitline
  /// peripheral drivers (a failed line disables its whole row / column).
  double wordline_fail_rate = 0.0;
  double bitline_fail_rate = 0.0;
  /// Lines per array dimension (the crossbar size).
  int array_lines = 128;
  /// Probability that one write-verify campaign exhausts its pulse budget
  /// without converging.
  double write_fail_rate = 0.0;
  /// Deterministic drift-burst schedule (wall-clock windows).
  std::vector<DriftBurst> bursts{};
  /// Wear leveling (DESIGN.md §15). When enabled, rotation divides per-cell
  /// wear accrual by (array_lines + spare_rows) / array_lines, the spare
  /// pool absorbs worn rows before they surface as stuck cells, and a
  /// crossbar whose pool is exhausted is retired in place: the tenant
  /// migrates to a fresh array (lifetimes resampled, peripheral failures
  /// cleared) instead of serving from a dying one.
  WearLevelingParams leveling{};
};

/// Deterministic fault schedule along the serving horizon. All randomness
/// flows from the constructor seed; campaigns advance sequentially (the
/// control loop is sequential), so two injectors with equal seeds and equal
/// campaign histories agree bitwise.
class FaultInjector {
 public:
  FaultInjector(FaultScheduleParams params, std::uint64_t seed);

  /// One whole-array write-verify campaign: wears the tracked cells, may
  /// fail peripheral drivers, and reports whether the campaign converged
  /// (false = the pulse budget ran out above tolerance).
  bool program_campaign();

  int campaigns() const noexcept { return campaigns_; }

  /// Run `n` campaigns back-to-back — the correlated write activity of a
  /// fault storm, driven from the scenario trace clock rather than
  /// independent draws. Returns how many failed to converge.
  int program_campaigns(int n) {
    int failed = 0;
    for (int i = 0; i < n; ++i)
      if (!program_campaign()) ++failed;
    return failed;
  }

  /// Append a drift-acceleration window at runtime (the scenario engine
  /// injects storm windows from the trace clock this way). Bursts consume
  /// no randomness, so the (seed, campaign count) replay fingerprint and
  /// fast_forward are unaffected.
  void add_burst(const DriftBurst& burst) { params_.bursts.push_back(burst); }

  /// Mark a power-down window — a cluster mesh outage (core/cluster) seen
  /// from this array: while the window covers `t_s` the device is dark,
  /// powered_down() is true and drift_time_multiplier reports 0 (the drift
  /// clock pauses with the array unpowered; nothing is servable anyway).
  /// Windows consume no randomness — the same replay contract as
  /// add_burst — and are not serialized: the cluster engine re-applies
  /// fired outages from its own cursor on resume.
  void add_power_down(double start_s, double duration_s) {
    power_downs_.push_back(DriftBurst{start_s, duration_s, 0.0});
  }

  /// True while a power-down window covers `t_s`.
  bool powered_down(double t_s) const noexcept;

  /// Fraction of cells stuck from endurance wear after the campaigns so far.
  double stuck_cell_fraction() const noexcept;
  /// Fraction of the array covered by failed wordlines / bitlines.
  double peripheral_fraction() const noexcept;
  /// Combined unusable-cell fraction (independent overlap), in [0, 1].
  double fault_fraction() const noexcept;

  int failed_wordlines() const noexcept { return failed_wl_; }
  int failed_bitlines() const noexcept { return failed_bl_; }

  /// Worn rows absorbed by the spare pool, cumulative across retired
  /// crossbars (0 with leveling off).
  int rows_remapped() const noexcept;
  /// Spare rows left in the current crossbar's pool (0 with leveling off).
  int spares_remaining() const noexcept;
  /// Crossbars retired (pool exhausted, tenant migrated to a fresh array).
  int crossbars_retired() const noexcept { return crossbars_retired_; }
  /// Row writes routed through the leveling layer (array_lines per leveled
  /// campaign).
  long long writes_leveled() const noexcept { return writes_leveled_; }

  /// True when the current crossbar's leveled wear has consumed the wear
  /// budget's share of its projected lifetime — the controller's signal to
  /// defer wear-expensive reprograms when drift allows it.
  bool wear_hot() const noexcept;

  /// Consumed share of the current crossbar's projected lifetime (leveled
  /// campaigns over the 1e-3 failure-budget cycle count), >= 0 and
  /// unclamped — >1 means the array outlived its budget. The fleet
  /// placement uses this to steer tenants toward least-worn shards.
  double wear_fraction() const noexcept;

  /// Elapsed-time multiplier at wall-clock `t_s` (>= 1 while powered; 1
  /// outside bursts). Overlapping bursts compound multiplicatively. Inside
  /// a power-down window the array is dark and the multiplier is 0.
  double drift_time_multiplier(double t_s) const noexcept;

  const FaultScheduleParams& params() const noexcept { return params_; }

  /// Durable wear state for the serving checkpoint. The RNG stream is not
  /// serialized: all randomness is a pure function of (seed, campaign
  /// history), so a freshly seeded injector replays `campaigns` campaigns
  /// to reach the identical state — the counters here double as a
  /// fingerprint that the replay is verified against.
  struct WearState {
    int campaigns = 0;
    int stuck_cells = 0;
    int failed_wordlines = 0;
    int failed_bitlines = 0;
    int crossbars_retired = 0;
  };
  WearState wear_state() const noexcept {
    return {campaigns_, stuck_cells_, failed_wl_, failed_bl_,
            crossbars_retired_};
  }

  /// Replay `state.campaigns` campaigns on this (freshly constructed,
  /// identically seeded) injector and verify the resulting wear matches
  /// the fingerprint. Returns false — leaving the injector mid-replay — on
  /// a mismatch (different seed or schedule than the checkpointed run).
  bool fast_forward(const WearState& state);

 private:
  /// Leveled per-cell wear of the current crossbar, in equivalent
  /// campaigns: rotation spreads campaign writes over array + spare rows.
  double leveled_campaigns() const noexcept;

  FaultScheduleParams params_;
  common::Rng rng_;
  std::vector<double> lifetimes_;  ///< sorted sampled cell lifetimes
  int campaigns_ = 0;
  int stuck_cells_ = 0;
  int failed_wl_ = 0;
  int failed_bl_ = 0;
  // Wear-leveling state (params_.leveling.enabled). All of it is a pure
  // function of (seed, campaign count) — retirement resamples lifetimes
  // from rng_ at a deterministic point — so fast_forward replays it.
  int campaign_base_ = 0;  ///< campaigns_ when the current crossbar started
  int remapped_now_ = 0;   ///< worn rows absorbed in the current crossbar
  int crossbars_retired_ = 0;
  long long writes_leveled_ = 0;
  /// Power-down windows (mesh outages); multiplier field unused.
  std::vector<DriftBurst> power_downs_;
};

/// Wire layout (common/binary_io.hpp) of a campaign shard's wear.
template <typename S, common::MaybeConst<FaultInjector::WearState> W>
void fields(S& s, W& w) {
  s.field(w.campaigns);
  s.field(w.stuck_cells);
  s.field(w.failed_wordlines);
  s.field(w.failed_bitlines);
  s.field(w.crossbars_retired);
}

}  // namespace odin::reram
