// Experiment driver: shared setup and horizon simulation for the paper's
// evaluation (Figs. 3-9). Benches and examples build on these helpers so
// every table is produced from one consistent configuration.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/overhead.hpp"
#include "arch/system.hpp"
#include "core/baselines.hpp"
#include "core/odin.hpp"
#include "dnn/zoo.hpp"
#include "policy/offline.hpp"

namespace odin::core {

/// One consistent instantiation of every model/parameter set (Tables I-II
/// plus DESIGN.md §4 calibration). Benches construct exactly one.
struct Setup {
  reram::DeviceParams device{};
  ou::NonIdealityParams nonideality_params{};
  ou::CostParams cost_params{};
  arch::PimConfig pim{};
  arch::OverheadParams overhead_params{};
  std::uint64_t prune_seed = 0x0d1e5eed;

  /// `crossbar_size` scales Eq. 4's wire length (0 = the tile's native).
  ou::NonIdealityModel make_nonideality(int crossbar_size = 0) const {
    return ou::NonIdealityModel(
        device, nonideality_params,
        crossbar_size > 0 ? crossbar_size : pim.tile.crossbar_size);
  }
  ou::OuCostModel make_cost() const {
    return ou::OuCostModel(cost_params, device);
  }
  arch::SystemModel make_system() const { return arch::SystemModel(pim); }
  arch::OverheadModel make_overhead() const {
    return arch::OverheadModel(overhead_params, pim);
  }

  /// Prune + map a workload at `crossbar_size` (0 = the tile's native 128).
  ou::MappedModel make_mapped(dnn::DnnModel model,
                              int crossbar_size = 0) const;
};

/// The inferencing horizon (paper: t0 = 1 s to 1e8 s) sampled with
/// log-spaced inference runs — drift is a power law in time, so linear
/// schedules would waste the horizon's decades.
struct HorizonConfig {
  double t_start_s = 1.0;
  double t_end_s = 1e8;
  /// Dense enough that the late-horizon run spacing resolves the 16x16
  /// configuration's ~2e6 s reprogramming period.
  int runs = 800;
};

std::vector<double> run_schedule(const HorizonConfig& horizon);

/// Alternative inference-arrival processes for the schedule-sensitivity
/// ablation (bench/ablation_schedules): the paper does not pin down the
/// arrival process, and the EDP totals depend on how much of the traffic
/// lands late in the drift horizon.
enum class ScheduleKind {
  kLogUniform,  ///< constant runs per decade (the default run_schedule)
  kUniform,     ///< constant runs per second — traffic concentrates late
  kPoisson,     ///< memoryless arrivals at the uniform rate
};

std::vector<double> make_schedule(ScheduleKind kind,
                                  const HorizonConfig& horizon,
                                  std::uint64_t seed = 0x5c4ed);

/// Totals over a horizon simulation.
struct AggregateResult {
  std::string label;
  int runs = 0;
  int reprograms = 0;
  int policy_updates = 0;
  int mismatches = 0;
  int searches_skipped = 0;  ///< entropy-gated layers (0 for baselines)
  int program_retries = 0;   ///< extra write-verify attempts (Odin only)
  int degraded_runs = 0;     ///< runs served in degraded mode (Odin only)
  /// Update-guardrail counters (Odin only; zero while the guard is off).
  int updates_rejected = 0;
  int updates_rolled_back = 0;
  long long buffer_dropped = 0;      ///< replay-buffer saturation drops
  long long buffer_quarantined = 0;  ///< entries held in quarantine at end
  common::EnergyLatency inference;  ///< incl. NoC and prediction overhead
  common::EnergyLatency reprogram;

  common::EnergyLatency total() const noexcept {
    return inference + reprogram;
  }
  double inference_edp() const noexcept { return inference.edp(); }
  double total_edp() const noexcept { return total().edp(); }
};

/// Simulate a homogeneous baseline across the horizon. `per_run_extra` is
/// added to every run (NoC activation traffic). `faults` (caller-owned,
/// optional) makes every reprogram advance the device's wear campaign.
AggregateResult simulate_homogeneous(
    const ou::MappedModel& model, const ou::NonIdealityModel& nonideal,
    const ou::OuCostModel& cost, ou::OuConfig config,
    const HorizonConfig& horizon,
    common::EnergyLatency per_run_extra = {}, bool reprogram_enabled = true,
    reram::FaultInjector* faults = nullptr);

/// Simulate several homogeneous baseline arms concurrently (each arm is an
/// independent horizon walk). Results land in `configs` order and are
/// bitwise identical to calling simulate_homogeneous per config.
std::vector<AggregateResult> simulate_homogeneous_sweep(
    const ou::MappedModel& model, const ou::NonIdealityModel& nonideal,
    const ou::OuCostModel& cost, std::span<const ou::OuConfig> configs,
    const HorizonConfig& horizon,
    common::EnergyLatency per_run_extra = {}, bool reprogram_enabled = true);

/// Simulate Odin across the horizon; adds NoC traffic, the prediction
/// power/latency overhead, and the amortized policy-update energy.
AggregateResult simulate_odin(OdinController& controller,
                              const HorizonConfig& horizon,
                              common::EnergyLatency per_run_extra = {},
                              const arch::OverheadModel* overhead = nullptr);

/// Leave-one-family-out offline policy (paper Sec. V-A): bootstraps from
/// every paper workload whose family differs from `excluded`, at the given
/// crossbar size.
policy::OuPolicy offline_policy_excluding(
    const Setup& setup, dnn::Family excluded, int crossbar_size = 0,
    const policy::OfflineTrainConfig& config = {});

}  // namespace odin::core
