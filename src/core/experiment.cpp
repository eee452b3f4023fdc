#include "core/experiment.hpp"

#include <cassert>

#include "common/math.hpp"
#include "common/parallel.hpp"

namespace odin::core {

ou::MappedModel Setup::make_mapped(dnn::DnnModel model,
                                   int crossbar_size) const {
  const int c = crossbar_size > 0 ? crossbar_size : pim.tile.crossbar_size;
  return ou::MappedModel(dnn::prune_model(std::move(model), prune_seed), c);
}

std::vector<double> run_schedule(const HorizonConfig& horizon) {
  assert(horizon.runs >= 2);
  return common::logspace(horizon.t_start_s, horizon.t_end_s,
                          static_cast<std::size_t>(horizon.runs));
}

std::vector<double> make_schedule(ScheduleKind kind,
                                  const HorizonConfig& horizon,
                                  std::uint64_t seed) {
  assert(horizon.runs >= 2);
  const auto n = static_cast<std::size_t>(horizon.runs);
  switch (kind) {
    case ScheduleKind::kLogUniform:
      return run_schedule(horizon);
    case ScheduleKind::kUniform: {
      std::vector<double> out(n);
      const double step =
          (horizon.t_end_s - horizon.t_start_s) / static_cast<double>(n - 1);
      for (std::size_t i = 0; i < n; ++i)
        out[i] = horizon.t_start_s + step * static_cast<double>(i);
      return out;
    }
    case ScheduleKind::kPoisson: {
      // Exponential inter-arrivals at the uniform mean rate, clamped to the
      // horizon; deterministic given the seed.
      common::Rng rng(seed);
      const double mean_gap =
          (horizon.t_end_s - horizon.t_start_s) / static_cast<double>(n);
      std::vector<double> out;
      out.reserve(n);
      double t = horizon.t_start_s;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(std::min(t, horizon.t_end_s));
        double u = rng.uniform();
        while (u <= 0.0) u = rng.uniform();
        t += -mean_gap * std::log(u);
      }
      return out;
    }
  }
  return run_schedule(horizon);
}

AggregateResult simulate_homogeneous(
    const ou::MappedModel& model, const ou::NonIdealityModel& nonideal,
    const ou::OuCostModel& cost, ou::OuConfig config,
    const HorizonConfig& horizon, common::EnergyLatency per_run_extra,
    bool reprogram_enabled, reram::FaultInjector* faults) {
  HomogeneousRunner runner(model, nonideal, cost, config, reprogram_enabled,
                           faults);
  AggregateResult agg;
  agg.label = config.to_string();
  for (double t : run_schedule(horizon)) {
    const BaselineRunResult run = runner.run_inference(t);
    agg.inference += run.inference + per_run_extra;
    agg.reprogram += run.reprogram;
    ++agg.runs;
  }
  agg.reprograms = runner.reprogram_count();
  return agg;
}

std::vector<AggregateResult> simulate_homogeneous_sweep(
    const ou::MappedModel& model, const ou::NonIdealityModel& nonideal,
    const ou::OuCostModel& cost, std::span<const ou::OuConfig> configs,
    const HorizonConfig& horizon, common::EnergyLatency per_run_extra,
    bool reprogram_enabled) {
  return common::parallel_transform(configs.size(), 1, [&](std::size_t i) {
    return simulate_homogeneous(model, nonideal, cost, configs[i], horizon,
                                per_run_extra, reprogram_enabled);
  });
}

AggregateResult simulate_odin(OdinController& controller,
                              const HorizonConfig& horizon,
                              common::EnergyLatency per_run_extra,
                              const arch::OverheadModel* overhead) {
  AggregateResult agg;
  agg.label = "Odin";
  for (double t : run_schedule(horizon)) {
    const RunResult run = controller.run_inference(t);
    common::EnergyLatency inf = run.inference + per_run_extra;
    if (overhead != nullptr) {
      inf.energy_j += overhead->prediction_energy_j(run.inference.latency_s);
      inf.latency_s +=
          overhead->prediction_latency_s(run.inference.latency_s);
    }
    agg.inference += inf;
    agg.reprogram += run.reprogram;
    agg.mismatches += run.mismatches;
    agg.searches_skipped += run.searches_skipped;
    agg.program_retries += run.program_retries;
    agg.degraded_runs += run.degraded ? 1 : 0;
    ++agg.runs;
  }
  agg.reprograms = controller.reprogram_count();
  agg.policy_updates = controller.update_count();
  agg.updates_rejected = controller.updates_rejected();
  agg.updates_rolled_back = controller.updates_rolled_back();
  agg.buffer_dropped = static_cast<long long>(controller.buffer_dropped());
  agg.buffer_quarantined =
      static_cast<long long>(controller.buffer_quarantined());
  if (overhead != nullptr)
    agg.inference.energy_j +=
        overhead->total_update_energy_j(agg.policy_updates);
  return agg;
}

policy::OuPolicy offline_policy_excluding(
    const Setup& setup, dnn::Family excluded, int crossbar_size,
    const policy::OfflineTrainConfig& config) {
  const int c =
      crossbar_size > 0 ? crossbar_size : setup.pim.tile.crossbar_size;
  std::vector<std::unique_ptr<ou::MappedModel>> known;
  for (dnn::DnnModel& model : dnn::paper_workloads()) {
    if (model.family == excluded) continue;
    known.push_back(std::make_unique<ou::MappedModel>(
        setup.make_mapped(std::move(model), c)));
  }
  std::vector<const ou::MappedModel*> ptrs;
  ptrs.reserve(known.size());
  for (const auto& m : known) ptrs.push_back(m.get());

  const ou::NonIdealityModel nonideal = setup.make_nonideality(c);
  const ou::OuCostModel cost = setup.make_cost();
  const ou::OuLevelGrid grid(c);
  return policy::train_offline_policy(ptrs, nonideal, cost, grid, config);
}

}  // namespace odin::core
