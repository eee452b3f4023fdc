// Tests for the fault-recovery layer of OdinController: the reprogram
// livelock cap, bounded write-verify retries with latency backoff, the
// guardrailed eta-relaxation, and the serving-level fault counters.
#include <gtest/gtest.h>

#include <cmath>

#include "core/odin.hpp"
#include "core/serving.hpp"
#include "reram/fault_injection.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

struct Fixture {
  ou::MappedModel model = testing::tiny_mapped();
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};

  OdinController controller(OdinConfig cfg = {},
                            reram::FaultInjector* faults = nullptr) {
    return OdinController(model, nonideal, cost,
                          policy::OuPolicy(ou::OuLevelGrid(128)), cfg,
                          faults);
  }
};

/// Endurance so poor one campaign sticks ~13% of cells — far over any
/// recoverable budget (F(1) = 1 - exp(-(1/3)^1.8)).
reram::FaultScheduleParams brutal_wear() {
  reram::FaultScheduleParams p;
  p.endurance.characteristic_cycles = 3.0;
  p.endurance.shape = 1.8;
  return p;
}

/// No wear at all: isolates the write-verify convergence path.
reram::FaultScheduleParams no_wear() {
  reram::FaultScheduleParams p;
  p.endurance.characteristic_cycles = 1e12;
  return p;
}

TEST(FaultRecovery, LivelockCappedAtOneReprogramThenDegraded) {
  Fixture fx;
  reram::FaultInjector faults(brutal_wear(), 17);
  auto ctl = fx.controller({}, &faults);
  EXPECT_FALSE(ctl.run_inference(1.0).degraded);  // healthy early

  // Drift forces a reprogram; the campaign wears ~13% of cells stuck, so
  // the post-program read-verify shows eta unreachable — exactly one
  // attempt, then degraded mode.
  const RunResult run = ctl.run_inference(1e8);
  EXPECT_TRUE(run.reprogrammed);
  EXPECT_TRUE(run.degraded);
  EXPECT_GT(run.fault_fraction, 0.05);
  EXPECT_EQ(ctl.reprogram_count(), 1);

  // The rest of the horizon completes without another reprogram (the old
  // behaviour reprogrammed on every remaining run).
  for (double t : {2e8, 5e8, 1e9, 5e9}) {
    const RunResult later = ctl.run_inference(t);
    EXPECT_FALSE(later.reprogrammed) << "t=" << t;
    EXPECT_TRUE(later.degraded);
    EXPECT_EQ(later.decisions.size(), fx.model.layer_count());
    EXPECT_GT(later.inference.energy_j, 0.0);
  }
  EXPECT_EQ(ctl.reprogram_count(), 1);
  EXPECT_GT(ctl.degraded_run_count(), 0);
}

TEST(FaultRecovery, UnrecoverableDeviceIsNeverReprogrammed) {
  Fixture fx;
  reram::FaultInjector faults(brutal_wear(), 17);
  faults.program_campaign();  // inherited device, already ~13% stuck
  auto ctl = fx.controller({}, &faults);
  // The floor alone exceeds eta at a fresh drift clock: reprogramming
  // cannot help, so not even one attempt is made.
  const RunResult run = ctl.run_inference(1.0);
  EXPECT_FALSE(run.reprogrammed);
  EXPECT_TRUE(run.degraded);
  EXPECT_EQ(ctl.reprogram_count(), 0);
  ctl.run_inference(1e8);
  EXPECT_EQ(ctl.reprogram_count(), 0);
}

TEST(FaultRecovery, RetryExhaustionAccountsBackoffLatency) {
  Fixture fx;
  reram::FaultScheduleParams p = no_wear();
  p.write_fail_rate = 1.0;  // no campaign ever converges
  reram::FaultInjector faults(p, 5);
  auto ctl = fx.controller({}, &faults);

  const RunResult run = ctl.run_inference(1e8);  // drift-forced reprogram
  EXPECT_TRUE(run.reprogrammed);
  EXPECT_TRUE(run.write_verify_failed);
  EXPECT_TRUE(run.degraded);
  // Default policy: 3 attempts -> 2 retries, latency x2 then x4.
  EXPECT_EQ(run.program_retries, 2);
  EXPECT_EQ(ctl.retry_count(), 2);
  EXPECT_EQ(faults.campaigns(), 3);
  const common::EnergyLatency base = ctl.full_reprogram_cost();
  EXPECT_NEAR(run.reprogram.energy_j, 3.0 * base.energy_j,
              1e-9 * base.energy_j);
  EXPECT_NEAR(run.reprogram.latency_s, 7.0 * base.latency_s,
              1e-9 * base.latency_s);
  // Logical reprogram events count once, not per attempt.
  EXPECT_EQ(ctl.reprogram_count(), 1);
  EXPECT_DOUBLE_EQ(run.elapsed_s, fx.nonideal.device().t0_s);
}

TEST(FaultRecovery, RelaxationRestoresFeasibilityUnderLooseGuardrail) {
  Fixture fx;
  OdinConfig cfg;
  cfg.fault.accuracy_floor = 0.0;  // guardrail never binds
  cfg.fault.eta_relax_max = 8.0;
  reram::FaultInjector faults(brutal_wear(), 17);
  faults.program_campaign();  // inherited ~13% floor
  auto ctl = fx.controller(cfg, &faults);
  const RunResult run = ctl.run_inference(1.0);
  EXPECT_TRUE(run.degraded);
  EXPECT_FALSE(run.accuracy_floor_hit);
  EXPECT_GT(run.eta_scale, 1.0);
  EXPECT_LE(run.eta_scale, cfg.fault.eta_relax_max);
  EXPECT_EQ(run.decisions.size(), fx.model.layer_count());
}

TEST(FaultRecovery, DefaultGuardrailCapsRelaxationAndFlagsIt) {
  Fixture fx;
  reram::FaultInjector faults(brutal_wear(), 17);
  faults.program_campaign();  // 13% floor >> what accuracy_floor=0.75 admits
  auto ctl = fx.controller({}, &faults);
  const RunResult run = ctl.run_inference(1.0);
  EXPECT_TRUE(run.degraded);
  EXPECT_TRUE(run.accuracy_floor_hit);
  // Relaxation ratcheted up to the guardrail cap but no further: the cap
  // admits excess 0.02 * (1 - 0.75/0.92) / 0.6 over eta_total.
  EXPECT_LT(run.eta_scale, 1.2);
  // The run still completes on the fallback configuration.
  EXPECT_EQ(run.decisions.size(), fx.model.layer_count());
  EXPECT_GT(run.inference.energy_j, 0.0);
  EXPECT_LT(run.estimated_accuracy, 0.75);  // surrogate reflects the damage
}

TEST(FaultRecovery, NoInjectorKeepsSeedBehaviour) {
  Fixture fx;
  auto ctl = fx.controller();
  const RunResult run = ctl.run_inference(1e8);
  EXPECT_TRUE(run.reprogrammed);
  EXPECT_FALSE(run.degraded);
  EXPECT_FALSE(run.write_verify_failed);
  EXPECT_EQ(run.program_retries, 0);
  EXPECT_DOUBLE_EQ(run.fault_fraction, 0.0);
  EXPECT_DOUBLE_EQ(run.eta_scale, 1.0);
  // Feasible at the fresh clock: the surrogate reports ideal accuracy.
  EXPECT_DOUBLE_EQ(run.estimated_accuracy, 0.92);
  EXPECT_FALSE(ctl.degraded());
}

TEST(FaultRecovery, BaselineThrashesWhereOdinDegrades) {
  Fixture fx;
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e8, .runs = 120};
  // Endurance poor enough that the baseline's own reprogramming pushes the
  // fault floor over eta mid-horizon.
  reram::FaultScheduleParams p;
  p.endurance.characteristic_cycles = 8.0;
  p.endurance.shape = 1.8;

  reram::FaultInjector base_faults(p, 23);
  HomogeneousRunner runner(fx.model, fx.nonideal, fx.cost,
                           ou::OuConfig{.rows = 16, .cols = 16}, true,
                           &base_faults);
  reram::FaultInjector odin_faults(p, 23);
  auto ctl = fx.controller({}, &odin_faults);
  for (double t : run_schedule(horizon)) {
    runner.run_inference(t);
    ctl.run_inference(t);
  }
  // The baseline reprograms into its own fault floor — every campaign makes
  // the next one more certain; Odin stops after at most one wasted attempt.
  EXPECT_GT(runner.reprogram_count(), 20);
  EXPECT_LE(ctl.reprogram_count(), 2);
  EXPECT_TRUE(ctl.degraded());
  EXPECT_GT(base_faults.fault_fraction(), odin_faults.fault_fraction());
}

TEST(FaultRecovery, ServingSurfacesRetryAndDegradedCounters) {
  ou::MappedModel a = testing::tiny_mapped();
  ou::MappedModel b = testing::tiny_mapped(128, 0x51ee7);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  ServingConfig cfg;
  cfg.horizon = {.t_start_s = 1.0, .t_end_s = 1e6, .runs = 48};
  cfg.segments = 4;

  // The first tenant-switch campaign already ruins the shared device, so
  // every controller starts degraded and every run counts as such.
  reram::FaultInjector faults(brutal_wear(), 31);
  const ServingResult result =
      serve_with_odin({&a, &b}, nonideal, cost,
                      policy::OuPolicy(ou::OuLevelGrid(128)), cfg, &faults);
  EXPECT_EQ(result.sum(&TenantStats::degraded_runs),
            result.sum(&TenantStats::runs));
  // Degraded controllers never retry.
  EXPECT_EQ(result.sum(&TenantStats::retries), 0);
  EXPECT_EQ(faults.campaigns(), result.switches);
  for (const TenantStats& t : result.tenants)
    EXPECT_EQ(t.reprograms, 0);

  // The homogeneous path accepts the same injector (sequential walk).
  reram::FaultInjector hfaults(brutal_wear(), 31);
  const ServingResult hom = serve_with_homogeneous(
      {&a, &b}, nonideal, cost, ou::OuConfig{.rows = 8, .cols = 4}, cfg,
      &hfaults);
  // Baselines never degrade.
  EXPECT_EQ(hom.sum(&TenantStats::degraded_runs), 0);
  EXPECT_GT(hfaults.campaigns(), hom.switches);  // they thrash instead
}

}  // namespace
}  // namespace odin::core
