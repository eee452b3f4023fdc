// Guarded online policy updates under a drift-burst poisoning campaign
// (the ISSUE's acceptance scenario): a thermal burst inflates the apparent
// drift clock while the replay buffer is filling, so the retrain batch
// teaches the policy burst-era configurations. Unguarded Algorithm 1
// promotes that retrain unconditionally and serves the rest of the horizon
// from a poisoned policy; the guard either rejects the candidate at
// shadow-evaluation or rolls it back after its probation window, then
// quarantines the offending batch.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "reram/fault_injection.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

struct Arms {
  AggregateResult clean;      ///< fault-free, guard off
  AggregateResult unguarded;  ///< burst campaign, guard off
  AggregateResult guarded;    ///< burst campaign, guard on
};

OdinConfig base_config() {
  OdinConfig cfg;
  cfg.buffer_capacity = 10;
  cfg.update_options.epochs = 80;
  // The entropy gate is what turns a poisoned retrain into *persistent*
  // damage: a confidently-wrong policy executes its own predictions
  // without invoking the search, so mismatches are never detected, the
  // buffer never refills, and the loop cannot retrain its way back to
  // health. (Without the gate the very next buffer-full retrain heals the
  // poisoning, and both arms converge to the same EDP.) All three arms —
  // including the fault-free baseline — run with the same gate.
  cfg.entropy_gate = 0.3;
  return cfg;
}

reram::FaultScheduleParams burst_params() {
  reram::FaultScheduleParams p;
  // One intense, bounded thermal event. It spans a few runs of the
  // log-spaced horizon — long enough for the buffer to fill with poisoned
  // labels and trigger a retrain inside the burst, short enough that its
  // direct (guard-independent) reprogramming cost is small against the
  // whole horizon.
  p.bursts = {{1e4, 2e4, 3e2}};
  return p;
}

AggregateResult run_arm(const ou::MappedModel& tenant, bool with_faults,
                        bool with_guard, const HorizonConfig& horizon) {
  const ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                      ou::NonIdealityParams{}};
  const ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  OdinConfig cfg = base_config();
  cfg.guard.enabled = with_guard;
  reram::FaultInjector faults(burst_params(), 0x6a1d);
  OdinController controller(tenant, nonideal, cost,
                            policy::OuPolicy(ou::OuLevelGrid(128)), cfg,
                            with_faults ? &faults : nullptr);
  return simulate_odin(controller, horizon);
}

Arms run_campaign() {
  const auto tenant = testing::tiny_mapped();
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e8,
                              .runs = 160};
  Arms arms;
  arms.clean = run_arm(tenant, false, false, horizon);
  arms.unguarded = run_arm(tenant, true, false, horizon);
  arms.guarded = run_arm(tenant, true, true, horizon);
  return arms;
}

TEST(Guardrails, GuardedServingStaysNearFaultFreeWhileUnguardedRegresses) {
  const Arms arms = run_campaign();
  // The poisoned retrain must hurt the unguarded loop measurably...
  EXPECT_GT(arms.unguarded.total_edp(), arms.clean.total_edp() * 1.05)
      << "burst campaign did not measurably regress the unguarded loop";
  // ...while the guarded loop stays within 5% of the fault-free walk (the
  // ISSUE's acceptance threshold).
  EXPECT_LE(arms.guarded.total_edp(), arms.clean.total_edp() * 1.05)
      << "guarded EDP " << arms.guarded.total_edp() << " vs clean "
      << arms.clean.total_edp();
  EXPECT_LT(arms.guarded.total_edp(), arms.unguarded.total_edp());
}

TEST(Guardrails, GuardActuallyFiredAndQuarantinedTheBatch) {
  const Arms arms = run_campaign();
  // At least one poisoned update was caught (rejected at shadow evaluation
  // or reverted at probation end), and its batch went to quarantine.
  EXPECT_GE(arms.guarded.updates_rejected + arms.guarded.updates_rolled_back,
            1);
  EXPECT_GE(arms.guarded.buffer_quarantined, 1);
  // The unguarded loop promotes everything and never rolls back.
  EXPECT_EQ(arms.unguarded.updates_rejected, 0);
  EXPECT_EQ(arms.unguarded.updates_rolled_back, 0);
  EXPECT_GE(arms.unguarded.policy_updates, 1);
}

TEST(Guardrails, GuardIsInertOnACleanHorizon) {
  // Without a poisoning campaign the guard should accept the same updates
  // the vanilla loop performs — EDP parity within noise, no rollbacks.
  const auto tenant = testing::tiny_mapped();
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e8,
                              .runs = 120};
  const auto vanilla = run_arm(tenant, false, false, horizon);
  const auto guarded = run_arm(tenant, false, true, horizon);
  EXPECT_EQ(guarded.updates_rolled_back, 0);
  EXPECT_LE(guarded.total_edp(), vanilla.total_edp() * 1.10);
  EXPECT_GE(guarded.policy_updates, 1);
}

TEST(Guardrails, DisabledGuardKeepsVanillaCountersConsistent) {
  const auto tenant = testing::tiny_mapped();
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e8, .runs = 60};
  const auto vanilla = run_arm(tenant, false, false, horizon);
  EXPECT_GE(vanilla.policy_updates, 1);
  EXPECT_EQ(vanilla.updates_rejected, 0);
  EXPECT_EQ(vanilla.updates_rolled_back, 0);
}

}  // namespace
}  // namespace odin::core
