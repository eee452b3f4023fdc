// Wear-leveling lifecycle tests (DESIGN.md §15): the FaultInjector's
// leveled campaign walk (spare pool absorption, proactive crossbar
// retirement, deterministic fast-forward replay, wear-hot rise and clear)
// and the serving-level retirement/migration campaign — the graceful-
// degradation ladder rotate → remap → retire → migrate end to end.
#include <gtest/gtest.h>

#include <vector>

#include "core/serving.hpp"
#include "reram/endurance.hpp"
#include "reram/fault_injection.hpp"
#include "reram/wear_leveling.hpp"
#include "test_helpers.hpp"

namespace odin::reram {
namespace {

/// Endurance so poor that a handful of campaigns wears out a visible cell
/// fraction (eta = 10 campaigns) — wear events arrive fast enough to
/// exercise the whole ladder inside a short test.
FaultScheduleParams worn_leveled(int spare_rows) {
  FaultScheduleParams p;
  p.endurance.characteristic_cycles = 10.0;
  p.endurance.shape = 1.8;
  p.leveling.enabled = true;
  p.leveling.spare_rows = spare_rows;
  return p;
}

TEST(WearLevelingInjector, SparePoolAbsorbsWearBeforeAnyCellSticks) {
  FaultInjector inj(worn_leveled(512), 42);
  FaultScheduleParams plain = worn_leveled(512);
  plain.leveling = WearLevelingParams{};
  FaultInjector unleveled(plain, 42);
  for (int k = 0; k < 8; ++k) {
    inj.program_campaign();
    unleveled.program_campaign();
  }
  // The unleveled device shows stuck cells by now; the leveled one has
  // remapped that wear onto spares and stays clean.
  EXPECT_GT(unleveled.stuck_cell_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(inj.stuck_cell_fraction(), 0.0);
  EXPECT_GT(inj.rows_remapped(), 0);
  EXPECT_EQ(inj.crossbars_retired(), 0);
  EXPECT_LT(inj.spares_remaining(), 512);
  EXPECT_GT(inj.writes_leveled(), 0);
}

TEST(WearLevelingInjector, PoolExhaustionRetiresCrossbarAndResetsWear) {
  FaultInjector inj(worn_leveled(2), 42);
  int retired_at = -1;
  for (int k = 0; k < 40 && retired_at < 0; ++k) {
    inj.program_campaign();
    if (inj.crossbars_retired() > 0) retired_at = k;
  }
  ASSERT_GE(retired_at, 0) << "2-row pool must exhaust within 40 campaigns";
  // Migration to the fresh array clears every visible wear symptom.
  EXPECT_DOUBLE_EQ(inj.stuck_cell_fraction(), 0.0);
  EXPECT_EQ(inj.failed_wordlines(), 0);
  EXPECT_EQ(inj.failed_bitlines(), 0);
  EXPECT_EQ(inj.spares_remaining(), 2);  // new array, full pool
  // Retired pools stay counted in the remap total.
  EXPECT_GE(inj.rows_remapped(), inj.crossbars_retired() * 2);
}

TEST(WearLevelingInjector, FastForwardReplaysRetirementDeterministically) {
  FaultInjector lived(worn_leveled(2), 7);
  for (int k = 0; k < 30; ++k) lived.program_campaign();
  ASSERT_GT(lived.crossbars_retired(), 0);

  FaultInjector replayed(worn_leveled(2), 7);
  ASSERT_TRUE(replayed.fast_forward(lived.wear_state()));
  EXPECT_EQ(replayed.crossbars_retired(), lived.crossbars_retired());
  EXPECT_EQ(replayed.rows_remapped(), lived.rows_remapped());
  EXPECT_EQ(replayed.spares_remaining(), lived.spares_remaining());
  EXPECT_DOUBLE_EQ(replayed.fault_fraction(), lived.fault_fraction());

  // A different seed retires on a different schedule, so the fingerprint
  // (which includes the retirement count) tells them apart.
  FaultInjector other(worn_leveled(2), 8);
  for (int k = 0; k < 30; ++k) other.program_campaign();
  if (other.crossbars_retired() != lived.crossbars_retired()) {
    EXPECT_FALSE(FaultInjector(worn_leveled(2), 8)
                     .fast_forward(lived.wear_state()));
  }
}

TEST(WearLevelingInjector, WearHotRisesWithCampaignsAndClearsOnRetirement) {
  // A 512-row pool spreads wear 0.2x per campaign: the device crosses the
  // wear-hot band well before the pool exhausts (a tiny pool would retire
  // on the very first campaign, before any budget is visibly consumed).
  FaultScheduleParams p = worn_leveled(512);
  p.leveling.wear_budget_percent = 80;
  FaultInjector inj(p, 42);
  EXPECT_FALSE(inj.wear_hot());  // fresh device
  bool saw_hot = false;
  int retired = 0;
  for (int k = 0; k < 40; ++k) {
    inj.program_campaign();
    if (inj.crossbars_retired() == 0 && inj.wear_hot()) saw_hot = true;
    if (inj.crossbars_retired() > retired) {
      retired = inj.crossbars_retired();
      // Migration resets the budget clock: the fresh array is not hot.
      EXPECT_FALSE(inj.wear_hot()) << "campaign " << k;
    }
  }
  EXPECT_TRUE(saw_hot) << "device must pass through the wear-hot band";
  ASSERT_GT(retired, 0);
}

TEST(WearLevelingInjector, DisabledLevelingIsBitIdenticalToLegacyWalk) {
  FaultScheduleParams p;
  p.endurance.characteristic_cycles = 10.0;
  p.endurance.shape = 1.8;
  p.wordline_fail_rate = 0.02;
  p.bitline_fail_rate = 0.02;
  p.write_fail_rate = 0.1;
  FaultScheduleParams leveled_off = p;
  leveled_off.leveling.enabled = false;
  FaultInjector a(p, 99);
  FaultInjector b(leveled_off, 99);
  for (int k = 0; k < 25; ++k) {
    EXPECT_EQ(a.program_campaign(), b.program_campaign());
    EXPECT_DOUBLE_EQ(a.fault_fraction(), b.fault_fraction());
  }
  EXPECT_EQ(b.rows_remapped(), 0);
  EXPECT_EQ(b.writes_leveled(), 0);
  EXPECT_FALSE(b.wear_hot());
}

}  // namespace
}  // namespace reram — serving-level campaign below uses core types.

namespace odin::core {
namespace {

// --- Serving: retirement and migration --------------------------------------

struct ServeFixture {
  ou::MappedModel tenant_a = testing::tiny_mapped(128, 21);
  ou::MappedModel tenant_b = testing::tiny_mapped(128, 22);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};

  std::vector<const ou::MappedModel*> tenants() const {
    return {&tenant_a, &tenant_b};
  }
  ServingConfig config() const {
    ServingConfig cfg;
    cfg.horizon = HorizonConfig{.t_start_s = 1.0, .t_end_s = 1e8, .runs = 80};
    cfg.segments = 4;
    cfg.odin.buffer_capacity = 12;
    cfg.odin.update_options.epochs = 30;
    return cfg;
  }
  policy::OuPolicy fresh_policy() const {
    return policy::OuPolicy(ou::OuLevelGrid(128));
  }
  /// Endurance brutal enough that the tiny spare pool exhausts and the
  /// crossbar retires within the 80-run horizon.
  reram::FaultScheduleParams leveled_faults(int spare_rows = 2) const {
    reram::FaultScheduleParams p;
    p.endurance.characteristic_cycles = 10.0;
    p.endurance.shape = 1.8;
    p.leveling.enabled = true;
    p.leveling.spare_rows = spare_rows;
    p.leveling.wear_budget_percent = 80;
    return p;
  }
};

TEST(WearLevelingServing, RetirementMigratesTenantInsteadOfDegrading) {
  ServeFixture fx;
  reram::FaultInjector faults(fx.leveled_faults(), 0x5eed);
  const auto result = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                      fx.fresh_policy(), fx.config(),
                                      &faults);
  // Brutal wear + a 2-row pool: the device must have burned through at
  // least one full pool and migrated.
  EXPECT_GE(result.total_crossbars_retired(), 1);
  EXPECT_GE(result.total_rows_remapped(), result.total_crossbars_retired() * 2);
  EXPECT_GT(result.total_writes_leveled(), 0);
  // Migration (not degradation): spares absorb the wear the unleveled walk
  // would have served as stuck cells, so no tenant ends degraded.
  EXPECT_EQ(result.total_degraded_runs(), 0);
  // The per-tenant attribution must account for exactly the device totals.
  EXPECT_EQ(result.total_crossbars_retired(), faults.crossbars_retired());
  EXPECT_EQ(result.total_rows_remapped(), faults.rows_remapped());
  EXPECT_EQ(result.total_writes_leveled(), faults.writes_leveled());
  EXPECT_LE(result.spares_remaining(), 2);
  // Every run was served: migration never drops traffic.
  EXPECT_EQ(result.total_runs(), 80);
}

TEST(WearLevelingServing, BreakerIsNotTrippedByRetirement) {
  ServeFixture fx;
  ServingConfig cfg = fx.config();
  cfg.resilience.enabled = true;  // default SLO is infinite: no deadline
                                  // pressure, isolate the retirement path
  reram::FaultInjector faults(fx.leveled_faults(), 0x5eed);
  const auto result = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                      fx.fresh_policy(), cfg, &faults);
  EXPECT_GE(result.total_crossbars_retired(), 1);
  // Retirement campaigns ride the success path: the breaker never opens on
  // a planned migration, so no run is served from the degraded fallback.
  EXPECT_EQ(result.total_breaker_opens(), 0);
  EXPECT_EQ(result.total_breaker_open_runs(), 0);
  EXPECT_EQ(result.total_runs(), 80);
}

TEST(WearLevelingServing, LeveledWalkMatchesUnleveledCadence) {
  // Equal-EDP guarantee: under leveling the spares absorb all visible wear,
  // so at a realistic endurance (default eta = 2e5 campaigns — the device
  // never gets wear-hot inside one horizon) the controller sees the same
  // healthy device the no-fault walk sees: identical reprogram cadence,
  // identical EDP.
  ServeFixture fx;
  reram::FaultScheduleParams p;  // default endurance, leveling on
  p.leveling.enabled = true;
  p.leveling.spare_rows = 32;
  reram::FaultInjector faults(p, 0x5eed);
  const auto leveled = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                       fx.fresh_policy(), fx.config(),
                                       &faults);
  const auto clean = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                     fx.fresh_policy(), fx.config(), nullptr);
  EXPECT_EQ(leveled.total_runs(), clean.total_runs());
  EXPECT_EQ(leveled.total_degraded_runs(), 0);
  EXPECT_EQ(leveled.total_wear_deferred_reprograms(), 0);
  EXPECT_DOUBLE_EQ(leveled.total_edp(), clean.total_edp());
}

}  // namespace
}  // namespace odin::core
