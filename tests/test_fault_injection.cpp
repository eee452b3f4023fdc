// Tests for the fault-injection layer: FaultInjector campaign scheduling,
// peripheral failures, write-verify convergence, drift bursts and power-down
// windows.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "reram/fault_injection.hpp"

namespace odin::reram {
namespace {

FaultScheduleParams worn_schedule() {
  FaultScheduleParams p;
  p.endurance.characteristic_cycles = 10.0;
  p.endurance.shape = 1.8;
  p.tracked_cells = 4096;
  return p;
}

TEST(FaultInjector, DeterministicGivenSeedAndCampaignHistory) {
  FaultScheduleParams p = worn_schedule();
  p.wordline_fail_rate = 0.05;
  p.bitline_fail_rate = 0.05;
  p.write_fail_rate = 0.3;
  FaultInjector a(p, 42);
  FaultInjector b(p, 42);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(a.program_campaign(), b.program_campaign()) << "campaign " << k;
    EXPECT_EQ(a.failed_wordlines(), b.failed_wordlines());
    EXPECT_EQ(a.failed_bitlines(), b.failed_bitlines());
    EXPECT_DOUBLE_EQ(a.fault_fraction(), b.fault_fraction());
  }
  FaultInjector c(p, 43);  // different seed, different trajectory
  for (int k = 0; k < 20; ++k) c.program_campaign();
  EXPECT_NE(a.fault_fraction(), c.fault_fraction());
}

TEST(FaultInjector, StuckFractionTracksWeibullExpectation) {
  const FaultScheduleParams p = worn_schedule();
  FaultInjector inj(p, 7);
  EXPECT_DOUBLE_EQ(inj.stuck_cell_fraction(), 0.0);
  const EnduranceModel model(p.endurance);
  double prev = 0.0;
  for (int n : {2, 5, 10, 20}) {
    while (inj.campaigns() < n) inj.program_campaign();
    const double measured = inj.stuck_cell_fraction();
    const double expected = model.failure_fraction(static_cast<double>(n));
    EXPECT_GE(measured, prev);  // wear never heals
    // 4096 tracked cells: Monte-Carlo slack ~4 sigma of the binomial.
    const double sigma =
        std::sqrt(expected * (1.0 - expected) / p.tracked_cells);
    EXPECT_NEAR(measured, expected, 4.0 * sigma + 1e-3) << "n=" << n;
    prev = measured;
  }
}

TEST(FaultInjector, PeripheralFailuresAccumulateAndCompound) {
  FaultScheduleParams p;  // no endurance wear: isolate the peripherals
  p.endurance.characteristic_cycles = 1e12;
  p.wordline_fail_rate = 0.1;
  p.bitline_fail_rate = 0.1;
  p.array_lines = 128;
  FaultInjector inj(p, 11);
  for (int k = 0; k < 40; ++k) inj.program_campaign();
  EXPECT_GT(inj.failed_wordlines(), 0);
  EXPECT_GT(inj.failed_bitlines(), 0);
  EXPECT_LE(inj.failed_wordlines(), p.array_lines);
  const double wl = static_cast<double>(inj.failed_wordlines()) /
                    p.array_lines;
  const double bl = static_cast<double>(inj.failed_bitlines()) /
                    p.array_lines;
  // Independent-overlap composition, and the total includes it.
  EXPECT_NEAR(inj.peripheral_fraction(), 1.0 - (1.0 - wl) * (1.0 - bl),
              1e-12);
  EXPECT_GE(inj.fault_fraction(), inj.peripheral_fraction() - 1e-12);
  EXPECT_LE(inj.fault_fraction(), 1.0);
}

TEST(FaultInjector, WriteConvergenceFollowsFailRate) {
  FaultScheduleParams always = worn_schedule();
  always.write_fail_rate = 0.0;
  FaultInjector ok(always, 3);
  for (int k = 0; k < 10; ++k) EXPECT_TRUE(ok.program_campaign());

  FaultScheduleParams never = worn_schedule();
  never.write_fail_rate = 1.0;
  FaultInjector bad(never, 3);
  for (int k = 0; k < 10; ++k) EXPECT_FALSE(bad.program_campaign());
}

TEST(FaultInjector, DriftBurstsMultiplyInsideTheirWindows) {
  FaultScheduleParams p;
  p.bursts = {{.start_s = 100.0, .duration_s = 50.0, .multiplier = 4.0},
              {.start_s = 120.0, .duration_s = 100.0, .multiplier = 3.0}};
  FaultInjector inj(p, 1);
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(50.0), 1.0);    // before
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(110.0), 4.0);   // first only
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(130.0), 12.0);  // overlap
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(180.0), 3.0);   // second only
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(500.0), 1.0);   // after
}

TEST(FaultInjector, PowerDownWindowsZeroTheDriftClock) {
  // A mesh-loss window (core/cluster) pauses the device entirely: inside
  // it the drift multiplier is 0, not 1 — the array is unpowered, so
  // neither drift nor bursts advance. Outside, bursts still compound.
  FaultScheduleParams p;
  p.bursts = {{.start_s = 100.0, .duration_s = 100.0, .multiplier = 4.0}};
  FaultInjector inj(p, 1);
  EXPECT_FALSE(inj.powered_down(150.0));
  inj.add_power_down(140.0, 30.0);  // [140, 170) inside the burst
  EXPECT_FALSE(inj.powered_down(139.0));
  EXPECT_TRUE(inj.powered_down(140.0));
  EXPECT_TRUE(inj.powered_down(169.0));
  EXPECT_FALSE(inj.powered_down(170.0));
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(50.0), 1.0);    // before all
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(120.0), 4.0);   // burst only
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(150.0), 0.0);   // powered down
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(180.0), 4.0);   // burst resumes
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(500.0), 1.0);   // after all
  // Windows accumulate like bursts do.
  inj.add_power_down(300.0, 10.0);
  EXPECT_TRUE(inj.powered_down(305.0));
  EXPECT_DOUBLE_EQ(inj.drift_time_multiplier(305.0), 0.0);
}

}  // namespace
}  // namespace odin::reram
