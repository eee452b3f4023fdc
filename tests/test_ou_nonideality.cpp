// Tests for the non-ideality model: Eq. 3-4 wiring, layer sensitivity, the
// two feasibility constraints, and the reprogramming-trigger timing that
// calibrates Fig. 6.
#include <gtest/gtest.h>

#include "ou/nonideality.hpp"

namespace odin::ou {
namespace {

NonIdealityModel model() {
  return NonIdealityModel(reram::DeviceParams{}, NonIdealityParams{});
}

TEST(NonIdeality, TotalNfMatchesDeviceEq4) {
  const auto m = model();
  const OuConfig cfg{16, 16};
  EXPECT_DOUBLE_EQ(
      m.total_nf(1e4, cfg),
      reram::relative_conductance_error(m.device(), 1e4, 16, 16));
}

TEST(NonIdeality, ComponentsSumToTotal) {
  const auto m = model();
  const OuConfig cfg{32, 8};
  for (double t : {1.0, 1e3, 1e6}) {
    EXPECT_NEAR(m.drift_nf(t) + m.ir_nf(t, cfg), m.total_nf(t, cfg), 1e-12);
  }
}

TEST(NonIdeality, SensitivityDecaysWithDepth) {
  const auto m = model();
  const int n = 20;
  double prev = 1e9;
  for (int j = 0; j < n; ++j) {
    const double s = m.layer_sensitivity(j, n);
    EXPECT_LT(s, prev);
    EXPECT_GE(s, 1.0);
    prev = s;
  }
  EXPECT_NEAR(m.layer_sensitivity(0, n), m.params().sensitivity_max, 1e-12);
}

TEST(NonIdeality, EarlyLayersGetTighterOuBudgetAtT0) {
  const auto m = model();
  const OuLevelGrid grid(128);
  const double s_early = m.layer_sensitivity(0, 20);
  const double s_late = m.layer_sensitivity(19, 20);
  const int early_budget = m.max_feasible_sum(1.0, grid, s_early);
  const int late_budget = m.max_feasible_sum(1.0, grid, s_late);
  EXPECT_LT(early_budget, late_budget);
  // The paper's Fig. 3: sensitive early layers land around 16x8 (sum 24),
  // insensitive late layers can afford ~32x32 (sum 64).
  EXPECT_LE(early_budget, 40);
  EXPECT_GE(late_budget, 64);
}

TEST(NonIdeality, FeasibleSetShrinksOverTime) {
  const auto m = model();
  const OuLevelGrid grid(128);
  int prev = 1 << 20;
  for (double t : {1.0, 1e2, 1e4, 1e6, 3e7}) {
    const int budget = m.max_feasible_sum(t, grid, 1.0);
    EXPECT_LE(budget, prev);
    EXPECT_GT(budget, 0) << "still feasible at " << t;
    prev = budget;
  }
}

TEST(NonIdeality, ReprogramTriggerMatchesCalibration) {
  // DESIGN.md §4: with the calibrated constants the min-OU crossing falls
  // between 3e7 s and 1e8 s so Odin reprograms exactly once per horizon.
  const auto m = model();
  const OuLevelGrid grid(128);
  EXPECT_FALSE(m.reprogram_required(3e7, grid, 1.0));
  EXPECT_TRUE(m.reprogram_required(1e8, grid, 1.0));
}

TEST(NonIdeality, SixteenBySixteenCrossingNearTwoMillionSeconds) {
  // Fig. 6: (16x16) reprograms ~43-48 times over 1e8 s -> its eta crossing
  // sits near 2e6 s.
  const auto m = model();
  const OuConfig cfg{16, 16};
  const double eta = m.params().eta_total;
  EXPECT_LT(m.total_nf(1e6, cfg), eta);
  EXPECT_GT(m.total_nf(4e6, cfg), eta);
}

// Feasibility is monotone: if (R,C) is feasible then any config with
// smaller R+C is too (at the same sensitivity and time).
class FeasibilityMonotone
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FeasibilityMonotone, SmallerSumStaysFeasible) {
  const auto [t, sensitivity] = GetParam();
  const auto m = model();
  const OuLevelGrid grid(128);
  for (const OuConfig& a : grid.all_configs()) {
    if (!m.feasible(t, a, sensitivity)) continue;
    for (const OuConfig& b : grid.all_configs()) {
      if (b.sum() <= a.sum()) {
        EXPECT_TRUE(m.feasible(t, b, sensitivity))
            << a.to_string() << " feasible but " << b.to_string() << " not";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TimesAndSensitivities, FeasibilityMonotone,
    ::testing::Combine(::testing::Values(1.0, 1e3, 1e6, 5e7),
                       ::testing::Values(1.0, 1.5, 3.0)));

TEST(NonIdeality, IrConstraintBindsOnlySensitiveLayers) {
  const auto m = model();
  const OuConfig big{64, 32};
  // At t0 the 64x32 config passes the total constraint but fails the
  // IR constraint at high sensitivity.
  EXPECT_LE(m.total_nf(1.0, big), m.params().eta_total);
  EXPECT_TRUE(m.feasible(1.0, big, 0.5));
  EXPECT_FALSE(m.feasible(1.0, big, 3.0));
}

}  // namespace
}  // namespace odin::ou
