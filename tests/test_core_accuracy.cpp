// Tests for the accuracy surrogate and the Monte-Carlo noise-injection
// evaluator, including the cross-validation between the two.
#include <gtest/gtest.h>

#include "core/accuracy.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

struct Fixture {
  ou::MappedModel model = testing::tiny_mapped();
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  AccuracyModel accuracy{AccuracyParams{}};
};

TEST(AccuracyModel, NoLossWithinBudget) {
  const AccuracyModel m{AccuracyParams{}};
  EXPECT_DOUBLE_EQ(m.loss_from_excess(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.loss_from_excess(-1.0), 0.0);
  EXPECT_GT(m.loss_from_excess(0.001), 0.0);
}

TEST(AccuracyModel, LossIsMonotoneAndSaturates) {
  const AccuracyModel m{AccuracyParams{}};
  double prev = -1.0;
  for (double excess = 0.0; excess <= 0.1; excess += 0.005) {
    const double l = m.loss_from_excess(excess);
    EXPECT_GE(l, prev);
    prev = l;
  }
  EXPECT_DOUBLE_EQ(m.loss_from_excess(m.params().excess_saturation),
                   m.params().max_drop);
  EXPECT_DOUBLE_EQ(m.loss_from_excess(5.0), m.params().max_drop);
}

TEST(AccuracyModel, IdealAtT0WithinBudgetConfig) {
  Fixture fx;
  // 8x8 satisfies both constraints at t0 even for the most sensitive
  // layer: accuracy is exactly ideal.
  const double acc = fx.accuracy.estimate_homogeneous(fx.model, {8, 8}, 1.0,
                                                      fx.nonideal);
  EXPECT_DOUBLE_EQ(acc, fx.accuracy.params().ideal_accuracy);
  // 16x16 slightly exceeds the IR budget of the earliest layers: a small
  // (but only small) penalty, matching "negligible loss" in the paper.
  const double acc16 = fx.accuracy.estimate_homogeneous(fx.model, {16, 16},
                                                        1.0, fx.nonideal);
  EXPECT_LE(acc16, fx.accuracy.params().ideal_accuracy);
  EXPECT_GT(acc16, 0.97 * fx.accuracy.params().ideal_accuracy);
}

TEST(AccuracyModel, DegradesOverTimeWithoutReprogramming) {
  // Fig. 7's "w/o reprogramming" curves. Early on the 16x16 IR excess
  // shrinks slightly with the drifting conductance (less current, less IR
  // drop), so the requirement is: monotone decay once the drift term
  // dominates (t >= 1e6 s), and a severe net drop by the horizon's end.
  Fixture fx;
  double prev = 1.0;
  for (double t : {1e6, 3e6, 1e7, 3e7, 1e8}) {
    const double acc = fx.accuracy.estimate_homogeneous(fx.model, {16, 16},
                                                        t, fx.nonideal);
    EXPECT_LE(acc, prev + 1e-12);
    prev = acc;
  }
  EXPECT_LT(prev, fx.accuracy.estimate_homogeneous(fx.model, {16, 16}, 1.0,
                                                   fx.nonideal));
  // By the end of the horizon the drop is severe (paper Fig. 7: 22% for
  // 16x16 without reprogramming).
  const double final_acc = fx.accuracy.estimate_homogeneous(
      fx.model, {16, 16}, 1e8, fx.nonideal);
  const double drop = fx.accuracy.params().ideal_accuracy - final_acc;
  EXPECT_GT(drop, 0.12);
  EXPECT_LT(drop, 0.45);
}

TEST(AccuracyModel, CoarserOusLoseMoreAccuracy) {
  Fixture fx;
  const double t = 1e7;
  const double fine = fx.accuracy.estimate_homogeneous(fx.model, {4, 4}, t,
                                                       fx.nonideal);
  const double coarse = fx.accuracy.estimate_homogeneous(fx.model, {64, 64},
                                                         t, fx.nonideal);
  EXPECT_GT(fine, coarse);
}

TEST(AccuracyModel, ExcessWeightsSensitiveLayersMore) {
  Fixture fx;
  const std::size_t n = fx.model.layer_count();
  // Coarse OU only on the first (most sensitive) layer vs only on the last.
  std::vector<ou::OuConfig> first_coarse(n, ou::OuConfig{4, 4});
  std::vector<ou::OuConfig> last_coarse(n, ou::OuConfig{4, 4});
  first_coarse.front() = {64, 64};
  last_coarse.back() = {64, 64};
  const double excess_first =
      fx.accuracy.effective_excess(fx.model, first_coarse, 1.0, fx.nonideal);
  const double excess_last =
      fx.accuracy.effective_excess(fx.model, last_coarse, 1.0, fx.nonideal);
  EXPECT_GT(excess_first, excess_last);
}

TEST(AccuracyModel, OdinStyleConfigurationsIncurNoLoss) {
  // Any per-layer configuration satisfying both constraints has zero
  // excess — the mechanism behind Odin's flat Fig. 7 curve.
  Fixture fx;
  const int n = static_cast<int>(fx.model.layer_count());
  for (double t : {1.0, 1e4, 1e7, 5e7}) {
    std::vector<ou::OuConfig> configs(fx.model.layer_count(),
                                      ou::OuConfig{4, 4});
    bool all_ok = true;
    for (int j = 0; j < n; ++j)
      all_ok = all_ok &&
               fx.nonideal.feasible(t, configs[static_cast<std::size_t>(j)],
                                    fx.nonideal.layer_sensitivity(j, n));
    if (!all_ok) continue;  // reprogram regime
    EXPECT_DOUBLE_EQ(
        fx.accuracy.effective_excess(fx.model, configs, t, fx.nonideal), 0.0)
        << t;
  }
}

class MonteCarloFixture : public ::testing::Test {
 protected:
  static MonteCarloAccuracy& evaluator() {
    static data::SyntheticDataset dataset(
        data::DatasetSpec::for_kind(data::DatasetKind::kCifar10), 321);
    static MonteCarloAccuracy mc(dataset);
    return mc;
  }
};

TEST_F(MonteCarloFixture, ReferenceModelLearnsTheTask) {
  EXPECT_GT(evaluator().ideal_accuracy(), 0.75);  // chance = 0.1
}

TEST_F(MonteCarloFixture, AccuracyIsPinnedToTheRecordedRows) {
  // Recorded when the train and test rows came from two separate draws;
  // one draw split in two must train and score the same classifier.
  EXPECT_EQ(evaluator().ideal_accuracy(), 1.0);
  EXPECT_EQ(evaluator().accuracy_under(0.55, 0.5, 2), 105.0 / 200.0);
}

TEST_F(MonteCarloFixture, ZeroNoiseMatchesIdeal) {
  EXPECT_DOUBLE_EQ(evaluator().accuracy_under(0.0, 0.0),
                   evaluator().ideal_accuracy());
}

TEST_F(MonteCarloFixture, RestoresWeightsBetweenCalls) {
  const double before = evaluator().ideal_accuracy();
  evaluator().accuracy_under(0.3, 0.2);
  EXPECT_DOUBLE_EQ(evaluator().ideal_accuracy(), before);
}

TEST_F(MonteCarloFixture, SevereErrorsCollapseAccuracy) {
  const double ideal = evaluator().ideal_accuracy();
  double severe = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    severe += evaluator().accuracy_under(0.6, 0.5, seed);
  severe /= 3.0;
  EXPECT_LT(severe, ideal - 0.2);
}

TEST_F(MonteCarloFixture, DegradationIsMonotoneInNoiseOnAverage) {
  // Validates the surrogate's monotone shape empirically (averaged over
  // seeds to smooth Monte-Carlo variance).
  auto mean_acc = [&](double drift, double ir) {
    double acc = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
      acc += evaluator().accuracy_under(drift, ir, seed);
    return acc / 5.0;
  };
  const double mild = mean_acc(0.05, 0.02);
  const double medium = mean_acc(0.25, 0.15);
  const double severe = mean_acc(0.55, 0.4);
  EXPECT_GE(mild, medium - 0.05);
  EXPECT_GT(mild, severe);
  EXPECT_GE(medium, severe - 0.05);
}

}  // namespace
}  // namespace odin::core
