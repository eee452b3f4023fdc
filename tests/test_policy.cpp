// Tests for feature extraction, the MLP OU policy and the replay buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "mlp_loss.hpp"
#include "policy/buffer.hpp"
#include "policy/features.hpp"
#include "policy/policy.hpp"

namespace odin::policy {
namespace {

dnn::LayerDescriptor layer_at(int index, double sparsity, int kernel) {
  dnn::LayerDescriptor l;
  l.index = index;
  l.weight_sparsity = sparsity;
  l.kernel = kernel;
  l.fan_in = 64;
  l.outputs = 64;
  return l;
}

TEST(Features, NormalizedIntoUnitRanges) {
  const Features f = extract_features(layer_at(10, 0.6, 3), 21, 1e4);
  EXPECT_NEAR(f.layer_position, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(f.sparsity, 0.6);
  EXPECT_NEAR(f.kernel, 3.0 / 7.0, 1e-12);
  EXPECT_NEAR(f.log_time, 0.5, 1e-9);  // log10(1e4)/8
}

TEST(Features, ClampsExtremes) {
  const Features early = extract_features(layer_at(0, 0.0, 1), 10, 0.1);
  EXPECT_DOUBLE_EQ(early.layer_position, 0.0);
  EXPECT_DOUBLE_EQ(early.log_time, 0.0);  // below t0 clamps
  const Features late = extract_features(layer_at(9, 1.0, 7), 10, 1e12);
  EXPECT_DOUBLE_EQ(late.layer_position, 1.0);
  EXPECT_DOUBLE_EQ(late.log_time, 1.0);
  EXPECT_DOUBLE_EQ(late.kernel, 1.0);
}

TEST(Features, SingleLayerNetworkPositionIsZero) {
  const Features f = extract_features(layer_at(0, 0.5, 3), 1, 1.0);
  EXPECT_DOUBLE_EQ(f.layer_position, 0.0);
}

TEST(OuPolicy, PredictsConfigsOnTheGrid) {
  const ou::OuLevelGrid grid(128);
  OuPolicy policy(grid);
  const Features f = extract_features(layer_at(3, 0.5, 3), 10, 100.0);
  const ou::OuConfig cfg = policy.predict(f);
  EXPECT_GE(grid.level_of(cfg.rows), 0);
  EXPECT_GE(grid.level_of(cfg.cols), 0);
}

TEST(OuPolicy, ProbabilitiesAreDistributions) {
  const ou::OuLevelGrid grid(64);
  OuPolicy policy(grid);
  const Features f = extract_features(layer_at(1, 0.3, 1), 5, 10.0);
  const auto probs = policy.predict_proba(f);
  ASSERT_EQ(probs.size(), 2u);
  for (const auto& head : probs) {
    ASSERT_EQ(head.size(), static_cast<std::size_t>(grid.levels()));
    double sum = 0.0;
    for (double p : head) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(OuPolicy, LearnsADeterministicMapping) {
  // Rule: high sparsity -> small OU (level 0), low sparsity -> big (level 4).
  const ou::OuLevelGrid grid(128);
  OuPolicy policy(grid);
  nn::Dataset data;
  common::Rng rng(8);
  for (int i = 0; i < 120; ++i) {
    const double sparsity = rng.uniform();
    Features f;
    f.layer_position = rng.uniform();
    f.sparsity = sparsity;
    f.kernel = 3.0 / 7.0;
    f.log_time = rng.uniform();
    const int level = sparsity > 0.5 ? 0 : 4;
    OuPolicy::append_example(data, f, grid,
                             grid.config_at(level, level));
  }
  nn::TrainOptions opt;
  opt.epochs = 150;
  const double initial_loss = testref::mlp_loss(policy.mlp(), data);
  EXPECT_EQ(policy.train(data, opt).epochs_run, opt.epochs);
  EXPECT_LT(testref::mlp_loss(policy.mlp(), data), initial_loss);

  Features sparse;
  sparse.sparsity = 0.9;
  sparse.kernel = 3.0 / 7.0;
  sparse.layer_position = 0.5;
  sparse.log_time = 0.5;
  Features dense = sparse;
  dense.sparsity = 0.1;
  EXPECT_EQ(policy.predict(sparse), grid.config_at(0, 0));
  EXPECT_EQ(policy.predict(dense), grid.config_at(4, 4));
}

TEST(OuPolicy, ParameterCountIsTiny) {
  // The paper stresses low overhead: 4 -> 16 -> 2x6 is O(300) parameters.
  const ou::OuLevelGrid grid(128);
  OuPolicy policy(grid);
  EXPECT_LT(policy.parameter_count(), 1000u);
}

TEST(OuPolicy, TrainSanitizesNonFiniteFeaturesAndStaysFinite) {
  // Poisoned supervision: NaN/Inf feature values (e.g. from a corrupted
  // sensor path) must not leave the policy with non-finite weights.
  const ou::OuLevelGrid grid(128);
  OuPolicy policy(grid);
  nn::Dataset data;
  common::Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    Features f;
    f.layer_position = rng.uniform();
    f.sparsity = rng.uniform();
    f.kernel = 3.0 / 7.0;
    f.log_time = rng.uniform();
    OuPolicy::append_example(data, f, grid, grid.config_at(2, 2));
  }
  // Corrupt a handful of rows with every flavour of non-finite value.
  data.inputs(3, 0) = std::numeric_limits<double>::quiet_NaN();
  data.inputs(7, 1) = std::numeric_limits<double>::infinity();
  data.inputs(11, 2) = -std::numeric_limits<double>::infinity();
  data.inputs(13, 3) = 1e300;  // finite but absurd: clamped to [0, 1]

  nn::TrainOptions opt;
  opt.epochs = 60;
  EXPECT_EQ(policy.train(data, opt).epochs_run, opt.epochs);
  EXPECT_TRUE(policy.weights_finite());
  EXPECT_GE(policy.sanitized_inputs(), 4u);
  // The loss on the rows as the sanitizer repaired them is finite.
  nn::Dataset repaired = data;
  for (double& v : repaired.inputs.flat())
    v = std::isfinite(v) ? std::clamp(v, 0.0, 1.0) : 0.0;
  EXPECT_TRUE(std::isfinite(testref::mlp_loss(policy.mlp(), repaired)));
  // Predictions remain well-formed after the poisoned training round.
  Features probe;
  probe.sparsity = 0.5;
  probe.kernel = 3.0 / 7.0;
  const ou::OuConfig cfg = policy.predict(probe);
  EXPECT_GE(grid.level_of(cfg.rows), 0);
  EXPECT_GE(grid.level_of(cfg.cols), 0);
}

TEST(OuPolicy, CleanDataIsNeverSanitized) {
  // Legitimate features are clamped to [0, 1] at extraction, so the
  // sanitizer must be a bitwise no-op on them (guards the vanilla loop's
  // determinism).
  const ou::OuLevelGrid grid(128);
  OuPolicy policy(grid);
  nn::Dataset data;
  common::Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    Features f;
    f.layer_position = rng.uniform();
    f.sparsity = rng.uniform();
    f.kernel = 1.0;
    f.log_time = rng.uniform();
    OuPolicy::append_example(data, f, grid, grid.config_at(1, 1));
  }
  nn::TrainOptions opt;
  opt.epochs = 30;
  policy.train(data, opt);
  EXPECT_EQ(policy.sanitized_inputs(), 0u);
  EXPECT_EQ(policy.nonfinite_recoveries(), 0u);
}

TEST(ReplayBuffer, FillsAndReportsFull) {
  ReplayBuffer buffer(3);
  const ou::OuLevelGrid grid(128);
  Features f;
  EXPECT_TRUE(buffer.empty());
  buffer.add(f, {4, 4});
  buffer.add(f, {8, 8});
  EXPECT_FALSE(buffer.full());
  buffer.add(f, {16, 16});
  EXPECT_TRUE(buffer.full());
  EXPECT_EQ(buffer.size(), 3u);
  // Overflow is dropped.
  buffer.add(f, {32, 32});
  EXPECT_EQ(buffer.size(), 3u);
}

TEST(ReplayBuffer, DatasetRoundTripsLabels) {
  ReplayBuffer buffer(4);
  const ou::OuLevelGrid grid(128);
  Features f;
  f.sparsity = 0.25;
  buffer.add(f, {16, 8});
  buffer.add(f, {4, 128});
  const nn::Dataset data = buffer.to_dataset(grid);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data.labels[0][0], grid.level_of(16));
  EXPECT_EQ(data.labels[1][0], grid.level_of(8));
  EXPECT_EQ(data.labels[0][1], grid.level_of(4));
  EXPECT_EQ(data.labels[1][1], grid.level_of(128));
  EXPECT_DOUBLE_EQ(data.inputs(0, 1), 0.25);
}

TEST(ReplayBuffer, ResetEmpties) {
  ReplayBuffer buffer(2);
  Features f;
  buffer.add(f, {4, 4});
  buffer.reset();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(ReplayBuffer, DefaultCapacityMatchesPaper) {
  ReplayBuffer buffer;
  EXPECT_EQ(buffer.capacity(), 50u);
}

TEST(ReplayBuffer, CountsSaturationDrops) {
  ReplayBuffer buffer(2);
  Features f;
  EXPECT_TRUE(buffer.add(f, {4, 4}));
  f.sparsity = 0.5;
  EXPECT_TRUE(buffer.add(f, {8, 8}));
  EXPECT_EQ(buffer.dropped(), 0u);
  f.sparsity = 0.75;
  EXPECT_FALSE(buffer.add(f, {16, 16}));
  EXPECT_FALSE(buffer.add(f, {32, 32}));
  EXPECT_EQ(buffer.dropped(), 2u);
  // Drops survive a retrain reset (cumulative observability).
  buffer.reset();
  EXPECT_EQ(buffer.dropped(), 2u);
}

TEST(ReplayBuffer, QuarantineRefusesPoisonedExamples) {
  ReplayBuffer buffer(4);
  Features poisoned;
  poisoned.log_time = 0.9;
  buffer.add(poisoned, {4, 4});
  buffer.quarantine_contents();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.quarantined(), 1u);
  // The identical (features, label) pair is refused from now on...
  EXPECT_FALSE(buffer.add(poisoned, {4, 4}));
  EXPECT_EQ(buffer.quarantine_hits(), 1u);
  // ...but the same features with a different label are fresh evidence.
  EXPECT_TRUE(buffer.add(poisoned, {8, 8}));

  // quarantine_batch covers the rollback path (batch already extracted).
  Features other;
  other.sparsity = 0.3;
  buffer.quarantine_batch({{other, {16, 16}}});
  EXPECT_EQ(buffer.quarantined(), 2u);
  EXPECT_FALSE(buffer.add(other, {16, 16}));
}

TEST(ReplayBuffer, RestoreReinstatesCheckpointedState) {
  ReplayBuffer original(3);
  Features f;
  f.kernel = 1.0;
  original.add(f, {4, 8});
  original.quarantine_contents();
  original.add(f, {8, 8});

  ReplayBuffer restored(3);
  restored.restore(original.entries(), original.quarantined_entries(),
                   original.dropped(), original.quarantine_hits());
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.quarantined(), 1u);
  EXPECT_TRUE(restored.entries() == original.entries());
  // The restored quarantine keeps refusing the poisoned pair.
  EXPECT_FALSE(restored.add(f, {4, 8}));
}

}  // namespace
}  // namespace odin::policy
