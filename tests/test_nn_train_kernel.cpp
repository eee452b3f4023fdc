// Bitwise pins for the workspace MLP engine (DESIGN.md §19): nn::fit,
// compute_gradients and the inference entry points must reproduce the
// layer-stack engine (tests/reference_mlp.hpp) bit for bit — parameters,
// losses, gradients and probabilities compared with memcmp — across
// topologies, ragged batches, exact zeros, dead ReLU units, an infinite
// weight behind a zero activation, chained fits and the policy's input
// sanitizer. Also pins the zero-allocation steady state and fit's refusal
// of labels outside the heads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "allocation_counter.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/train.hpp"
#include "policy/policy.hpp"
#include "reference_mlp.hpp"

namespace odin::nn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Two models built from the same config and seed start bitwise equal.
struct Pair {
  MultiHeadMlp lib;
  MultiHeadMlp ref_params;
  testref::Mlp ref;

  Pair(const MlpConfig& config, std::uint64_t seed)
      : lib(config, seed), ref_params(config, seed), ref(ref_params) {}
};

void expect_same_values(MultiHeadMlp& lib, MultiHeadMlp& ref) {
  const auto a = lib.parameters();
  const auto b = ref.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_bits(a[i]->value, b[i]->value)) << "parameter " << i;
}

void expect_same_grads(MultiHeadMlp& lib, MultiHeadMlp& ref) {
  const auto a = lib.parameters();
  const auto b = ref.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_bits(a[i]->grad, b[i]->grad)) << "gradient " << i;
}

void expect_same_result(const TrainResult& a, const TrainResult& b) {
  EXPECT_TRUE(same_bits(a.initial_loss, b.initial_loss))
      << a.initial_loss << " vs " << b.initial_loss;
  EXPECT_TRUE(same_bits(a.final_loss, b.final_loss))
      << a.final_loss << " vs " << b.final_loss;
  EXPECT_EQ(a.epochs_run, b.epochs_run);
}

/// predict_proba, predict and the batch forward agree with the reference
/// on every row of `probe`.
void expect_same_inference(Pair& p, const Matrix& probe) {
  const auto lib_logits = p.lib.forward(probe);
  const auto ref_logits = p.ref.forward(probe);
  ASSERT_EQ(lib_logits.size(), ref_logits.size());
  for (std::size_t h = 0; h < lib_logits.size(); ++h)
    EXPECT_TRUE(same_bits(lib_logits[h], ref_logits[h])) << "head " << h;
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    const auto a = p.lib.predict_proba(probe.row(r));
    const auto b = p.ref.predict_proba(probe.row(r));
    ASSERT_EQ(a.size(), b.size());
    const auto classes = p.lib.predict(probe.row(r));
    ASSERT_EQ(classes.size(), a.size());
    for (std::size_t h = 0; h < a.size(); ++h) {
      ASSERT_EQ(a[h].size(), b[h].size());
      EXPECT_EQ(std::memcmp(a[h].data(), b[h].data(),
                            a[h].size() * sizeof(double)),
                0)
          << "row " << r << " head " << h;
      EXPECT_EQ(classes[h], static_cast<int>(common::argmax(b[h])))
          << "row " << r << " head " << h;
    }
  }
}

/// n rows of uniform features in [lo, 1) — negative lo exercises negative
/// inputs — with a fraction `zeros` of exact zeros; labels uniform over
/// each head's classes.
Dataset make_data(const MlpConfig& config, std::size_t n, std::uint64_t seed,
                  double zeros = 0.0, double lo = 0.0) {
  common::Rng rng(seed);
  Dataset data;
  data.inputs = Matrix(n, config.inputs);
  for (double& v : data.inputs.flat())
    v = rng.uniform() < zeros ? 0.0 : rng.uniform(lo, 1.0);
  data.labels.assign(config.heads.size(), std::vector<int>(n));
  for (std::size_t h = 0; h < config.heads.size(); ++h)
    for (int& y : data.labels[h])
      y = static_cast<int>(rng.uniform_index(config.heads[h]));
  return data;
}

TrainOptions options(int epochs, std::size_t batch, std::uint64_t seed) {
  TrainOptions opt;
  opt.epochs = epochs;
  opt.batch_size = batch;
  opt.shuffle_seed = seed;
  return opt;
}

/// Fits both engines on `data` and pins the result, the parameters and
/// the inference paths.
void fit_and_compare(Pair& p, const Dataset& data, const TrainOptions& opt) {
  const TrainResult a = fit(p.lib, data, opt);
  const TrainResult b = testref::fit(p.ref, data, opt);
  expect_same_result(a, b);
  expect_same_values(p.lib, p.ref_params);
  expect_same_inference(p, data.inputs);
}

TEST(NnTrainKernel, PolicyShapeRetrainIsBitwiseEqual) {
  // The online retrain: 4-16-(6,6), a full 50-entry buffer, batch 10.
  const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
  Pair p(config, 0x0d1e);
  fit_and_compare(p, make_data(config, 50, 1), options(100, 10, 0x5eed));
}

TEST(NnTrainKernel, DeepTrunkRaggedBatchIsBitwiseEqual) {
  // Two trunk layers (the inner input gradient is live) and 37 rows in
  // batches of 8: the last batch of every epoch has 5 rows.
  const MlpConfig config{.inputs = 4, .hidden = {8, 12}, .heads = {2, 3}};
  Pair p(config, 7);
  fit_and_compare(p, make_data(config, 37, 2, 0.0, -1.0),
                  options(30, 8, 11));
}

TEST(NnTrainKernel, ReferenceClassifierShapesAreBitwiseEqual) {
  // The Monte-Carlo / hardware-runner reference nets: 192-48-10 and the
  // beyond-L2 192-1024-10 (2 epochs keep the scalar reference quick).
  const MlpConfig small{.inputs = 192, .hidden = {48}, .heads = {10}};
  Pair a(small, 3);
  fit_and_compare(a, make_data(small, 70, 3, 0.2, -0.5), options(6, 32, 5));
  const MlpConfig wide{.inputs = 192, .hidden = {1024}, .heads = {10}};
  Pair b(wide, 4);
  fit_and_compare(b, make_data(wide, 40, 4, 0.2, -0.5), options(2, 32, 6));
}

TEST(NnTrainKernel, ExactZerosAllZeroRowAndDeadUnitsAreBitwiseEqual) {
  const MlpConfig config{.inputs = 6, .hidden = {16}, .heads = {6, 6}};
  Pair p(config, 9);
  Dataset data = make_data(config, 23, 5, 0.4);
  for (double& v : data.inputs.row(4)) v = 0.0;
  for (double& v : data.inputs.row(11)) v = -0.0;
  // Units 0-3 never fire: their pre-activation is always negative.
  for (MultiHeadMlp* m : {&p.lib, &p.ref_params})
    for (std::size_t j = 0; j < 4; ++j)
      m->trunk_dense()[0]->bias().value(0, j) = -100.0;
  fit_and_compare(p, data, options(40, 4, 12));
  EXPECT_EQ(p.lib.trunk_dense()[0]->bias().value(0, 0), -100.0)
      << "a dead unit got a gradient";
}

TEST(NnTrainKernel, InfiniteWeightBehindZeroActivationStaysOutOfTheSums) {
  // Feature 0 is always exactly zero and unit 0 never fires, so the +inf
  // weights behind them multiply only zeros. Skipping those terms is what
  // keeps 0 * inf = NaN out of every logit and gradient.
  const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
  Pair p(config, 13);
  Dataset data = make_data(config, 30, 6);
  for (std::size_t r = 0; r < data.size(); ++r) data.inputs(r, 0) = 0.0;
  for (MultiHeadMlp* m : {&p.lib, &p.ref_params}) {
    m->trunk_dense()[0]->weight().value(0, 3) = kInf;
    m->trunk_dense()[0]->bias().value(0, 0) = -100.0;
    m->head_dense()[1]->weight().value(0, 2) = kInf;
  }
  fit_and_compare(p, data, options(20, 10, 14));
  const TrainResult again = fit(p.lib, data, options(1, 10, 15));
  EXPECT_TRUE(std::isfinite(again.final_loss));
  EXPECT_EQ(p.lib.trunk_dense()[0]->weight().value(0, 3), kInf);
}

TEST(NnTrainKernel, ChainedFitsOnOneModelAreBitwiseEqual) {
  // Batches grow, shrink and grow again on one workspace; the dataset
  // shapes change between fits.
  const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
  Pair p(config, 17);
  fit_and_compare(p, make_data(config, 50, 7), options(10, 10, 1));
  fit_and_compare(p, make_data(config, 80, 8), options(5, 32, 2));
  fit_and_compare(p, make_data(config, 9, 9), options(12, 4, 3));
  fit_and_compare(p, make_data(config, 50, 10), options(10, 10, 4));
}

TEST(NnTrainKernel, ComputeGradientsIsBitwiseEqual) {
  const MlpConfig config{.inputs = 5, .hidden = {7, 9}, .heads = {4, 3, 2}};
  Pair p(config, 19);
  const Dataset data = make_data(config, 13, 11, 0.3, -1.0);
  const double a = p.lib.compute_gradients(data.inputs, data.labels);
  const double b = p.ref.compute_gradients(data.inputs, data.labels);
  EXPECT_TRUE(same_bits(a, b)) << a << " vs " << b;
  expect_same_grads(p.lib, p.ref_params);
  // The row-indexed form reads the same rows in place.
  const std::vector<std::size_t> rows = {12, 0, 5, 5, 7};
  const Matrix batch = testref::gather_rows(data.inputs, rows);
  std::vector<std::vector<int>> labels(data.labels.size());
  for (std::size_t h = 0; h < labels.size(); ++h)
    for (std::size_t r : rows) labels[h].push_back(data.labels[h][r]);
  const double c = p.lib.compute_gradients(data.inputs, data.labels, rows);
  const double d = p.ref.compute_gradients(batch, labels);
  EXPECT_TRUE(same_bits(c, d)) << c << " vs " << d;
  expect_same_grads(p.lib, p.ref_params);
}

TEST(NnTrainKernel, PolicyTrainSanitizerPathIsBitwiseEqual) {
  // OuPolicy::train clamps NaN/inf/out-of-range features before fitting;
  // the fit behind it must match the reference on the clamped data.
  const ou::OuLevelGrid grid(128);
  policy::OuPolicy policy(grid);
  policy::OuPolicy twin(grid);
  testref::Mlp ref(twin.mlp());
  Dataset data = make_data(policy.mlp().config(), 50, 12);
  data.inputs(3, 1) = std::numeric_limits<double>::quiet_NaN();
  data.inputs(8, 0) = kInf;
  data.inputs(9, 2) = -kInf;
  data.inputs(20, 3) = 1.5;
  Dataset clamped = data;
  for (double& v : clamped.inputs.flat()) {
    if (!std::isfinite(v)) v = 0.0;
    v = std::clamp(v, 0.0, 1.0);
  }
  const TrainOptions opt = options(100, 10, 0x5eed);
  const TrainResult a = policy.train(data, opt);
  const TrainResult b = testref::fit(ref, clamped, opt);
  EXPECT_EQ(policy.sanitized_inputs(), 4u);
  EXPECT_EQ(policy.nonfinite_recoveries(), 0u);
  expect_same_result(a, b);
  expect_same_values(policy.mlp(), twin.mlp());
}

TEST(NnTrainKernel, FitRefusesLabelsOutsideTheHeads) {
  // An off-grid replay label decodes to -1; a class past the head's width,
  // a missing head or label, or a row of the wrong width would index past
  // the workspace. fit refuses all of them (and a zero batch size) in every
  // build and leaves the weights untouched.
  const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
  const Dataset good = make_data(config, 20, 13);
  std::vector<Dataset> bad(5, good);
  bad[0].labels[0][0] = -1;
  bad[1].labels[1][19] = 6;
  bad[2].labels.pop_back();
  bad[3].labels[1].pop_back();
  bad[4].inputs = Matrix(20, 5);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    MultiHeadMlp model(config, 21);
    MultiHeadMlp pristine(config, 21);
    const TrainResult r = fit(model, bad[i], options(5, 10, 1));
    EXPECT_EQ(r.epochs_run, 0) << "dataset " << i;
    expect_same_values(model, pristine);
  }
  MultiHeadMlp model(config, 21);
  EXPECT_EQ(fit(model, good, options(5, 0, 1)).epochs_run, 0)
      << "zero batch size";
  EXPECT_EQ(fit(model, good, options(5, 10, 1)).epochs_run, 5);
}

// --- Zero allocation in steady state ----------------------------------------

TEST(NnTrainKernel, StepAndPredictDoNotAllocateInSteadyState) {
  const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
  MultiHeadMlp model(config, 23);
  const Dataset data = make_data(config, 10, 14);
  const std::vector<std::size_t> rows = {9, 3, 1, 4};
  model.compute_gradients(data.inputs, data.labels);  // warm the workspace
  (void)model.predict(data.inputs.row(0));
  const std::uint64_t before = g_allocations.load();
  double sink = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    sink += model.compute_gradients(data.inputs, data.labels);
    sink += model.compute_gradients(data.inputs, data.labels, rows);
    sink += model.predict(data.inputs.row(rep))[1];
    sink += model.loss(data.inputs, data.labels, 3);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "training step or predict allocated (sink " << sink << ")";
}

TEST(NnTrainKernel, FitAllocationsDoNotGrowWithEpochs) {
  const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
  const Dataset data = make_data(config, 50, 15);
  auto allocations = [&](int epochs) {
    MultiHeadMlp model(config, 25);
    const std::uint64_t before = g_allocations.load();
    fit(model, data, options(epochs, 10, 16));
    return g_allocations.load() - before;
  };
  const std::uint64_t one = allocations(1);
  EXPECT_LE(allocations(100), one);
}

}  // namespace
}  // namespace odin::nn
