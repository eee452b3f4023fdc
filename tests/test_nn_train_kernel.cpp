// Bitwise pins for the workspace MLP engine (DESIGN.md §19): nn::fit,
// compute_gradients and the inference entry points must reproduce the
// layer-stack engine (tests/reference_mlp.hpp) bit for bit — parameters,
// losses, gradients and probabilities compared with memcmp — across
// topologies (widths that are no multiple of 4 among them), every batch
// size up to 17, ragged batches, exact zeros and rows of -0.0, a NaN
// feature, dead ReLU units, infinite weights behind a zero activation (one
// in a head's last, partial ymm), chained fits and the policy's input
// sanitizer. Also pins the zero-allocation steady state (on the calling
// thread and on the pool path of 192-1024-10's wide products) and fit's
// refusal of an empty dataset and of labels outside the heads. Every case
// runs under both bodies of the products: the scalar row kernels, then the
// AVX2 tiles (mlp_avx2.cpp), whatever ODIN_SIMD says.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "allocation_counter.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "mlp_loss.hpp"
#include "nn/mlp.hpp"
#include "nn/train.hpp"
#include "policy/policy.hpp"
#include "reference_mlp.hpp"
#include "simd_modes.hpp"

namespace odin::nn {
namespace {

using testing::in_both_simd_modes;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

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

/// The library model's dataset loss against the reference's, bit for bit.
void expect_same_loss(MultiHeadMlp& lib, testref::Mlp& ref,
                      const Dataset& data) {
  const double a = testref::mlp_loss(lib, data);
  const double b = testref::dataset_loss(ref, data);
  EXPECT_TRUE(same_bits(a, b)) << a << " vs " << b;
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

/// Fits both engines on `data` and pins the losses before and after, the
/// epoch count, the parameters and the inference paths.
void fit_and_compare(Pair& p, const Dataset& data, const TrainOptions& opt) {
  expect_same_loss(p.lib, p.ref, data);
  const TrainResult a = fit(p.lib, data, opt);
  const TrainResult b = testref::fit(p.ref, data, opt);
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  expect_same_loss(p.lib, p.ref, data);
  expect_same_values(p.lib, p.ref_params);
  expect_same_inference(p, data.inputs);
}

/// compute_gradients on rows [0, batch) of `data` against the reference:
/// the loss and every gradient, bit for bit.
void gradients_and_compare(Pair& p, const Dataset& data, std::size_t batch) {
  std::vector<std::size_t> rows(batch);
  for (std::size_t r = 0; r < batch; ++r) rows[r] = r;
  const Matrix inputs = testref::gather_rows(data.inputs, rows);
  std::vector<std::vector<int>> labels(data.labels.size());
  for (std::size_t h = 0; h < labels.size(); ++h)
    labels[h].assign(data.labels[h].begin(),
                     data.labels[h].begin() +
                         static_cast<std::ptrdiff_t>(batch));
  const double a = p.lib.compute_gradients(inputs, labels);
  const double b = p.ref.compute_gradients(inputs, labels);
  EXPECT_TRUE(same_bits(a, b)) << a << " vs " << b;
  expect_same_grads(p.lib, p.ref_params);
}

TEST(NnTrainKernel, PolicyShapeRetrainIsBitwiseEqual) {
  // The online retrain: 4-16-(6,6), a full 50-entry buffer, batch 10.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
    Pair p(config, 0x0d1e);
    fit_and_compare(p, make_data(config, 50, 1), options(100, 10, 0x5eed));
  });
}

TEST(NnTrainKernel, EveryBatchSizeUpTo17IsBitwiseEqual) {
  // Every row tile (4, 3, 2 and 1 rows) on the policy shape, in one step
  // and in a fit whose last batch is ragged.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
    const Dataset data = make_data(config, 40, 16, 0.3);
    for (std::size_t batch = 1; batch <= 17; ++batch) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch);
      Pair p(config, 100 + batch);
      gradients_and_compare(p, data, batch);
      fit_and_compare(p, data, options(3, batch, batch));
    }
  });
}

TEST(NnTrainKernel, DeepTrunkRaggedBatchIsBitwiseEqual) {
  // Two trunk layers (the inner input gradient is live) and 37 rows in
  // batches of 8: the last batch of every epoch has 5 rows.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {8, 12}, .heads = {2, 3}};
    Pair p(config, 7);
    fit_and_compare(p, make_data(config, 37, 2, 0.0, -1.0),
                    options(30, 8, 11));
  });
}

TEST(NnTrainKernel, WidthsThatAreNoMultipleOfFourAreBitwiseEqual) {
  // 5-13-(6,3,1): every product ends in a partial ymm, and the 1-class
  // head's gradient is exactly zero.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 5, .hidden = {13}, .heads = {6, 3, 1}};
    Pair p(config, 29);
    const Dataset data = make_data(config, 31, 17, 0.25, -1.0);
    gradients_and_compare(p, data, 31);
    fit_and_compare(p, data, options(25, 7, 18));
  });
}

TEST(NnTrainKernel, ReferenceClassifierShapesAreBitwiseEqual) {
  // The Monte-Carlo / hardware-runner reference nets: 192-48-10 and the
  // beyond-L2 192-1024-10 (2 epochs keep the scalar reference quick).
  in_both_simd_modes([] {
    const MlpConfig small{.inputs = 192, .hidden = {48}, .heads = {10}};
    Pair a(small, 3);
    fit_and_compare(a, make_data(small, 70, 3, 0.2, -0.5), options(6, 32, 5));
    const MlpConfig wide{.inputs = 192, .hidden = {1024}, .heads = {10}};
    Pair b(wide, 4);
    fit_and_compare(b, make_data(wide, 40, 4, 0.2, -0.5), options(2, 32, 6));
  });
}

TEST(NnTrainKernel, ExactZerosAllZeroRowAndDeadUnitsAreBitwiseEqual) {
  in_both_simd_modes([] {
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
  });
}

TEST(NnTrainKernel, RowsOfNegativeZeroAreBitwiseEqual) {
  // -0.0 is a zero: its terms drop out exactly like +0.0's, and a batch
  // of nothing but -0.0 rows leaves only the biases to train.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
    Pair p(config, 31);
    Dataset data = make_data(config, 24, 19, 0.2, -1.0);
    for (std::size_t r : {0, 1, 2, 3, 9, 17})
      for (double& v : data.inputs.row(r)) v = -0.0;
    data.inputs(5, 1) = -0.0;
    gradients_and_compare(p, data, 4);
    fit_and_compare(p, data, options(20, 5, 20));
  });
}

TEST(NnTrainKernel, NanFeatureIsBitwiseEqual) {
  // A NaN feature is not a zero (NaN != 0): its terms stay in the sums in
  // both engines, so the loss, gradients and weights turn NaN alike.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
    Pair p(config, 37);
    Dataset data = make_data(config, 12, 21);
    data.inputs(2, 3) = kNan;
    gradients_and_compare(p, data, 6);
    fit_and_compare(p, data, options(2, 6, 22));
  });
}

TEST(NnTrainKernel, InfiniteWeightBehindZeroActivationStaysOutOfTheSums) {
  // Feature 0 is always exactly zero and unit 0 never fires, so the +inf
  // weights behind them multiply only zeros. Skipping those terms is what
  // keeps 0 * inf = NaN out of every logit and gradient. Head 0's inf
  // weights sit in classes 4 and 5, the lanes of its last, partial ymm.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
    Pair p(config, 13);
    Dataset data = make_data(config, 30, 6);
    for (std::size_t r = 0; r < data.size(); ++r) data.inputs(r, 0) = 0.0;
    for (MultiHeadMlp* m : {&p.lib, &p.ref_params}) {
      m->trunk_dense()[0]->weight().value(0, 3) = kInf;
      m->trunk_dense()[0]->bias().value(0, 0) = -100.0;
      m->head_dense()[1]->weight().value(0, 2) = kInf;
      m->head_dense()[0]->weight().value(0, 4) = -kInf;
      m->head_dense()[0]->weight().value(0, 5) = kInf;
    }
    fit_and_compare(p, data, options(20, 10, 14));
    EXPECT_EQ(fit(p.lib, data, options(1, 10, 15)).epochs_run, 1);
    EXPECT_TRUE(std::isfinite(testref::mlp_loss(p.lib, data)));
    EXPECT_EQ(p.lib.trunk_dense()[0]->weight().value(0, 3), kInf);
    EXPECT_EQ(p.lib.head_dense()[0]->weight().value(0, 5), kInf);
  });
}

TEST(NnTrainKernel, ChainedFitsOnOneModelAreBitwiseEqual) {
  // Batches grow, shrink and grow again on one workspace; the dataset
  // shapes change between fits.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
    Pair p(config, 17);
    fit_and_compare(p, make_data(config, 50, 7), options(10, 10, 1));
    fit_and_compare(p, make_data(config, 80, 8), options(5, 32, 2));
    fit_and_compare(p, make_data(config, 9, 9), options(12, 4, 3));
    fit_and_compare(p, make_data(config, 50, 10), options(10, 10, 4));
  });
}

TEST(NnTrainKernel, ComputeGradientsIsBitwiseEqual) {
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 5, .hidden = {7, 9},
                           .heads = {4, 3, 2}};
    Pair p(config, 19);
    const Dataset data = make_data(config, 13, 11, 0.3, -1.0);
    const double a = p.lib.compute_gradients(data.inputs, data.labels);
    const double b = p.ref.compute_gradients(data.inputs, data.labels);
    EXPECT_TRUE(same_bits(a, b)) << a << " vs " << b;
    expect_same_grads(p.lib, p.ref_params);
    // fit's row-indexed step reads the same rows in place.
    const std::vector<std::size_t> rows = {12, 0, 5, 5, 7};
    const Matrix batch = testref::gather_rows(data.inputs, rows);
    std::vector<std::vector<int>> labels(data.labels.size());
    for (std::size_t h = 0; h < labels.size(); ++h)
      for (std::size_t r : rows) labels[h].push_back(data.labels[h][r]);
    p.lib.minibatch_gradients(data.inputs, data.labels, rows);
    p.ref.compute_gradients(batch, labels);
    expect_same_grads(p.lib, p.ref_params);
  });
}

TEST(NnTrainKernel, PolicyTrainSanitizerPathIsBitwiseEqual) {
  // OuPolicy::train clamps NaN/inf/out-of-range features before fitting;
  // the fit behind it must match the reference on the clamped data.
  in_both_simd_modes([] {
    const ou::OuLevelGrid grid(128);
    policy::OuPolicy policy(grid);
    policy::OuPolicy twin(grid);
    testref::Mlp ref(twin.mlp());
    Dataset data = make_data(policy.mlp().config(), 50, 12);
    data.inputs(3, 1) = kNan;
    data.inputs(8, 0) = kInf;
    data.inputs(9, 2) = -kInf;
    data.inputs(20, 3) = 1.5;
    Dataset clamped = data;
    for (double& v : clamped.inputs.flat()) {
      if (!std::isfinite(v)) v = 0.0;
      v = std::clamp(v, 0.0, 1.0);
    }
    const TrainOptions opt = options(100, 10, 0x5eed);
    expect_same_loss(policy.mlp(), ref, clamped);
    const TrainResult a = policy.train(data, opt);
    const TrainResult b = testref::fit(ref, clamped, opt);
    EXPECT_EQ(policy.sanitized_inputs(), 4u);
    EXPECT_EQ(policy.nonfinite_recoveries(), 0u);
    EXPECT_EQ(a.epochs_run, b.epochs_run);
    expect_same_loss(policy.mlp(), ref, clamped);
    expect_same_values(policy.mlp(), twin.mlp());
  });
}

TEST(NnTrainKernel, FitRefusesLabelsOutsideTheHeads) {
  // An off-grid replay label decodes to -1; a class past the head's width,
  // a missing head or label, or a row of the wrong width would index past
  // the workspace, and an empty dataset has nothing to fit. fit refuses
  // all of them (and a zero batch size) in every build and leaves the
  // weights untouched.
  in_both_simd_modes([] {
    const MlpConfig config{.inputs = 4, .hidden = {16}, .heads = {6, 6}};
    const Dataset good = make_data(config, 20, 13);
    std::vector<Dataset> bad(6, good);
    bad[0].labels[0][0] = -1;
    bad[1].labels[1][19] = 6;
    bad[2].labels.pop_back();
    bad[3].labels[1].pop_back();
    bad[4].inputs = Matrix(20, 5);
    bad[5] = make_data(config, 0, 13);
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
  });
}

// --- Zero allocation in steady state ----------------------------------------

/// Eight rounds of every step and inference entry point, and an Adam step,
/// on `config` after one warm-up round allocate nothing.
void expect_no_steady_state_allocation(const MlpConfig& config) {
  MultiHeadMlp model(config, 23);
  Adam optimizer(model.parameters());
  const Dataset data = make_data(config, 10, 14);
  const std::vector<std::size_t> rows = {9, 3, 1, 4};
  model.compute_gradients(data.inputs, data.labels);  // warm the workspace
  (void)model.predict(data.inputs.row(0));
  optimizer.step();
  const std::uint64_t before = g_allocations.load();
  double sink = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    sink += model.compute_gradients(data.inputs, data.labels);
    model.minibatch_gradients(data.inputs, data.labels, rows);
    optimizer.step();
    sink += model.predict(data.inputs.row(rep))[0];
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "training step or predict allocated (sink " << sink << ")";
}

TEST(NnTrainKernel, StepAndPredictDoNotAllocateInSteadyState) {
  // The policy's products and Adam update run on the calling thread;
  // 192-1024-10's wide products (4 rows and up) and its first layer's Adam
  // update run as pool tasks at 4 threads.
  common::ThreadPool& pool = common::ThreadPool::instance();
  const int threads = pool.threads();
  pool.set_threads(4);
  in_both_simd_modes([] {
    expect_no_steady_state_allocation(
        {.inputs = 4, .hidden = {16}, .heads = {6, 6}});
    expect_no_steady_state_allocation(
        {.inputs = 192, .hidden = {1024}, .heads = {10}});
  });
  pool.set_threads(threads);
}

TEST(NnTrainKernel, FitAllocationsDoNotGrowWithEpochs) {
  in_both_simd_modes([] {
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
  });
}

}  // namespace
}  // namespace odin::nn
