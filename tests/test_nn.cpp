// Tests for the from-scratch NN engine: linear algebra, layer gradients
// (checked numerically), optimizers and the multi-head trainer.
#include <gtest/gtest.h>

#include <cmath>

#include "mlp_loss.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"
#include "nn/train.hpp"

namespace odin::nn {
namespace {

TEST(Matrix, MatmulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.flat().begin());
  std::copy(bv, bv + 6, b.flat().begin());
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposedProductsAgreeWithExplicitTranspose) {
  common::Rng rng(3);
  const Matrix a = Matrix::randn(4, 3, 1.0, rng);
  const Matrix b = Matrix::randn(4, 5, 1.0, rng);
  const Matrix atb = matmul_at_b(a, b);  // [3 x 5]
  Matrix at(3, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) at(j, i) = a(i, j);
  const Matrix ref = matmul(at, b);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(atb(i, j), ref(i, j), 1e-12);
}

TEST(Matrix, AxpyAccumulates) {
  Matrix x(2, 2, 1.0);
  Matrix y(2, 2, 2.0);
  axpy(0.5, x, y);
  for (double v : y.flat()) EXPECT_DOUBLE_EQ(v, 2.5);
}

/// Central-difference gradient check of Dense through a scalar loss
/// L = sum(out^2) / 2, so dL/dout = out.
TEST(Dense, GradientsMatchNumericalDifferences) {
  common::Rng rng(7);
  Dense dense(3, 2, rng);
  Matrix input = Matrix::randn(4, 3, 1.0, rng);

  auto loss_fn = [&]() {
    const Matrix out = dense.forward(input);
    double l = 0.0;
    for (double v : out.flat()) l += 0.5 * v * v;
    return l;
  };

  // Analytical gradients.
  const Matrix out = dense.forward(input);
  dense.weight().grad.fill(0.0);
  dense.bias().grad.fill(0.0);
  dense.backward(out);

  const double eps = 1e-6;
  auto w = dense.weight().value.flat();
  auto gw = dense.weight().grad.flat();
  for (std::size_t i = 0; i < w.size(); i += 2) {  // spot-check half
    const double orig = w[i];
    w[i] = orig + eps;
    const double lp = loss_fn();
    w[i] = orig - eps;
    const double lm = loss_fn();
    w[i] = orig;
    EXPECT_NEAR(gw[i], (lp - lm) / (2 * eps), 1e-4);
  }
}

TEST(Relu, ForwardAndBackwardMask) {
  Relu relu;
  Matrix x(1, 4);
  x(0, 0) = -1.0; x(0, 1) = 0.0; x(0, 2) = 2.0; x(0, 3) = -0.5;
  const Matrix y = relu.forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 2.0);
  Matrix g(1, 4, 1.0);
  const Matrix gx = relu.backward(g);
  EXPECT_DOUBLE_EQ(gx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gx(0, 1), 0.0);  // gradient zero at the kink's left side
  EXPECT_DOUBLE_EQ(gx(0, 2), 1.0);
}

TEST(SoftmaxCrossEntropy, LossOfUniformLogitsIsLogK) {
  SoftmaxCrossEntropy ce;
  Matrix logits(2, 4, 0.0);
  const std::vector<int> labels{1, 3};
  EXPECT_NEAR(ce.loss(logits, labels), std::log(4.0), 1e-12);
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumerical) {
  SoftmaxCrossEntropy ce;
  common::Rng rng(9);
  Matrix logits = Matrix::randn(3, 5, 1.0, rng);
  const std::vector<int> labels{0, 2, 4};
  ce.loss(logits, labels);
  const Matrix grad = ce.backward();
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      Matrix lp = logits, lm = logits;
      lp(r, c) += eps;
      lm(r, c) -= eps;
      SoftmaxCrossEntropy tmp;
      const double num =
          (tmp.loss(lp, labels) - tmp.loss(lm, labels)) / (2 * eps);
      EXPECT_NEAR(grad(r, c), num, 1e-5);
    }
  }
}

TEST(MultiHeadMlp, PredictProbaSumsToOnePerHead) {
  MultiHeadMlp mlp({.inputs = 4, .hidden = {16}, .heads = {6, 6}}, 1);
  const std::array<double, 4> x{0.1, 0.5, 0.3, 0.9};
  const auto probs = mlp.predict_proba(x);
  ASSERT_EQ(probs.size(), 2u);
  for (const auto& head : probs) {
    ASSERT_EQ(head.size(), 6u);
    double sum = 0.0;
    for (double p : head) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MultiHeadMlp, ParameterCountMatchesArchitecture) {
  MultiHeadMlp mlp({.inputs = 4, .hidden = {16}, .heads = {6, 6}}, 1);
  // trunk: 4*16 + 16; heads: 2 * (16*6 + 6)
  EXPECT_EQ(mlp.parameter_count(), 4u * 16 + 16 + 2 * (16 * 6 + 6));
}

Dataset make_separable_multihead(std::size_t n, common::Rng& rng) {
  // Head 0 label: whether x0 > 0.5; head 1 label: bucket of x1.
  Dataset ds;
  ds.inputs = Matrix(n, 4);
  ds.labels.assign(2, std::vector<int>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < 4; ++f) ds.inputs(i, f) = rng.uniform();
    ds.labels[0][i] = ds.inputs(i, 0) > 0.5 ? 1 : 0;
    ds.labels[1][i] = static_cast<int>(ds.inputs(i, 1) * 3.0);
    if (ds.labels[1][i] > 2) ds.labels[1][i] = 2;
  }
  return ds;
}

TEST(Training, FitReducesLossAndLearnsSeparableTask) {
  common::Rng rng(21);
  const Dataset ds = make_separable_multihead(300, rng);
  MultiHeadMlp mlp({.inputs = 4, .hidden = {16}, .heads = {2, 3}}, 5);
  TrainOptions opt;
  opt.epochs = 120;
  const double initial_loss = testref::mlp_loss(mlp, ds);
  EXPECT_EQ(fit(mlp, ds, opt).epochs_run, opt.epochs);
  EXPECT_LT(testref::mlp_loss(mlp, ds), initial_loss * 0.5);
  EXPECT_GT(exact_match_accuracy(mlp, ds), 0.85);
  const auto per_head = per_head_accuracy(mlp, ds);
  EXPECT_GT(per_head[0], 0.9);
  EXPECT_GT(per_head[1], 0.85);
}

TEST(Training, FitIsDeterministic) {
  common::Rng rng(22);
  const Dataset ds = make_separable_multihead(100, rng);
  MultiHeadMlp a({.inputs = 4, .hidden = {8}, .heads = {2, 3}}, 5);
  MultiHeadMlp b({.inputs = 4, .hidden = {8}, .heads = {2, 3}}, 5);
  TrainOptions opt;
  opt.epochs = 10;
  fit(a, ds, opt);
  fit(b, ds, opt);
  const std::array<double, 4> x{0.2, 0.4, 0.6, 0.8};
  const auto pa = a.predict_proba(x);
  const auto pb = b.predict_proba(x);
  for (std::size_t h = 0; h < pa.size(); ++h)
    for (std::size_t k = 0; k < pa[h].size(); ++k)
      EXPECT_DOUBLE_EQ(pa[h][k], pb[h][k]);
}

TEST(Training, SgdAlsoDescends) {
  common::Rng rng(23);
  const Dataset ds = make_separable_multihead(200, rng);
  MultiHeadMlp mlp({.inputs = 4, .hidden = {8}, .heads = {2, 3}}, 6);
  Sgd opt(mlp.parameters(), 0.1, 0.9);
  std::vector<std::vector<int>> labels(ds.labels.begin(), ds.labels.end());
  const double first = mlp.compute_gradients(ds.inputs, labels);
  opt.step();
  double last = first;
  for (int i = 0; i < 50; ++i) {
    last = mlp.compute_gradients(ds.inputs, labels);
    opt.step();
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace odin::nn
