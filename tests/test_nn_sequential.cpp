// Tests for the convolutional layers (gradient-checked) and the Sequential
// trainer, culminating in a small CNN learning the synthetic dataset.
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/conv_layer.hpp"
#include "nn/sequential.hpp"

namespace odin::nn {
namespace {

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of a correct backward pass.
  common::Rng rng(3);
  const ConvSpec spec{.in_channels = 2, .out_channels = 1, .kernel = 3,
                      .stride = 1, .padding = 1};
  Image x{2, 5, 5, std::vector<double>(50)};
  for (double& v : x.data) v = rng.normal();
  const Matrix cols = im2col(x, spec);
  Matrix y(cols.rows(), cols.cols());
  for (double& v : y.flat()) v = rng.normal();

  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.rows(); ++i)
    for (std::size_t j = 0; j < cols.cols(); ++j) lhs += cols(i, j) * y(i, j);
  const Image back = col2im(y, spec, 5, 5);
  double rhs = 0.0;
  for (std::size_t k = 0; k < x.data.size(); ++k)
    rhs += x.data[k] * back.data[k];
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(Conv2dLayer, GradientsMatchNumericalDifferences) {
  common::Rng rng(7);
  const ConvSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                      .stride = 1, .padding = 1};
  Conv2dLayer conv(spec, 4, 4, rng);
  Matrix input = Matrix::randn(2, 2 * 4 * 4, 1.0, rng);

  auto loss_fn = [&]() {
    const Matrix out = conv.forward(input);
    double l = 0.0;
    for (double v : out.flat()) l += 0.5 * v * v;
    return l;
  };
  const Matrix out = conv.forward(input);
  for (Parameter* p : conv.parameters()) p->grad.fill(0.0);
  conv.backward(out);

  const double eps = 1e-6;
  auto params = conv.parameters();
  for (Parameter* p : params) {
    auto w = p->value.flat();
    auto g = p->grad.flat();
    for (std::size_t i = 0; i < w.size(); i += 5) {  // strided spot check
      const double orig = w[i];
      w[i] = orig + eps;
      const double lp = loss_fn();
      w[i] = orig - eps;
      const double lm = loss_fn();
      w[i] = orig;
      EXPECT_NEAR(g[i], (lp - lm) / (2 * eps), 1e-4);
    }
  }
}

TEST(Conv2dLayer, InputGradientMatchesNumerical) {
  common::Rng rng(9);
  const ConvSpec spec{.in_channels = 1, .out_channels = 2, .kernel = 3,
                      .stride = 1, .padding = 1};
  Conv2dLayer conv(spec, 4, 4, rng);
  Matrix input = Matrix::randn(1, 16, 1.0, rng);
  auto loss_fn = [&]() {
    const Matrix out = conv.forward(input);
    double l = 0.0;
    for (double v : out.flat()) l += 0.5 * v * v;
    return l;
  };
  const Matrix out = conv.forward(input);
  for (Parameter* p : conv.parameters()) p->grad.fill(0.0);
  const Matrix din = conv.backward(out);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < 16; i += 3) {
    const double orig = input(0, i);
    input(0, i) = orig + eps;
    const double lp = loss_fn();
    input(0, i) = orig - eps;
    const double lm = loss_fn();
    input(0, i) = orig;
    EXPECT_NEAR(din(0, i), (lp - lm) / (2 * eps), 1e-4);
  }
}

TEST(MaxPool2Layer, ForwardPicksMaxAndBackwardRoutesToWinner) {
  MaxPool2Layer pool(1, 4, 4);
  Matrix input(1, 16);
  for (std::size_t i = 0; i < 16; ++i) input(0, i) = static_cast<double>(i);
  const Matrix out = pool.forward(input);
  ASSERT_EQ(out.cols(), 4u);
  EXPECT_DOUBLE_EQ(out(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(out(0, 3), 15.0);
  Matrix g(1, 4, 1.0);
  const Matrix gin = pool.backward(g);
  EXPECT_DOUBLE_EQ(gin(0, 5), 1.0);
  EXPECT_DOUBLE_EQ(gin(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gin(0, 15), 1.0);
}

TEST(Sequential, SmallCnnLearnsTheSyntheticTask) {
  // 16x16x3 images (pool-2 of the CIFAR-10-shaped data) -> conv8 -> pool
  // -> conv16 -> pool -> dense 10.
  data::SyntheticDataset dataset(
      data::DatasetSpec::for_kind(data::DatasetKind::kCifar10), 55);
  const Dataset train = dataset.as_feature_dataset(200, 2);  // 3x16x16

  common::Rng rng(5);
  Sequential cnn;
  auto conv1 = std::make_unique<Conv2dLayer>(
      ConvSpec{.in_channels = 3, .out_channels = 8, .kernel = 3,
               .stride = 1, .padding = 1},
      16, 16, rng);
  cnn.add(std::move(conv1));
  cnn.add(std::make_unique<Relu>());
  cnn.add(std::make_unique<MaxPool2Layer>(8, 16, 16));
  auto conv2 = std::make_unique<Conv2dLayer>(
      ConvSpec{.in_channels = 8, .out_channels = 16, .kernel = 3,
               .stride = 1, .padding = 1},
      8, 8, rng);
  cnn.add(std::move(conv2));
  cnn.add(std::make_unique<Relu>());
  cnn.add(std::make_unique<MaxPool2Layer>(16, 8, 8));
  cnn.add(std::make_unique<Dense>(16 * 4 * 4, 10, rng));

  EXPECT_GT(cnn.parameter_count(), 1000u);
  TrainOptions opt;
  opt.epochs = 8;
  opt.batch_size = 16;
  opt.learning_rate = 2e-3;
  const auto loss = [&] {
    const double l = cnn.compute_gradients(train.inputs, train.labels[0]);
    cnn.zero_gradients();
    return l;
  };
  const double initial_loss = loss();
  EXPECT_EQ(fit_sequential(cnn, train, opt).epochs_run, opt.epochs);
  EXPECT_LT(loss(), initial_loss * 0.6);
  EXPECT_GT(cnn.accuracy(train), 0.6);  // chance = 0.1
}

TEST(Sequential, DenseOnlyStackMatchesMultiHeadBehaviour) {
  common::Rng rng(13);
  Sequential mlp;
  mlp.add(std::make_unique<Dense>(4, 16, rng));
  mlp.add(std::make_unique<Relu>());
  mlp.add(std::make_unique<Dense>(16, 3, rng));
  Dataset data;
  data.inputs = Matrix(60, 4);
  data.labels.assign(1, std::vector<int>(60));
  common::Rng drng(17);
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t f = 0; f < 4; ++f) data.inputs(i, f) = drng.uniform();
    data.labels[0][i] = data.inputs(i, 0) > 0.66   ? 2
                        : data.inputs(i, 0) > 0.33 ? 1
                                                   : 0;
  }
  TrainOptions opt;
  opt.epochs = 150;
  fit_sequential(mlp, data, opt);
  EXPECT_GT(mlp.accuracy(data), 0.85);
}

}  // namespace
}  // namespace odin::nn
