// Pinned reference MLP engine: a line-for-line port of the layer-stack
// MultiHeadMlp training path (Dense -> ReLU -> ... -> Dense -> softmax
// cross-entropy objects passing freshly allocated matrices, the triple-loop
// products with a per-element zero test, per-batch row gathers, a full
// forward+backward pass for the dataset loss, and Adam's scalar loop). It
// trains the parameters of a library nn::MultiHeadMlp in place, so the
// workspace engine in nn/mlp.cpp can be compared against it bit for bit —
// tests/test_nn_train_kernel.cpp enforces that. Being compiled into the test
// target (without odin_nn's -fno-math-errno), its Adam stays scalar.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/train.hpp"

namespace odin::testref {

using nn::Matrix;
using nn::Parameter;

inline Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

inline Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aki * b(k, j);
    }
  }
  return out;
}

inline Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      out(i, j) = acc;
    }
  }
  return out;
}

inline void axpy(double alpha, const Matrix& x, Matrix& y) {
  auto xs = x.flat();
  auto ys = y.flat();
  for (std::size_t i = 0; i < xs.size(); ++i) ys[i] += alpha * xs[i];
}

/// Dense layer over borrowed parameters.
struct Dense {
  Parameter* weight;
  Parameter* bias;
  Matrix cached_input;

  Matrix forward(const Matrix& input) {
    cached_input = input;
    Matrix out = testref::matmul(input, weight->value);
    for (std::size_t r = 0; r < out.rows(); ++r)
      for (std::size_t c = 0; c < out.cols(); ++c)
        out(r, c) += bias->value(0, c);
    return out;
  }

  Matrix backward(const Matrix& grad_output) {
    Matrix dw = testref::matmul_at_b(cached_input, grad_output);
    testref::axpy(1.0, dw, weight->grad);
    for (std::size_t r = 0; r < grad_output.rows(); ++r)
      for (std::size_t c = 0; c < grad_output.cols(); ++c)
        bias->grad(0, c) += grad_output(r, c);
    return testref::matmul_a_bt(grad_output, weight->value);
  }
};

struct Relu {
  Matrix cached_input;

  Matrix forward(const Matrix& input) {
    cached_input = input;
    Matrix out = input;
    for (double& v : out.flat())
      if (v < 0.0) v = 0.0;
    return out;
  }

  Matrix backward(const Matrix& grad_output) {
    Matrix out = grad_output;
    auto xin = cached_input.flat();
    auto g = out.flat();
    for (std::size_t i = 0; i < g.size(); ++i)
      if (xin[i] <= 0.0) g[i] = 0.0;
    return out;
  }
};

inline Matrix softmax(const Matrix& logits) {
  Matrix probs = logits;
  for (std::size_t r = 0; r < probs.rows(); ++r)
    common::softmax_inplace(probs.row(r));
  return probs;
}

struct SoftmaxCrossEntropy {
  Matrix probs;
  std::vector<int> labels;

  double loss(const Matrix& logits, std::span<const int> y) {
    probs = softmax(logits);
    labels.assign(y.begin(), y.end());
    double total = 0.0;
    for (std::size_t r = 0; r < probs.rows(); ++r)
      total -= std::log(std::max(
          probs(r, static_cast<std::size_t>(labels[r])), 1e-300));
    return total / static_cast<double>(probs.rows());
  }

  Matrix backward() const {
    Matrix grad = probs;
    const double inv_batch = 1.0 / static_cast<double>(grad.rows());
    for (std::size_t r = 0; r < grad.rows(); ++r) {
      grad(r, static_cast<std::size_t>(labels[r])) -= 1.0;
      for (std::size_t c = 0; c < grad.cols(); ++c) grad(r, c) *= inv_batch;
    }
    return grad;
  }
};

/// The layer-stack MultiHeadMlp, driving `model`'s parameters.
class Mlp {
 public:
  explicit Mlp(nn::MultiHeadMlp& model)
      : params_(model.parameters()), losses_(model.head_dense().size()) {
    for (nn::Dense* d : model.trunk_dense())
      trunk_.push_back({&d->weight(), &d->bias(), {}});
    relus_.resize(trunk_.size());
    for (nn::Dense* d : model.head_dense())
      heads_.push_back({&d->weight(), &d->bias(), {}});
  }

  std::vector<Matrix> forward(const Matrix& input) {
    Matrix x = input;
    for (std::size_t l = 0; l < trunk_.size(); ++l)
      x = relus_[l].forward(trunk_[l].forward(x));
    trunk_output_ = x;
    std::vector<Matrix> logits;
    for (Dense& head : heads_) logits.push_back(head.forward(x));
    return logits;
  }

  std::vector<std::vector<double>> predict_proba(
      std::span<const double> features) {
    Matrix input(1, features.size());
    for (std::size_t i = 0; i < features.size(); ++i)
      input(0, i) = features[i];
    std::vector<std::vector<double>> out;
    for (auto& l : forward(input)) {
      Matrix p = softmax(l);
      out.emplace_back(p.row(0).begin(), p.row(0).end());
    }
    return out;
  }

  double compute_gradients(const Matrix& input,
                           std::span<const std::vector<int>> labels) {
    zero_gradients();
    auto logits = forward(input);
    double total_loss = 0.0;
    Matrix trunk_grad(trunk_output_.rows(), trunk_output_.cols());
    for (std::size_t h = 0; h < heads_.size(); ++h) {
      total_loss += losses_[h].loss(logits[h], labels[h]);
      Matrix head_grad = losses_[h].backward();
      testref::axpy(1.0, heads_[h].backward(head_grad), trunk_grad);
    }
    Matrix g = trunk_grad;
    for (std::size_t l = trunk_.size(); l-- > 0;)
      g = trunk_[l].backward(relus_[l].backward(g));
    return total_loss;
  }

  void zero_gradients() {
    for (Parameter* p : params_) p->grad.fill(0.0);
  }

  const std::vector<Parameter*>& parameters() const { return params_; }

 private:
  std::vector<Parameter*> params_;
  std::vector<Dense> trunk_;
  std::vector<Relu> relus_;
  std::vector<Dense> heads_;
  std::vector<SoftmaxCrossEntropy> losses_;
  Matrix trunk_output_;
};

class Adam {
 public:
  Adam(std::vector<Parameter*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8)
      : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
        eps_(eps) {
    for (Parameter* p : params_) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
  }

  void step() {
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (std::size_t i = 0; i < params_.size(); ++i) {
      auto w = params_[i]->value.flat();
      auto g = params_[i]->grad.flat();
      auto m = m_[i].flat();
      auto v = v_[i].flat();
      for (std::size_t k = 0; k < w.size(); ++k) {
        m[k] = beta1_ * m[k] + (1.0 - beta1_) * g[k];
        v[k] = beta2_ * v[k] + (1.0 - beta2_) * g[k] * g[k];
        const double mhat = m[k] / bc1;
        const double vhat = v[k] / bc2;
        w[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      }
    }
  }

 private:
  std::vector<Parameter*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  double lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
};

inline Matrix gather_rows(const Matrix& src,
                          std::span<const std::size_t> idx) {
  Matrix out(idx.size(), src.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    auto dst = out.row(r);
    auto s = src.row(idx[r]);
    std::copy(s.begin(), s.end(), dst.begin());
  }
  return out;
}

inline double dataset_loss(Mlp& model, const nn::Dataset& data) {
  std::vector<std::vector<int>> labels(data.labels.begin(),
                                       data.labels.end());
  const double loss = model.compute_gradients(data.inputs, labels);
  model.zero_gradients();
  return loss;
}

inline nn::TrainResult fit(Mlp& model, const nn::Dataset& data,
                           const nn::TrainOptions& options) {
  Adam optimizer(model.parameters(), options.learning_rate);
  common::Rng rng(options.shuffle_seed);

  nn::TrainResult result;

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t heads = data.labels.size();

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = rng.uniform_index(i);
      std::swap(order[i - 1], order[j]);
    }
    for (std::size_t start = 0; start < order.size();
         start += options.batch_size) {
      const std::size_t end =
          std::min(start + options.batch_size, order.size());
      std::span<const std::size_t> idx{order.data() + start, end - start};
      Matrix batch = gather_rows(data.inputs, idx);
      std::vector<std::vector<int>> labels(heads);
      for (std::size_t h = 0; h < heads; ++h) {
        labels[h].reserve(idx.size());
        for (std::size_t i : idx) labels[h].push_back(data.labels[h][i]);
      }
      model.compute_gradients(batch, labels);
      optimizer.step();
    }
    ++result.epochs_run;
  }
  return result;
}

}  // namespace odin::testref
