#include "nn/train.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace odin::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

namespace {

// One parameter's Adam update over its contiguous value/grad/moment spans.
// The restrict-qualified spans (and odin_nn's -fno-math-errno) let the
// compiler vectorize it; packed divide and square root round exactly like
// their scalar forms, so the update is the per-element formula bit for bit.
void adam_update(double* __restrict w, const double* __restrict g,
                 double* __restrict m, double* __restrict v, std::size_t n,
                 double lr, double beta1, double beta2, double eps,
                 double bc1, double bc2) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    m[k] = beta1 * m[k] + (1.0 - beta1) * g[k];
    v[k] = beta2 * v[k] + (1.0 - beta2) * g[k] * g[k];
    const double mhat = m[k] / bc1;
    const double vhat = v[k] / bc2;
    w[k] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

/// Host time of one weight's update, measured (DESIGN.md §9); it sizes a
/// tensor against the pool's cutoff.
constexpr std::size_t kAdamNsPerWeight = 3;

}  // namespace

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    double* w = params_[i]->value.flat().data();
    const double* g = params_[i]->grad.flat().data();
    double* m = m_[i].flat().data();
    double* v = v_[i].flat().data();
    const std::size_t n = m_[i].size();
    if (n * kAdamNsPerWeight < common::ThreadPool::min_parallel_work_ns()) {
      adam_update(w, g, m, v, n, lr_, beta1_, beta2_, eps_, bc1, bc2);
      continue;
    }
    // A large tensor updates in contiguous chunks on the pool: each weight
    // is still one task's, by the same formula.
    common::parallel_for_chunks(0, n, 0, [&](std::size_t b, std::size_t e) {
      adam_update(w + b, g + b, m + b, v + b, e - b, lr_, beta1_, beta2_,
                  eps_, bc1, bc2);
    });
  }
}

Sgd::Sgd(std::vector<Parameter*> params, double lr, double momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_)
    velocity_.emplace_back(p->value.rows(), p->value.cols());
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto w = params_[i]->value.flat();
    auto g = params_[i]->grad.flat();
    auto vel = velocity_[i].flat();
    for (std::size_t k = 0; k < w.size(); ++k) {
      vel[k] = momentum_ * vel[k] - lr_ * g[k];
      w[k] += vel[k];
    }
  }
}

namespace {

/// Whether fit can train `model` on `data`: at least one row, a label
/// vector per head, one label per row, each inside its head's classes, and
/// a nonzero batch. An out-of-range label would index past a row of
/// probabilities, and an empty dataset has nothing to fit, so this is
/// checked in every build, not asserted.
bool trainable(const MultiHeadMlp& model, const Dataset& data,
               const TrainOptions& options) {
  const MlpConfig& config = model.config();
  if (data.size() == 0 || options.batch_size == 0 ||
      data.inputs.cols() != config.inputs ||
      data.labels.size() != config.heads.size())
    return false;
  for (std::size_t h = 0; h < config.heads.size(); ++h) {
    if (data.labels[h].size() != data.size()) return false;
    for (int y : data.labels[h])
      if (y < 0 || static_cast<std::size_t>(y) >= config.heads[h])
        return false;
  }
  return true;
}

}  // namespace

TrainResult fit(MultiHeadMlp& model, const Dataset& data,
                const TrainOptions& options) {
  TrainResult result;
  if (!trainable(model, data, options)) return result;

  Adam optimizer(model.parameters(), options.learning_rate);
  common::Rng rng(options.shuffle_seed);

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    // Fisher-Yates with our deterministic RNG.
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = rng.uniform_index(i);
      std::swap(order[i - 1], order[j]);
    }
    for (std::size_t start = 0; start < order.size();
         start += options.batch_size) {
      const std::size_t end =
          std::min(start + options.batch_size, order.size());
      model.minibatch_gradients(
          data.inputs, data.labels,
          std::span<const std::size_t>{order.data() + start, end - start});
      optimizer.step();
    }
    ++result.epochs_run;
  }
  return result;
}

double exact_match_accuracy(MultiHeadMlp& model, const Dataset& data) {
  if (data.size() == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto pred = model.predict(data.inputs.row(i));
    bool all = true;
    for (std::size_t h = 0; h < pred.size(); ++h)
      all = all && pred[h] == data.labels[h][i];
    if (all) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

std::vector<double> per_head_accuracy(MultiHeadMlp& model,
                                      const Dataset& data) {
  const std::size_t heads = data.labels.size();
  std::vector<double> acc(heads, 0.0);
  if (data.size() == 0) return acc;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto pred = model.predict(data.inputs.row(i));
    for (std::size_t h = 0; h < heads; ++h)
      if (pred[h] == data.labels[h][i]) acc[h] += 1.0;
  }
  for (double& a : acc) a /= static_cast<double>(data.size());
  return acc;
}

}  // namespace odin::nn
