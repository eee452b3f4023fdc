#include "nn/sequential.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/math.hpp"
#include "common/rng.hpp"

namespace odin::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Matrix Sequential::forward(const Matrix& input) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

double Sequential::compute_gradients(const Matrix& input,
                                     std::span<const int> labels) {
  zero_gradients();
  const Matrix logits = forward(input);
  const double loss = loss_.loss(logits, labels);
  Matrix g = loss_.backward();
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return loss;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_)
    for (Parameter* p : layer->parameters()) params.push_back(p);
  return params;
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->value.size();
  return n;
}

void Sequential::zero_gradients() {
  for (Parameter* p : parameters()) p->grad.fill(0.0);
}

int Sequential::predict(std::span<const double> features) {
  Matrix input(1, features.size());
  std::copy(features.begin(), features.end(), input.row(0).begin());
  const Matrix logits = forward(input);
  return static_cast<int>(common::argmax(logits.row(0)));
}

double Sequential::accuracy(const Dataset& data) {
  if (data.size() == 0) return 0.0;
  assert(data.labels.size() == 1);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (predict(data.inputs.row(i)) == data.labels[0][i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

TrainResult fit_sequential(Sequential& model, const Dataset& data,
                           const TrainOptions& options) {
  assert(data.size() > 0 && data.labels.size() == 1);
  Adam optimizer(model.parameters(), options.learning_rate);
  common::Rng rng(options.shuffle_seed);

  TrainResult result;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    for (std::size_t start = 0; start < order.size();
         start += options.batch_size) {
      const std::size_t end =
          std::min(start + options.batch_size, order.size());
      Matrix batch(end - start, data.inputs.cols());
      std::vector<int> labels(end - start);
      for (std::size_t i = start; i < end; ++i) {
        auto src = data.inputs.row(order[i]);
        std::copy(src.begin(), src.end(), batch.row(i - start).begin());
        labels[i - start] = data.labels[0][order[i]];
      }
      model.compute_gradients(batch, labels);
      optimizer.step();
    }
    ++result.epochs_run;
  }
  return result;
}

}  // namespace odin::nn
