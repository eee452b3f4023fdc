// The dataset loss of a library nn::MultiHeadMlp, for tests that check a
// fit lowered it or compare it with the reference engine's
// (reference_mlp.hpp). nn::fit evaluates no loss, so tests measure it
// here, before and after a fit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "nn/mlp.hpp"
#include "nn/train.hpp"

namespace odin::testref {

/// What MultiHeadMlp::compute_gradients returns on all of `data` (per head
/// the mean of −log p of the label, summed over heads), read from one
/// forward pass's logits, so the model's gradients are left untouched.
inline double mlp_loss(nn::MultiHeadMlp& model, const nn::Dataset& data) {
  std::vector<nn::Matrix> logits = model.forward(data.inputs);
  double total_loss = 0.0;
  for (std::size_t h = 0; h < logits.size(); ++h) {
    double total = 0.0;
    for (std::size_t r = 0; r < data.size(); ++r) {
      const std::span<double> p = logits[h].row(r);
      common::softmax_inplace(p);
      const auto y = static_cast<std::size_t>(data.labels[h][r]);
      total -= std::log(std::max(p[y], 1e-300));
    }
    total_loss += total / static_cast<double>(data.size());
  }
  return total_loss;
}

}  // namespace odin::testref
