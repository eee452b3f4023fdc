// Pinned reference pruner: the serial two-pass magnitude path of
// dnn::prune_layer as it stood before the row-parallel rewrite. Pass 1
// draws every weight's magnitude through Rng::normal() and keeps a strided
// sample, a full sort picks the quantile threshold, and pass 2 redraws every
// magnitude and keeps those at or above it. The row-parallel pruner in
// dnn/pruning.cpp must produce bitwise-identical masks —
// tests/test_dnn_pruning.cpp enforces it. Depthwise layers take a separate,
// unchanged path and are not covered here.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dnn/pattern.hpp"
#include "dnn/pruning.hpp"

namespace odin::testref {

inline common::Rng row_rng(std::uint64_t layer_seed, int row) {
  std::uint64_t s = layer_seed ^ (0xd1b54a32d192ed03ULL *
                                  (static_cast<std::uint64_t>(row) + 1));
  return common::Rng(common::splitmix64(s));
}

inline double row_importance(common::Rng& rng, double sigma) {
  return std::exp(sigma * rng.normal());
}

/// config.quantile_samples must be positive (the reference divides by it).
inline dnn::WeightPattern prune_layer(const dnn::LayerDescriptor& layer,
                                      std::uint64_t seed,
                                      const dnn::PruningConfig& config = {}) {
  assert(layer.fan_in > 0 && layer.outputs > 0);
  assert(layer.type != dnn::LayerType::kDepthwise);
  common::Rng jitter_rng(seed ^ 0xabcdef12345ULL);
  const double target = std::clamp(
      dnn::target_sparsity(layer) +
          jitter_rng.uniform(-config.sparsity_jitter, config.sparsity_jitter),
      0.05, 0.95);

  const std::int64_t total = layer.weight_count();
  const std::int64_t stride =
      std::max<std::int64_t>(1, total / config.quantile_samples);

  // Pass 1: strided sample of magnitudes -> quantile threshold.
  std::vector<double> sample;
  sample.reserve(static_cast<std::size_t>(total / stride + 1));
  std::int64_t flat = 0;
  for (int r = 0; r < layer.fan_in; ++r) {
    common::Rng rng = row_rng(seed, r);
    const double imp = row_importance(rng, config.row_importance_sigma);
    for (int c = 0; c < layer.outputs; ++c, ++flat) {
      const double mag = imp * std::abs(rng.normal());
      if (flat % stride == 0) sample.push_back(mag);
    }
  }
  std::sort(sample.begin(), sample.end());
  const auto cut = static_cast<std::size_t>(
      target * static_cast<double>(sample.size()));
  const double threshold =
      cut >= sample.size() ? sample.back() + 1.0 : sample[cut];

  // Pass 2: regenerate the identical stream; keep weights above threshold.
  dnn::WeightPattern pattern(layer.fan_in, layer.outputs);
  for (int r = 0; r < layer.fan_in; ++r) {
    common::Rng rng = row_rng(seed, r);
    const double imp = row_importance(rng, config.row_importance_sigma);
    for (int c = 0; c < layer.outputs; ++c) {
      const double mag = imp * std::abs(rng.normal());
      if (mag >= threshold) pattern.set(r, c);
    }
  }
  if (pattern.nonzeros() == 0) pattern.set(0, 0);
  return pattern;
}

}  // namespace odin::testref
