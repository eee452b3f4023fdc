#include "dnn/pruning.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace odin::dnn {
namespace {

/// Deterministic per-(layer, row) generator: both pruning passes must see
/// identical magnitude streams.
common::Rng row_rng(std::uint64_t layer_seed, int row) {
  std::uint64_t s = layer_seed ^ (0xd1b54a32d192ed03ULL *
                                  (static_cast<std::uint64_t>(row) + 1));
  return common::Rng(common::splitmix64(s));
}

double row_importance(common::Rng& rng, double sigma) {
  return std::exp(sigma * rng.normal());
}

/// Relative widening of pass 2's early-reject bound. Rounding in the
/// magnitude chain is below 1e-15 relative, so 1e-6 leaves orders of
/// magnitude of room and sends only a ~1e-6 share of weights down the
/// exact path.
constexpr double kRejectMargin = 1e-6;

/// Rough cost of one weight in either pass (ns), for the pool's cutoff
/// that keeps small layers inline.
constexpr std::size_t kNsPerWeight = 25;

}  // namespace

double target_sparsity(const LayerDescriptor& layer) {
  if (layer.type == LayerType::kDepthwise) {
    // Structural block-diagonal zeros dominate; within each k*k filter
    // block only mild magnitude pruning is possible.
    const double per_filter = static_cast<double>(layer.kernel) *
                              layer.kernel / layer.fan_in;
    return std::clamp(1.0 - per_filter * 0.9, 0.10, 0.999);
  }
  double s = 0.16 * std::log(static_cast<double>(layer.fan_in)) - 0.28;
  if (layer.type == LayerType::kConv && layer.kernel == 1) s -= 0.15;
  if (layer.type == LayerType::kFullyConnected) s -= 0.08;
  if (layer.type == LayerType::kAttention) s -= 0.05;
  return std::clamp(s, 0.10, 0.80);
}

/// Depthwise layers are block-diagonal by construction: column c's weights
/// live in rows [k*k*c, k*k*(c+1)); ~10% of in-block weights are magnitude
/// pruned.
WeightPattern prune_depthwise(const LayerDescriptor& layer,
                              std::uint64_t seed) {
  const int filter = layer.kernel * layer.kernel;
  WeightPattern pattern(layer.fan_in, layer.outputs);
  common::Rng rng(seed ^ 0xdee9f11ceULL);
  for (int c = 0; c < layer.outputs; ++c) {
    bool any = false;
    for (int t = 0; t < filter; ++t) {
      const int r = c * filter + t;
      if (r >= layer.fan_in) break;
      if (rng.bernoulli(0.9)) {
        pattern.set(r, c);
        any = true;
      }
    }
    if (!any && c * filter < layer.fan_in) pattern.set(c * filter, c);
  }
  return pattern;
}

WeightPattern prune_layer(const LayerDescriptor& layer, std::uint64_t seed,
                          const PruningConfig& config) {
  assert(layer.fan_in > 0 && layer.outputs > 0);
  if (layer.type == LayerType::kDepthwise)
    return prune_depthwise(layer, seed);
  common::Rng jitter_rng(seed ^ 0xabcdef12345ULL);
  const double target = std::clamp(
      target_sparsity(layer) +
          jitter_rng.uniform(-config.sparsity_jitter, config.sparsity_jitter),
      0.05, 0.95);

  const std::int64_t total = layer.weight_count();
  const std::int64_t stride = std::max<std::int64_t>(
      1, total / std::max<std::int64_t>(1, config.quantile_samples));
  const double sigma = config.row_importance_sigma;
  const auto rows = static_cast<std::size_t>(layer.fan_in);
  const std::int64_t cols = layer.outputs;

  // Pass 1: the magnitudes at flat indices 0, stride, 2*stride, ... form
  // the quantile sample; row r fills its own slots. Every other weight
  // only advances the row's stream. The sample is freed before the mask
  // is allocated, so the two never coexist.
  const double threshold = [&] {
    std::vector<double> sample(
        static_cast<std::size_t>((total + stride - 1) / stride));
    common::parallel_for(
        0, rows, 0,
        [&](std::size_t r) {
          common::Rng rng = row_rng(seed, static_cast<int>(r));
          const double imp = row_importance(rng, sigma);
          const std::int64_t first = static_cast<std::int64_t>(r) * cols;
          std::int64_t slot = (first + stride - 1) / stride;
          std::int64_t next = slot * stride - first;  // next sampled column
          for (std::int64_t c = 0; c < cols; ++c) {
            if (c == next) {
              sample[static_cast<std::size_t>(slot++)] =
                  imp * std::abs(rng.normal());
              next += stride;
            } else {
              rng.discard_normal();
            }
          }
        },
        static_cast<std::size_t>(cols) * kNsPerWeight);
    // target <= 0.95 keeps the cut inside the sample.
    const auto cut = static_cast<std::size_t>(
        target * static_cast<double>(sample.size()));
    assert(cut < sample.size());
    std::nth_element(sample.begin(),
                     sample.begin() + static_cast<std::ptrdiff_t>(cut),
                     sample.end());
    return sample[cut];
  }();

  // Pass 2: regenerate the identical stream; keep weights above threshold.
  // |cos| <= 1 bounds a magnitude by imp * sqrt(-2 ln u1), so a weight whose
  // u1 exceeds exp(-(threshold/imp)^2 / 2) cannot reach the threshold and
  // skips log/cos; the margin absorbs rounding (DESIGN.md §21).
  WeightPattern pattern(layer.fan_in, layer.outputs);
  common::parallel_for(
      0, rows, 0,
      [&](std::size_t r) {
        common::Rng rng = row_rng(seed, static_cast<int>(r));
        const double imp = row_importance(rng, sigma);
        const double ratio = threshold / imp;
        const double reject_above =
            std::exp(-0.5 * ratio * ratio) * (1.0 + kRejectMargin);
        const std::span<std::uint64_t> words =
            pattern.row_words(static_cast<int>(r));
        for (std::int64_t c = 0; c < cols; ++c) {
          const double u1 = rng.uniform_positive();
          const double u2 = rng.uniform();
          if (u1 > reject_above) continue;
          if (imp * std::abs(common::Rng::box_muller(u1, u2)) >= threshold)
            words[static_cast<std::size_t>(c >> 6)] |= 1ULL << (c & 63);
        }
      },
      static_cast<std::size_t>(cols) * kNsPerWeight);
  pattern.recount();
  // Never prune a layer to fully-zero: keep at least one weight so the
  // mapper always has work (mirrors real pruners' per-layer floors).
  if (pattern.nonzeros() == 0) pattern.set(0, 0);
  return pattern;
}

PrunedModel prune_model(DnnModel model, std::uint64_t seed,
                        const PruningConfig& config) {
  PrunedModel out;
  out.patterns.reserve(model.layers.size());
  for (auto& layer : model.layers) {
    const std::uint64_t layer_seed =
        seed ^ (0x9e3779b97f4a7c15ULL *
                (static_cast<std::uint64_t>(layer.index) + 17));
    out.patterns.push_back(prune_layer(layer, layer_seed, config));
    layer.weight_sparsity = out.patterns.back().sparsity();
  }
  out.model = std::move(model);
  return out;
}

}  // namespace odin::dnn
