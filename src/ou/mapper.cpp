#include "ou/mapper.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "common/math.hpp"

namespace odin::ou {

LayerMapping::LayerMapping(const dnn::LayerDescriptor& layer,
                           const dnn::WeightPattern& pattern,
                           int crossbar_size)
    : layer_(&layer), pattern_(&pattern), crossbar_size_(crossbar_size),
      cache_mutex_(std::make_unique<std::shared_mutex>()) {
  assert(pattern.rows() == layer.fan_in && pattern.cols() == layer.outputs);
  assert(crossbar_size > 0);
  crossbars_ = common::ceil_div(layer.fan_in, crossbar_size) *
               common::ceil_div(layer.outputs, crossbar_size);
}

std::int64_t LayerMapping::programmed_cells() const noexcept {
  return pattern_->nonzeros();
}

const OuCounts& LayerMapping::counts(OuConfig config) const {
  {
    std::shared_lock<std::shared_mutex> lock(*cache_mutex_);
    const auto it = cache_.find(config);
    if (it != cache_.end()) return it->second;
  }
  // Compute outside the lock: the scan is pure, and if two threads race on
  // the same config they produce identical values (first insert wins).
  OuCounts fresh = compute(config);
  std::unique_lock<std::shared_mutex> lock(*cache_mutex_);
  // std::map nodes are stable, so the reference survives later inserts.
  return cache_.emplace(config, fresh).first->second;
}

OuCounts LayerMapping::compute(OuConfig config) const {
  assert(config.rows >= 1 && config.cols >= 1);
  const int c = crossbar_size_;
  const int K = layer_->fan_in;
  const int M = layer_->outputs;
  const int R = std::min(config.rows, c);
  const int C = std::min(config.cols, c);

  OuCounts out;
  std::int64_t laid_out = 0;
  // Walk crossbars; within each, walk the OU grid anchored at the crossbar
  // origin. A band that R or C does not fill is clipped to its crossbar,
  // so OU blocks never straddle crossbar boundaries.
  for (int xr = 0; xr < K; xr += c) {
    const int xbar_rows = std::min(c, K - xr);
    for (int xc = 0; xc < M; xc += c) {
      const int xbar_cols = std::min(c, M - xc);
      std::int64_t live_here = 0;
      for (int r0 = 0; r0 < xbar_rows; r0 += R) {
        for (int c0 = 0; c0 < xbar_cols; c0 += C) {
          ++laid_out;
          if (pattern_->block_live(xr + r0, xc + c0,
                                   std::min(R, xbar_rows - r0),
                                   std::min(C, xbar_cols - c0)))
            ++live_here;
        }
      }
      out.live_blocks += live_here;
      out.max_blocks_per_xbar = std::max(out.max_blocks_per_xbar, live_here);
    }
  }
  const auto positions = static_cast<std::int64_t>(layer_->spatial_positions);
  out.total_ou_cycles = out.live_blocks * positions;
  out.max_ou_cycles_per_xbar = out.max_blocks_per_xbar * positions;
  out.occupancy = laid_out > 0 ? static_cast<double>(out.live_blocks) /
                                     static_cast<double>(laid_out)
                               : 0.0;
  return out;
}

}  // namespace odin::ou
