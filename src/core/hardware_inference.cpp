#include "core/hardware_inference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math.hpp"
#include "common/parallel.hpp"

namespace odin::core {

namespace {

/// Cost in nanoseconds of one tile-partial element of the batched
/// reduction (its add plus a share of the rescale), the parallel_for work
/// hint: one lane read 1.5-1.8 ns on hw-crossbar's sweep right after the
/// tile tasks (4-vCPU Xeon, Sapphire Rapids, Release build).
constexpr std::size_t kElementCostNs = 2;

}  // namespace

HardwareMlpRunner::HardwareMlpRunner(nn::MultiHeadMlp& model,
                                     reram::DeviceParams device,
                                     int crossbar_size,
                                     std::uint64_t noise_seed)
    : device_(device), crossbar_size_(crossbar_size),
      noise_seed_(noise_seed) {
  auto lower = [&](nn::Dense* dense) {
    MappedLayer layer;
    const nn::Matrix& w = dense->weight().value;
    layer.in_features = w.rows();
    layer.out_features = w.cols();
    layer.bias.assign(dense->bias().value.flat().begin(),
                      dense->bias().value.flat().end());
    // Scale the layer into the cell range [-1, 1].
    double max_abs = 1e-12;
    for (double v : w.flat()) max_abs = std::max(max_abs, std::abs(v));
    layer.weight_scale = max_abs;
    layer.weights.reserve(w.size());
    for (double v : w.flat()) layer.weights.push_back(v / max_abs);
    layer.grid_rows = static_cast<int>(
        common::ceil_div(static_cast<std::int64_t>(layer.in_features),
                         crossbar_size_));
    layer.grid_cols = static_cast<int>(
        common::ceil_div(static_cast<std::int64_t>(layer.out_features),
                         crossbar_size_));
    layers_.push_back(std::move(layer));
  };
  for (nn::Dense* dense : model.trunk_dense()) lower(dense);
  const auto heads = model.head_dense();
  assert(!heads.empty());
  lower(heads.front());  // reference nets are single-head
  for (const MappedLayer& layer : layers_) {
    max_features_ = std::max({max_features_, layer.in_features,
                              layer.out_features});
    max_tiles_ = std::max(max_tiles_, layer.grid_rows * layer.grid_cols);
  }
  ensure_batch_scratch(1);
  program(device_.t0_s);
}

void HardwareMlpRunner::ensure_batch_scratch(int batch) {
  if (batch <= batch_capacity_) return;
  const std::size_t nb = static_cast<std::size_t>(batch);
  scaled_scratch_.resize(nb * max_features_);
  act_a_.resize(nb * max_features_);
  act_b_.resize(nb * max_features_);
  partial_scratch_.resize(static_cast<std::size_t>(max_tiles_) * nb *
                          crossbar_size_);
  in_scale_.resize(nb);
  batch_capacity_ = batch;
}

void HardwareMlpRunner::program(double t_s) {
  // Crossbars are independent: each one owns its own noise stream, derived
  // from the crossbar's global index so the parallel build assigns exactly
  // the seeds the sequential walk (one pre-incremented counter) would.
  std::uint64_t stream = noise_seed_;
  for (MappedLayer& layer : layers_) {
    const std::size_t cells = static_cast<std::size_t>(layer.grid_rows) *
                              static_cast<std::size_t>(layer.grid_cols);
    layer.crossbars.clear();
    layer.crossbars.resize(cells);
    const std::uint64_t layer_stream_base = stream;
    if (noise_seed_ != 0) stream += cells;
    // ~20ns per programmed cell (quantize + optional noise draws).
    const std::size_t program_cost_ns =
        static_cast<std::size_t>(crossbar_size_) * crossbar_size_ * 20;
    common::parallel_for_chunks(
        0, cells, 0,
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          // One scratch block per chunk, sized once to the full crossbar;
          // later resizes stay within capacity (no per-cell allocation).
          std::vector<double> block;
          block.reserve(static_cast<std::size_t>(crossbar_size_) *
                        crossbar_size_);
          for (std::size_t k = chunk_begin; k < chunk_end; ++k) {
            const int gr = static_cast<int>(k / layer.grid_cols);
            const int gc = static_cast<int>(k % layer.grid_cols);
            const int rows = std::min<std::int64_t>(
                crossbar_size_,
                static_cast<std::int64_t>(layer.in_features) -
                    static_cast<std::int64_t>(gr) * crossbar_size_);
            const int cols = std::min<std::int64_t>(
                crossbar_size_,
                static_cast<std::int64_t>(layer.out_features) -
                    static_cast<std::int64_t>(gc) * crossbar_size_);
            block.resize(static_cast<std::size_t>(rows) * cols);
            for (int r = 0; r < rows; ++r)
              for (int c = 0; c < cols; ++c)
                block[static_cast<std::size_t>(r) * cols + c] =
                    layer.weights[(static_cast<std::size_t>(gr) *
                                       crossbar_size_ +
                                   r) *
                                      layer.out_features +
                                  static_cast<std::size_t>(gc) *
                                      crossbar_size_ +
                                  c];
            auto xbar =
                noise_seed_ == 0
                    ? std::make_unique<reram::Crossbar>(crossbar_size_,
                                                        device_)
                    : std::make_unique<reram::Crossbar>(
                          crossbar_size_, device_,
                          reram::NoiseModel(reram::NoiseParams{},
                                            layer_stream_base + k + 1));
            xbar->program(block, rows, cols, t_s);
            layer.crossbars[k] = std::move(xbar);
          }
        },
        program_cost_ns);
  }
}

std::int64_t HardwareMlpRunner::programmed_cells() const noexcept {
  std::int64_t cells = 0;
  for (const MappedLayer& layer : layers_)
    for (const auto& xbar : layer.crossbars) cells += xbar->programmed_cells();
  return cells;
}

void HardwareMlpRunner::forward_layer(const MappedLayer& layer,
                                      std::span<const double> input,
                                      ou::OuConfig ou, double t_s,
                                      std::span<double> out) {
  assert(input.size() == layer.in_features);
  assert(out.size() == layer.out_features);
  const int adc_bits = adc_policy_.adc_bits(ou.rows);
  // Inputs are driven in [0, 1]-ish range; scale by the max magnitude so
  // the DAC range is used and undo afterwards (standard input scaling).
  double in_max = 1e-12;
  for (double v : input) in_max = std::max(in_max, std::abs(v));
  double* scaled = scaled_scratch_.data();
  for (std::size_t i = 0; i < input.size(); ++i)
    scaled[i] = input[i] / in_max;

  std::fill(out.begin(), out.end(), 0.0);
  // Grid-column tasks touch disjoint crossbars (each with its own noise
  // stream), disjoint output ranges and disjoint partial-sum slices; per
  // output column the partial sums accumulate in increasing-gr order
  // exactly as the sequential walk does, so the reduction is bitwise
  // deterministic. Cost hint: ~2ns per cell of the column strip.
  const std::size_t strip_cost_ns = static_cast<std::size_t>(
      static_cast<std::size_t>(layer.grid_rows) * crossbar_size_ *
      crossbar_size_ * 2);
  common::parallel_for(
      0, static_cast<std::size_t>(layer.grid_cols), 1,
      [&](std::size_t gc) {
        const std::size_t col0 = gc * crossbar_size_;
        double* partial = partial_scratch_.data() + gc * crossbar_size_;
        for (int gr = 0; gr < layer.grid_rows; ++gr) {
          const std::size_t row0 =
              static_cast<std::size_t>(gr) * crossbar_size_;
          const std::size_t rows =
              std::min<std::size_t>(crossbar_size_, layer.in_features - row0);
          const std::span<const double> slice{scaled + row0, rows};
          reram::Crossbar& xbar =
              *layer.crossbars[static_cast<std::size_t>(gr) *
                                   layer.grid_cols +
                               gc];
          const std::size_t cols =
              static_cast<std::size_t>(xbar.programmed_cols());
          xbar.mvm(slice, ou.rows, ou.cols, t_s, adc_bits,
                   std::span<double>(partial, cols));
          for (std::size_t c = 0; c < cols; ++c)
            out[col0 + c] += partial[c];
        }
      },
      strip_cost_ns);
  // Undo the scalings and add the (digitally stored) bias.
  for (std::size_t c = 0; c < out.size(); ++c)
    out[c] = out[c] * layer.weight_scale * in_max + layer.bias[c];
}

void HardwareMlpRunner::forward_layer(const MappedLayer& layer,
                                      const double* in, int batch,
                                      ou::OuConfig ou, double t_s, bool relu,
                                      double* out) {
  assert(batch >= 1 && batch <= batch_capacity_);
  const int adc_bits = adc_policy_.adc_bits(ou.rows);
  const std::size_t nb = static_cast<std::size_t>(batch);
  // DAC scaling, unit-stride across the batch: query b's scale is the
  // single-query path's std::max(m, |x|) chain over increasing features;
  // then every feature divides by it.
  double* scale = in_scale_.data();
  std::fill(scale, scale + nb, 1e-12);
  for (std::size_t f = 0; f < layer.in_features; ++f) {
    const double* x = in + f * nb;
    for (std::size_t b = 0; b < nb; ++b)
      scale[b] = std::max(scale[b], std::abs(x[b]));
  }
  double* scaled = scaled_scratch_.data();
  for (std::size_t i = 0; i < layer.in_features * nb; i += nb)
    for (std::size_t b = 0; b < nb; ++b)
      scaled[i + b] = in[i + b] / scale[b];
  // Every (gr, gc) crossbar tile is its own task: tasks touch disjoint
  // crossbars and write disjoint feature-major partial slabs (tile k's at
  // partial[k * batch * xbar_size], column c of query b at
  // [c * batch + b]); each crossbar reads its rows of the scaled panel in
  // place and evaluates the whole batch per visit.
  const std::size_t tiles = static_cast<std::size_t>(layer.grid_rows) *
                            static_cast<std::size_t>(layer.grid_cols);
  const std::size_t slab = nb * static_cast<std::size_t>(crossbar_size_);
  const std::size_t tile_cost_ns = static_cast<std::size_t>(crossbar_size_) *
                                   crossbar_size_ * nb * 2;
  double* partial = partial_scratch_.data();
  common::parallel_for(
      0, tiles, 1,
      [&](std::size_t k) {
        const std::size_t row0 =
            k / static_cast<std::size_t>(layer.grid_cols) * crossbar_size_;
        reram::Crossbar& xbar = *layer.crossbars[k];
        const std::size_t rows =
            static_cast<std::size_t>(xbar.programmed_rows());
        const std::size_t cols =
            static_cast<std::size_t>(xbar.programmed_cols());
        xbar.mvm({scaled + row0 * nb, rows * nb}, batch, ou.rows, ou.cols,
                 t_s, adc_bits, {partial + k * slab, cols * nb});
      },
      tile_cost_ns);
  // Reduce one grid column per task; out's rows of grid column gc are one
  // contiguous run, as is each tile's partial slab. Per output the tile
  // partials add in increasing gr from +0.0, as in the single-query path;
  // then the scalings are undone, the (digitally stored) bias added and,
  // between layers, ReLU applied in the output register.
  common::parallel_for(
      0, static_cast<std::size_t>(layer.grid_cols), 1,
      [&](std::size_t gc) {
        const std::size_t col0 = gc * crossbar_size_;
        const std::size_t cols =
            std::min<std::size_t>(crossbar_size_, layer.out_features - col0);
        const std::size_t n = cols * nb;
        double* o = out + col0 * nb;
        std::fill(o, o + n, 0.0);
        for (int gr = 0; gr < layer.grid_rows; ++gr) {
          const double* p =
              partial + (static_cast<std::size_t>(gr) * layer.grid_cols +
                         gc) * slab;
          for (std::size_t i = 0; i < n; ++i) o[i] += p[i];
        }
        for (std::size_t c = 0; c < cols; ++c) {
          const double bias = layer.bias[col0 + c];
          double* oc = o + c * nb;
          for (std::size_t b = 0; b < nb; ++b) {
            const double v = oc[b] * layer.weight_scale * scale[b] + bias;
            oc[b] = relu && v < 0.0 ? 0.0 : v;
          }
        }
      },
      static_cast<std::size_t>(crossbar_size_) * nb *
          static_cast<std::size_t>(layer.grid_rows) * kElementCostNs);
}

std::span<const double> HardwareMlpRunner::forward_all(
    std::span<const double> input, ou::OuConfig ou, double t_s) {
  std::copy(input.begin(), input.end(), act_a_.begin());
  std::size_t width = input.size();
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    forward_layer(layers_[i], {act_a_.data(), width}, ou, t_s,
                  {act_b_.data(), layers_[i].out_features});
    width = layers_[i].out_features;
    for (std::size_t j = 0; j < width; ++j)
      if (act_b_[j] < 0.0) act_b_[j] = 0.0;  // ReLU in the output register
    act_a_.swap(act_b_);
  }
  const MappedLayer& head = layers_.back();
  forward_layer(head, {act_a_.data(), width}, ou, t_s,
                {act_b_.data(), head.out_features});
  return {act_b_.data(), head.out_features};
}

std::vector<double> HardwareMlpRunner::logits(std::span<const double> input,
                                              ou::OuConfig ou, double t_s) {
  const auto out = forward_all(input, ou, t_s);
  return std::vector<double>(out.begin(), out.end());
}

int HardwareMlpRunner::predict(std::span<const double> input, ou::OuConfig ou,
                               double t_s) {
  return static_cast<int>(common::argmax(forward_all(input, ou, t_s)));
}

double HardwareMlpRunner::accuracy(const nn::Dataset& data, ou::OuConfig ou,
                                   double t_s) {
  if (data.size() == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (predict(data.inputs.row(i), ou, t_s) == data.labels[0][i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

std::span<const double> HardwareMlpRunner::forward_all(
    std::span<const double> inputs, int batch, std::size_t in_stride,
    ou::OuConfig ou, double t_s) {
  assert(batch >= 1);
  ensure_batch_scratch(batch);
  const std::size_t nb = static_cast<std::size_t>(batch);
  const std::size_t width = layers_.front().in_features;
  assert(in_stride >= width);
  assert(inputs.size() >= (nb - 1) * in_stride + width);
  // One transpose in: every layer reads and writes feature-major panels
  // (feature f of query b at act[f * batch + b]).
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t f = 0; f < width; ++f)
      act_a_[f * nb + b] = inputs[b * in_stride + f];
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    forward_layer(layers_[i], act_a_.data(), batch, ou, t_s,
                  /*relu=*/true, act_b_.data());
    act_a_.swap(act_b_);
  }
  const MappedLayer& head = layers_.back();
  forward_layer(head, act_a_.data(), batch, ou, t_s, /*relu=*/false,
                act_b_.data());
  // One transpose out: the logits panel, query-major.
  const std::size_t k = head.out_features;
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t c = 0; c < k; ++c)
      act_a_[b * k + c] = act_b_[c * nb + b];
  return {act_a_.data(), nb * k};
}

void HardwareMlpRunner::logits(std::span<const double> inputs, int batch,
                               std::size_t in_stride, ou::OuConfig ou,
                               double t_s, std::span<double> out) {
  const auto panel = forward_all(inputs, batch, in_stride, ou, t_s);
  assert(out.size() >= panel.size());
  std::copy(panel.begin(), panel.end(), out.begin());
}

void HardwareMlpRunner::predict(std::span<const double> inputs, int batch,
                                std::size_t in_stride, ou::OuConfig ou,
                                double t_s, std::span<int> out) {
  assert(out.size() >= static_cast<std::size_t>(batch));
  const auto panel = forward_all(inputs, batch, in_stride, ou, t_s);
  const std::size_t k = layers_.back().out_features;
  for (int b = 0; b < batch; ++b)
    out[static_cast<std::size_t>(b)] = static_cast<int>(
        common::argmax(panel.subspan(static_cast<std::size_t>(b) * k, k)));
}

double HardwareMlpRunner::accuracy(const nn::Dataset& data, ou::OuConfig ou,
                                   double t_s, int batch) {
  if (data.size() == 0) return 0.0;
  batch = std::max(batch, 1);
  std::vector<int> preds(static_cast<std::size_t>(batch));
  const std::size_t stride = data.inputs.cols();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); i += static_cast<std::size_t>(batch)) {
    const int b = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(batch),
                              data.size() - i));
    // Dataset rows are contiguous, so the row block is already a panel.
    predict({data.inputs.row(i).data(),
             (static_cast<std::size_t>(b) - 1) * stride + stride},
            b, stride, ou, t_s, preds);
    for (int k = 0; k < b; ++k)
      if (preds[static_cast<std::size_t>(k)] ==
          data.labels[0][i + static_cast<std::size_t>(k)])
        ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

}  // namespace odin::core
