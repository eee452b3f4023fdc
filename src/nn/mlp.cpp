#include "nn/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "nn/mlp_avx2.hpp"

namespace odin::nn {

namespace {

/// Whether a pass runs its products on the AVX2 tiles (mlp_avx2.hpp)
/// rather than the row kernels of nn/tensor.hpp.
bool use_tiles() noexcept {
#if defined(ODIN_HAVE_AVX2)
  return common::active_simd_mode() == common::SimdMode::kAvx2;
#else
  return false;
#endif
}

/// Output columns per pool task of a split product: the AVX2 tile width.
constexpr std::size_t kSplitCols = 8;
/// Host time of one multiply-add of a product, measured on the AVX2 tiles
/// (DESIGN.md §9), and the multiply-adds that take the pool's cutoff at
/// that rate.
constexpr double kNsPerMac = 0.15;
constexpr auto kMinSplitMacs = static_cast<std::size_t>(
    common::ThreadPool::min_parallel_work_ns() / kNsPerMac);

/// Runs every product of a pass. product(j0, j1) computes the output
/// columns [j0, j1) of a rows x cols output, each element a sum of `terms`
/// products. A product estimated under the pool's cutoff is one call over
/// every column on the calling thread; a larger one runs as pool tasks over
/// blocks of kSplitCols columns. Each element is computed by exactly one
/// call, with the same terms in the same order, so the split changes no
/// bit at any thread count.
template <class Product>
void split_columns(std::size_t rows, std::size_t cols, std::size_t terms,
                   const Product& product) {
  if (rows * cols * terms < kMinSplitMacs) {
    product(std::size_t{0}, cols);
    return;
  }
  common::parallel_for_chunks(
      0, (cols + kSplitCols - 1) / kSplitCols, 0,
      [&](std::size_t b, std::size_t e) {
        product(b * kSplitCols, std::min(cols, e * kSplitCols));
      });
}

}  // namespace

MultiHeadMlp::MultiHeadMlp(MlpConfig config, std::uint64_t seed)
    : config_(std::move(config)) {
  assert(!config_.heads.empty());
  common::Rng rng(seed);
  std::size_t width = config_.inputs;
  std::size_t max_width = width;
  std::size_t max_transposed = 0;
  trunk_.reserve(config_.hidden.size());
  for (std::size_t h : config_.hidden) {
    if (!trunk_.empty()) max_transposed = std::max(max_transposed, width * h);
    trunk_.emplace_back(width, h, rng);
    width = h;
    max_width = std::max(max_width, h);
  }
  heads_.reserve(config_.heads.size());
  for (std::size_t classes : config_.heads) {
    heads_.emplace_back(width, classes, rng);
    max_width = std::max(max_width, classes);
    max_transposed = std::max(max_transposed, width * classes);
  }
  ws_.nz.resize(trunk_.size() + 1);
  ws_.nz_count.resize(trunk_.size() + 1);
  ws_.act.resize(trunk_.size());
  ws_.logits.resize(heads_.size());
  ws_.head_grad.resize(width);
  ws_.wt.resize(max_transposed);
  ws_.all.resize(max_width);
  all_indices(max_width, ws_.all.data());
  ws_.nll.resize(heads_.size());
  ws_.predicted.resize(heads_.size());
}

std::size_t MultiHeadMlp::input_width(std::size_t l) const noexcept {
  return l == 0 ? config_.inputs : config_.hidden[l - 1];
}

const double* MultiHeadMlp::layer_input(std::size_t l) const noexcept {
  return l == 0 ? ws_.input.data() : ws_.act[l - 1].data();
}

std::span<const double> MultiHeadMlp::input_row(std::size_t l,
                                                std::size_t r) const {
  const std::size_t width = input_width(l);
  return {layer_input(l) + r * width, width};
}

std::span<const std::uint32_t> MultiHeadMlp::nonzeros(std::size_t l,
                                                      std::size_t r) const {
  return {ws_.nz[l].data() + r * input_width(l), ws_.nz_count[l][r]};
}

std::span<double> MultiHeadMlp::logit_row(std::size_t h, std::size_t r) {
  const std::size_t classes = config_.heads[h];
  return {ws_.logits[h].data() + r * classes, classes};
}

void MultiHeadMlp::reserve(std::size_t batch) {
  if (batch <= ws_.rows) return;
  ws_.rows = batch;
  ws_.input.resize(batch * config_.inputs);
  for (std::size_t l = 0; l <= trunk_.size(); ++l) {
    ws_.nz[l].resize(batch * input_width(l));
    ws_.nz_count[l].resize(batch);
  }
  std::size_t max_hidden = 0;
  for (std::size_t l = 0; l < trunk_.size(); ++l) {
    ws_.act[l].resize(batch * config_.hidden[l]);
    max_hidden = std::max(max_hidden, config_.hidden[l]);
  }
  for (std::size_t h = 0; h < heads_.size(); ++h)
    ws_.logits[h].resize(batch * config_.heads[h]);
  ws_.grad.resize(batch * max_hidden);
  ws_.grad_next.resize(batch * max_hidden);
  ws_.labels.resize(batch * heads_.size());
}

void MultiHeadMlp::bind_rows(const Matrix& input, std::size_t first,
                             std::size_t batch) {
  assert(input.cols() == config_.inputs);
  reserve(batch);
  const auto rows = input.flat().subspan(first * config_.inputs,
                                         batch * config_.inputs);
  std::copy(rows.begin(), rows.end(), ws_.input.begin());
}

void MultiHeadMlp::index_nonzeros(std::size_t l, std::size_t batch) {
  const std::size_t width = input_width(l);
  for (std::size_t r = 0; r < batch; ++r)
    ws_.nz_count[l][r] = static_cast<std::uint32_t>(
        nonzero_indices(input_row(l, r), ws_.nz[l].data() + r * width));
}

void MultiHeadMlp::forward_pass(std::size_t batch) {
  const bool tiles = use_tiles();
  const std::size_t depth = trunk_.size();
  for (std::size_t l = 0; l < depth; ++l) {
    if (!tiles) index_nonzeros(l, batch);
    dense_forward(l, trunk_[l], true, ws_.act[l].data(), batch, tiles);
  }
  if (!tiles) index_nonzeros(depth, batch);
  for (std::size_t h = 0; h < heads_.size(); ++h)
    dense_forward(depth, heads_[h], false, ws_.logits[h].data(), batch,
                  tiles);
}

void MultiHeadMlp::infer(std::span<const double> features) {
  assert(features.size() == config_.inputs);
  reserve(1);
  std::copy(features.begin(), features.end(), ws_.input.begin());
  forward_pass(1);
  for (std::size_t h = 0; h < heads_.size(); ++h)
    common::softmax_inplace(logit_row(h, 0));
}

double MultiHeadMlp::head_deltas(std::size_t batch, bool with_loss) {
  const double inv_batch = 1.0 / static_cast<double>(batch);
  double total_loss = 0.0;
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    const int* labels = ws_.labels.data() + h * ws_.rows;
    double total = 0.0;
    for (std::size_t r = 0; r < batch; ++r) {
      const std::span<double> p = logit_row(h, r);
      common::softmax_inplace(p);
      const auto y = static_cast<std::size_t>(labels[r]);
      assert(y < p.size());
      if (with_loss) total -= std::log(std::max(p[y], 1e-300));
      // dL/dlogits = (p - onehot) / batch
      p[y] -= 1.0;
      for (double& v : p) v *= inv_batch;
    }
    total_loss += total / static_cast<double>(batch);
  }
  return total_loss;
}

void MultiHeadMlp::backward_pass(std::size_t batch) {
  const bool tiles = use_tiles();
  const std::size_t depth = trunk_.size();
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    dense_weight_grad(depth, heads_[h], ws_.logits[h].data(), batch, tiles);
    if (depth == 0) continue;  // the model input's gradient is unread
    // dL/d(trunk output): each head's dz W^T on its own, added in head
    // order onto head 0's.
    dense_input_grad(heads_[h], ws_.logits[h].data(), h > 0, ws_.grad.data(),
                     batch, tiles);
  }

  for (std::size_t l = depth; l-- > 0;) {
    // ReLU: no gradient where z <= 0, i.e. where the output a <= 0.
    const double* a = ws_.act[l].data();
    for (std::size_t i = 0; i < batch * config_.hidden[l]; ++i)
      ws_.grad[i] = a[i] <= 0.0 ? 0.0 : ws_.grad[i];
    dense_weight_grad(l, trunk_[l], ws_.grad.data(), batch, tiles);
    if (l == 0) break;  // the model input's gradient is unread
    dense_input_grad(trunk_[l], ws_.grad.data(), false,
                     ws_.grad_next.data(), batch, tiles);
    std::swap(ws_.grad, ws_.grad_next);
  }
}

void MultiHeadMlp::dense_forward(std::size_t l, Dense& layer, bool relu,
                                 double* y, std::size_t batch,
                                 [[maybe_unused]] bool tiles) {
  const std::size_t in = input_width(l);
  const std::size_t out = layer.weight().value.cols();
  const double* w = layer.weight().value.flat().data();
  const double* bias = layer.bias().value.flat().data();
  split_columns(batch, out, in, [&](std::size_t j0, std::size_t j1) {
#if defined(ODIN_HAVE_AVX2)
    if (tiles) {
      avx2::dense_forward(layer_input(l), batch, in, w, bias, out, relu, j0,
                          j1, y);
      return;
    }
#endif
    // Dense, then ReLU when `relu`: z = x W + b, a = z < 0 ? 0 : z.
    for (std::size_t r = 0; r < batch; ++r) {
      const std::span<double> z{y + r * out + j0, j1 - j0};
      std::fill(z.begin(), z.end(), 0.0);
      accumulate_rows(input_row(l, r), nonzeros(l, r), w + j0, out, z);
      for (std::size_t j = 0; j < z.size(); ++j) z[j] += bias[j0 + j];
      if (relu)
        for (double& a : z) a = a < 0.0 ? 0.0 : a;
    }
  });
}

void MultiHeadMlp::dense_weight_grad(std::size_t l, Dense& layer,
                                     const double* g, std::size_t batch,
                                     bool tiles) {
  const std::size_t in = input_width(l);
  const std::size_t out = layer.weight().value.cols();
  double* dw = layer.weight().grad.flat().data();
  double* db = layer.bias().grad.flat().data();
  // The tiles store every element. The row kernels accumulate into zeroed
  // storage, which equals the layer stack's zeros + 1.0 * dW: a sum started
  // at +0.0 is never -0.0.
  if (!tiles) {
    layer.weight().grad.fill(0.0);
    layer.bias().grad.fill(0.0);
  }
  split_columns(in, out, batch, [&](std::size_t j0, std::size_t j1) {
#if defined(ODIN_HAVE_AVX2)
    if (tiles) {
      avx2::dense_weight_grad(layer_input(l), batch, in, g, out, j0, j1, dw,
                              db);
      return;
    }
#endif
    for (std::size_t r = 0; r < batch; ++r) {
      const double* gr = g + r * out;
      accumulate_outer(input_row(l, r), nonzeros(l, r), {gr + j0, j1 - j0},
                       dw + j0, out);
      for (std::size_t j = j0; j < j1; ++j) db[j] += gr[j];
    }
  });
}

void MultiHeadMlp::dense_input_grad(Dense& layer, const double* g,
                                    bool accumulate, double* dx,
                                    std::size_t batch,
                                    [[maybe_unused]] bool tiles) {
  const std::size_t in = layer.weight().value.rows();
  const std::size_t out = layer.weight().value.cols();
  transpose_into(layer.weight().value, ws_.wt.data());
  const double* wt = ws_.wt.data();
  split_columns(batch, in, out, [&](std::size_t i0, std::size_t i1) {
#if defined(ODIN_HAVE_AVX2)
    if (tiles) {
      avx2::dense_input_grad(g, batch, out, wt, in, accumulate, i0, i1, dx);
      return;
    }
#endif
    // Every term is kept: the index list is all of [0, out).
    const std::span<const std::uint32_t> all{ws_.all.data(), out};
    for (std::size_t r = 0; r < batch; ++r) {
      const std::span<const double> gr{g + r * out, out};
      const std::span<double> d{dx + r * in + i0, i1 - i0};
      if (!accumulate) {
        std::fill(d.begin(), d.end(), 0.0);
        accumulate_rows(gr, all, wt + i0, in, d);
        continue;
      }
      // A later head's gradient is summed on its own, then added.
      const std::span<double> sum{ws_.head_grad.data() + i0, i1 - i0};
      std::fill(sum.begin(), sum.end(), 0.0);
      accumulate_rows(gr, all, wt + i0, in, sum);
      for (std::size_t i = 0; i < sum.size(); ++i) d[i] += sum[i];
    }
  });
}

std::vector<Matrix> MultiHeadMlp::forward(const Matrix& input) {
  const std::size_t batch = input.rows();
  bind_rows(input, 0, batch);
  forward_pass(batch);
  std::vector<Matrix> logits;
  logits.reserve(heads_.size());
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    Matrix& out = logits.emplace_back(batch, config_.heads[h]);
    std::copy_n(ws_.logits[h].begin(), out.size(), out.flat().begin());
  }
  return logits;
}

std::vector<std::vector<double>> MultiHeadMlp::predict_proba(
    std::span<const double> features) {
  infer(features);
  std::vector<std::vector<double>> out;
  out.reserve(heads_.size());
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    const std::span<const double> p = logit_row(h, 0);
    out.emplace_back(p.begin(), p.end());
  }
  return out;
}

std::span<const int> MultiHeadMlp::predict(std::span<const double> features) {
  infer(features);
  for (std::size_t h = 0; h < heads_.size(); ++h)
    ws_.predicted[h] = static_cast<int>(common::argmax(logit_row(h, 0)));
  return ws_.predicted;
}

double MultiHeadMlp::compute_gradients(
    const Matrix& input, std::span<const std::vector<int>> labels) {
  assert(labels.size() == heads_.size());
  const std::size_t batch = input.rows();
  bind_rows(input, 0, batch);
  for (std::size_t h = 0; h < heads_.size(); ++h)
    std::copy_n(labels[h].begin(), batch,
                ws_.labels.begin() + static_cast<std::ptrdiff_t>(h * ws_.rows));
  forward_pass(batch);
  const double total_loss = head_deltas(batch, true);
  backward_pass(batch);
  return total_loss;
}

void MultiHeadMlp::minibatch_gradients(
    const Matrix& input, std::span<const std::vector<int>> labels,
    std::span<const std::size_t> rows) {
  assert(input.cols() == config_.inputs && labels.size() == heads_.size());
  const std::size_t batch = rows.size();
  reserve(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    const auto row = input.row(rows[r]);
    std::copy(row.begin(), row.end(), ws_.input.data() + r * config_.inputs);
  }
  for (std::size_t h = 0; h < heads_.size(); ++h)
    for (std::size_t r = 0; r < batch; ++r)
      ws_.labels[h * ws_.rows + r] = labels[h][rows[r]];
  forward_pass(batch);
  head_deltas(batch, false);
  backward_pass(batch);
}

double MultiHeadMlp::loss(const Matrix& input,
                          std::span<const std::vector<int>> labels,
                          std::size_t chunk) {
  assert(labels.size() == heads_.size() && chunk > 0);
  const std::size_t n = input.rows();
  std::fill(ws_.nll.begin(), ws_.nll.end(), 0.0);
  for (std::size_t first = 0; first < n; first += chunk) {
    const std::size_t batch = std::min(chunk, n - first);
    bind_rows(input, first, batch);
    forward_pass(batch);
    for (std::size_t h = 0; h < heads_.size(); ++h) {
      for (std::size_t r = 0; r < batch; ++r) {
        const std::span<double> p = logit_row(h, r);
        common::softmax_inplace(p);
        const auto y = static_cast<std::size_t>(labels[h][first + r]);
        assert(y < p.size());
        ws_.nll[h] -= std::log(std::max(p[y], 1e-300));
      }
    }
  }
  double total = 0.0;
  for (double nll : ws_.nll) total += nll / static_cast<double>(n);
  return total;
}

std::vector<Dense*> MultiHeadMlp::trunk_dense() {
  std::vector<Dense*> out;
  out.reserve(trunk_.size());
  for (Dense& layer : trunk_) out.push_back(&layer);
  return out;
}

std::vector<Dense*> MultiHeadMlp::head_dense() {
  std::vector<Dense*> out;
  out.reserve(heads_.size());
  for (Dense& head : heads_) out.push_back(&head);
  return out;
}

std::vector<Parameter*> MultiHeadMlp::parameters() {
  std::vector<Parameter*> params;
  params.reserve(2 * (trunk_.size() + heads_.size()));
  for (Dense& layer : trunk_) {
    params.push_back(&layer.weight());
    params.push_back(&layer.bias());
  }
  for (Dense& head : heads_) {
    params.push_back(&head.weight());
    params.push_back(&head.bias());
  }
  return params;
}

std::size_t MultiHeadMlp::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->value.size();
  return n;
}

}  // namespace odin::nn
