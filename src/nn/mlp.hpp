// Multi-head MLP: a shared Dense+ReLU trunk feeding any number of
// independent softmax classification heads.
//
// This is exactly the shape the paper gives Odin's OU policy ("one input
// layer with ReLU activation and two separate output layers with softmax",
// Sec. V-A): head 0 classifies the OU height index, head 1 the width index.
// The same class doubles as the single-head reference classifier used by the
// Monte-Carlo accuracy evaluator.
//
// Inference and training run as one forward and one backward pass over a
// workspace the model owns (DESIGN.md §19): no virtual calls, and no heap
// allocation once the workspace has grown to the largest batch seen. The
// products run on the row kernels of nn/tensor.hpp, or on AVX2 register
// tiles (mlp_avx2.hpp) where common::active_simd_mode() selects AVX2, and a
// large product's output columns run as tasks on common::ThreadPool. The
// arithmetic is that of a Dense -> ReLU -> ... -> Dense -> softmax layer
// stack, operation for operation, so every parameter and prediction is
// bitwise what the layer-by-layer engine computes. The Dense layers remain
// as parameter holders: parameters(), trunk_dense() and head_dense() expose
// them in the order policy blobs, checkpoints and the crossbar runner read.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/layers.hpp"

namespace odin::nn {

struct MlpConfig {
  std::size_t inputs = 4;
  std::vector<std::size_t> hidden = {16};  ///< trunk layer widths
  std::vector<std::size_t> heads = {6, 6}; ///< classes per output head
};

class MultiHeadMlp {
 public:
  MultiHeadMlp(MlpConfig config, std::uint64_t seed);

  // Move-only: a model is copied by copying its parameters explicitly
  // (OuPolicy::clone), never by accident.
  MultiHeadMlp(MultiHeadMlp&&) = default;
  MultiHeadMlp& operator=(MultiHeadMlp&&) = default;
  MultiHeadMlp(const MultiHeadMlp&) = delete;
  MultiHeadMlp& operator=(const MultiHeadMlp&) = delete;

  const MlpConfig& config() const noexcept { return config_; }

  /// Per-head logits for a batch of inputs ([batch x inputs]).
  std::vector<Matrix> forward(const Matrix& input);

  /// Per-head softmax probabilities for one sample.
  std::vector<std::vector<double>> predict_proba(
      std::span<const double> features);

  /// Per-head argmax class for one sample. The span views the model's
  /// workspace and is valid until the next call on this model.
  std::span<const int> predict(std::span<const double> features);

  /// One gradient step on a minibatch. `labels[h][r]` is the head-h class of
  /// row r. Gradients are zeroed, accumulated and returned as the summed
  /// cross-entropy loss across heads; the caller's optimizer applies them.
  double compute_gradients(const Matrix& input,
                           std::span<const std::vector<int>> labels);

  /// fit's step: the same gradients on the minibatch whose row r is input
  /// row rows[r], labelled labels[h][rows[r]], without the loss (fit never
  /// reads a step's loss, and it costs a log per row and head).
  void minibatch_gradients(const Matrix& input,
                           std::span<const std::vector<int>> labels,
                           std::span<const std::size_t> rows);

  /// All trainable parameters, trunk first, then heads in order.
  std::vector<Parameter*> parameters();

  /// The Dense layers of the trunk, in forward order (each is followed by a
  /// ReLU). Exposed for hardware-in-the-loop execution, which re-implements
  /// the forward pass on crossbar MVMs.
  std::vector<Dense*> trunk_dense();

  /// The per-head output Dense layers.
  std::vector<Dense*> head_dense();

  /// Total scalar parameter count (for the paper's storage-overhead math).
  std::size_t parameter_count();

 private:
  /// Scratch for the passes, sized for `rows` batch rows. It grows to the
  /// largest batch seen and never shrinks. It is per model, never static or
  /// thread_local: fleet shards train their own policies concurrently.
  struct Workspace {
    std::size_t rows = 0;
    std::vector<double> input;  ///< [rows x inputs] the batch's input rows
    /// [layer input l][rows x width_l]: the nonzero-index list of each row
    /// of the input to trunk layer l (l = trunk size: the heads' input),
    /// shared by the row kernels' forward product and weight gradient.
    std::vector<std::vector<std::uint32_t>> nz;
    std::vector<std::vector<std::uint32_t>> nz_count;  ///< [l][rows]
    std::vector<std::vector<double>> act;  ///< [trunk layer][rows x width]
    /// [head][rows x classes]: logits, then softmax, then dL/dlogits.
    std::vector<std::vector<double>> logits;
    std::vector<double> grad;       ///< [rows x max width] trunk dL/d(out)
    std::vector<double> grad_next;  ///< its successor, one layer down
    std::vector<double> head_grad;  ///< one row of a later head's dL/d(in)
    std::vector<double> wt;         ///< one transposed weight matrix
    std::vector<std::uint32_t> all; ///< 0, 1, ..., max width - 1
    std::vector<int> labels;        ///< [head][rows]
    std::vector<int> predicted;     ///< [head] predict()'s argmaxes
  };

  /// Width of the input to trunk layer l (l = trunk size: the heads).
  std::size_t input_width(std::size_t l) const noexcept;
  /// The [rows x input_width(l)] input to trunk layer l.
  const double* layer_input(std::size_t l) const noexcept;
  /// Row r of the input to trunk layer l.
  std::span<const double> input_row(std::size_t l, std::size_t r) const;
  std::span<const std::uint32_t> nonzeros(std::size_t l, std::size_t r) const;
  std::span<double> logit_row(std::size_t h, std::size_t r);

  /// Grows the workspace to hold `batch` rows.
  void reserve(std::size_t batch);
  /// Copies `batch` input rows, laid out row after row, into the batch.
  void bind_rows(std::span<const double> rows, std::size_t batch);
  /// Nonzero-index lists of the bound batch's rows of layer input l.
  void index_nonzeros(std::size_t l, std::size_t batch);
  /// Logits of the bound batch for every head.
  void forward_pass(std::size_t batch);
  /// Softmax probabilities of one sample, left in row 0 of each head.
  void infer(std::span<const double> features);
  /// Turns each head's logits into dL/dlogits; returns the summed loss
  /// when `with_loss`, else 0.0.
  double head_deltas(std::size_t batch, bool with_loss);
  /// Parameter gradients of the bound batch from head_deltas' dL/dlogits.
  void backward_pass(std::size_t batch);
  /// The passes' products over the bound batch's first `batch` rows, on the
  /// AVX2 tiles (mlp_avx2.hpp) when `tiles`, else on the row kernels. Each
  /// splits its output columns over the pool when it is large enough
  /// (DESIGN.md §9). y = (input of trunk layer l) W + b of `layer`, then
  /// ReLU when `relu`.
  void dense_forward(std::size_t l, Dense& layer, bool relu, double* y,
                     std::size_t batch, bool tiles);
  /// Overwrites `layer`'s weight and bias gradients from the input of trunk
  /// layer l and g = dL/d(layer output).
  void dense_weight_grad(std::size_t l, Dense& layer, const double* g,
                         std::size_t batch, bool tiles);
  /// dx = g W^T of `layer` (dx += g W^T when `accumulate`), through
  /// Workspace::wt.
  void dense_input_grad(Dense& layer, const double* g, bool accumulate,
                        double* dx, std::size_t batch, bool tiles);

  MlpConfig config_;
  std::vector<Dense> trunk_;
  std::vector<Dense> heads_;
  Workspace ws_;
};

}  // namespace odin::nn
