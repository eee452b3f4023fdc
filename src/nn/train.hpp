// Optimizers and a small supervised-training loop for MultiHeadMlp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/mlp.hpp"

namespace odin::nn {

/// Adam optimizer. Bound to a fixed parameter list at construction; state
/// (first/second moments) is indexed positionally.
class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, double lr = 1e-2,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  /// Apply one update from the gradients currently stored in the parameters.
  /// A tensor large enough updates in chunks on common::ThreadPool, each
  /// weight by the same formula, so the result is the same at any thread
  /// count.
  void step();

  double learning_rate() const noexcept { return lr_; }
  void set_learning_rate(double lr) noexcept { lr_ = lr; }

 private:
  std::vector<Parameter*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  double lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
};

/// Plain SGD with optional momentum, same interface as Adam.
class Sgd {
 public:
  explicit Sgd(std::vector<Parameter*> params, double lr = 1e-1,
               double momentum = 0.0);
  void step();

 private:
  std::vector<Parameter*> params_;
  std::vector<Matrix> velocity_;
  double lr_, momentum_;
};

/// A supervised multi-head dataset: row i of `inputs` is labelled
/// `labels[h][i]` by head h.
struct Dataset {
  Matrix inputs;                         ///< [n x features]
  std::vector<std::vector<int>> labels;  ///< [heads][n]

  std::size_t size() const noexcept { return inputs.rows(); }
};

struct TrainOptions {
  int epochs = 100;           ///< paper Sec. V-E: policy trained 100 epochs
  std::size_t batch_size = 16;
  double learning_rate = 1e-2;
  std::uint64_t shuffle_seed = 0x5eed;
};

struct TrainResult {
  double initial_loss = 0.0;
  double final_loss = 0.0;
  int epochs_run = 0;
};

/// Minibatch-train `model` on `data` with Adam. Deterministic given the
/// options' shuffle seed, at any thread count. The losses are evaluated
/// batch_size rows at a time, so the model's workspace stays at batch_size
/// rows. An empty dataset, one whose labels do not match the heads (one
/// vector per head, one label per row, each in [0, classes)) or a zero
/// batch size is refused in every build: the weights are left untouched
/// and epochs_run is 0.
TrainResult fit(MultiHeadMlp& model, const Dataset& data,
                const TrainOptions& options = {});

/// Fraction of samples for which every head predicts its label exactly.
double exact_match_accuracy(MultiHeadMlp& model, const Dataset& data);

/// Per-head accuracies.
std::vector<double> per_head_accuracy(MultiHeadMlp& model,
                                      const Dataset& data);

}  // namespace odin::nn
