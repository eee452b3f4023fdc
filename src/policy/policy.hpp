// The OU configuration policy pi(Phi, Theta) — paper Sec. III-A / V-A.
//
// A multi-output MLP classifier: 4 input features, a small ReLU trunk, and
// two independent softmax heads of `grid.levels()` classes each (6 for a
// 128x128 crossbar) choosing the discrete OU height and width levels.
#pragma once

#include <cstdint>

#include "nn/mlp.hpp"
#include "nn/train.hpp"
#include "ou/ou_config.hpp"
#include "policy/features.hpp"

namespace odin::policy {

struct PolicyConfig {
  std::size_t hidden_width = 16;
  std::uint64_t init_seed = 0x0d1e;
};

class OuPolicy {
 public:
  OuPolicy(const ou::OuLevelGrid& grid, PolicyConfig config = {});

  /// Independent policy with identical parameters and fresh counters. The
  /// MLP is move-only (a copy would silently duplicate its training
  /// workspace too), so cloning copies the parameter values explicitly.
  OuPolicy clone();

  const ou::OuLevelGrid& grid() const noexcept { return grid_; }

  /// pi(Phi): the OU configuration the current parameters choose.
  ou::OuConfig predict(const Features& features);

  /// Per-head (row level, col level) probabilities.
  std::vector<std::vector<double>> predict_proba(const Features& features);

  /// Mean normalized entropy of the two output heads in [0, 1]: 0 = fully
  /// confident, 1 = uniform. Used by the entropy-gated search extension
  /// (skip the search when the policy is confident — cf. the authors'
  /// uncertainty-aware online learning line of work [27]).
  double prediction_entropy(const Features& features);

  /// Train on a supervised dataset of (Phi, best levels) rows.
  ///
  /// Hardened against non-finite supervision: NaN/Inf feature values are
  /// clamped before the gradient steps run (counted in
  /// `sanitized_inputs`), and if training still leaves any weight
  /// non-finite the pre-training parameters are restored wholesale
  /// (counted in `nonfinite_recoveries`), so predict() never sees a
  /// poisoned parameter set.
  nn::TrainResult train(const nn::Dataset& data,
                        const nn::TrainOptions& options);

  /// True when every parameter value is finite.
  bool weights_finite();

  /// Feature values clamped by train()'s input sanitizer (cumulative).
  std::size_t sanitized_inputs() const noexcept { return sanitized_inputs_; }
  /// Trainings whose result was discarded for non-finite weights.
  std::size_t nonfinite_recoveries() const noexcept {
    return nonfinite_recoveries_;
  }

  /// Build one supervised row from a feature vector and a best config.
  static void append_example(nn::Dataset& data, const Features& features,
                             const ou::OuLevelGrid& grid,
                             ou::OuConfig best);

  nn::MultiHeadMlp& mlp() noexcept { return mlp_; }
  std::size_t parameter_count() { return mlp_.parameter_count(); }

 private:
  ou::OuLevelGrid grid_;
  PolicyConfig config_;
  nn::MultiHeadMlp mlp_;
  std::size_t sanitized_inputs_ = 0;
  std::size_t nonfinite_recoveries_ = 0;
};

}  // namespace odin::policy
