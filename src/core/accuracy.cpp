#include "core/accuracy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.hpp"

namespace odin::core {

double AccuracyModel::loss_from_excess(double excess) const noexcept {
  if (excess <= 0.0) return 0.0;
  const double f = std::clamp(excess / params_.excess_saturation, 0.0, 1.0);
  return params_.max_drop * std::pow(f, params_.exponent);
}

double AccuracyModel::effective_excess(
    const ou::MappedModel& model, std::span<const ou::OuConfig> configs,
    double elapsed_s, const ou::NonIdealityModel& nonideal,
    double extra_nf) const {
  assert(configs.size() == model.layer_count());
  const int layer_count = static_cast<int>(model.layer_count());
  const auto& ni = nonideal.params();
  double weighted = 0.0;
  double weight_sum = 0.0;
  for (std::size_t j = 0; j < configs.size(); ++j) {
    const auto& layer = model.model().layers[j];
    const double s = nonideal.layer_sensitivity(layer.index, layer_count);
    const double total = nonideal.total_nf(elapsed_s, configs[j]);
    const double ir = nonideal.ir_nf(elapsed_s, configs[j]);
    const double excess =
        std::max(0.0, total + extra_nf - ni.eta_total) +
        params_.ir_excess_weight * std::max(0.0, s * ir - ni.eta_ir);
    weighted += s * excess;
    weight_sum += s;
  }
  return weight_sum > 0.0 ? weighted / weight_sum : 0.0;
}

double AccuracyModel::estimate(const ou::MappedModel& model,
                               std::span<const ou::OuConfig> configs,
                               double elapsed_s,
                               const ou::NonIdealityModel& nonideal,
                               double extra_nf) const {
  const double excess =
      effective_excess(model, configs, elapsed_s, nonideal, extra_nf);
  return params_.ideal_accuracy * (1.0 - loss_from_excess(excess));
}

double AccuracyModel::estimate_homogeneous(
    const ou::MappedModel& model, ou::OuConfig config, double elapsed_s,
    const ou::NonIdealityModel& nonideal, double extra_nf) const {
  std::vector<ou::OuConfig> configs(model.layer_count(), config);
  return estimate(model, configs, elapsed_s, nonideal, extra_nf);
}

MonteCarloAccuracy::MonteCarloAccuracy(const data::SyntheticDataset& dataset,
                                       MonteCarloConfig config)
    : config_(config),
      model_(
          nn::MlpConfig{
              .inputs = dataset.feature_count(config.pool),
              .hidden = {config.hidden},
              .heads = {static_cast<std::size_t>(dataset.spec().classes)}},
          config.seed) {
  // Disjoint train/test: one draw of train + test rows (row i depends only
  // on i), the first train_samples to train on and the rest held out.
  const nn::Dataset all = dataset.as_feature_dataset(
      config_.train_samples + config_.test_samples, config_.pool);
  auto take_rows = [&](std::size_t begin, std::size_t n) {
    nn::Dataset part;
    part.inputs = nn::Matrix(n, all.inputs.cols());
    part.labels.assign(1, std::vector<int>(n));
    for (std::size_t i = 0; i < n; ++i) {
      auto src = all.inputs.row(begin + i);
      std::copy(src.begin(), src.end(), part.inputs.row(i).begin());
      part.labels[0][i] = all.labels[0][begin + i];
    }
    return part;
  };
  train_ = take_rows(0, config_.train_samples);
  test_ = take_rows(config_.train_samples, config_.test_samples);

  nn::TrainOptions options;
  options.epochs = config_.epochs;
  options.batch_size = 32;
  options.learning_rate = 3e-3;
  options.shuffle_seed = config_.seed ^ 0x7a1b;
  nn::fit(model_, train_, options);

  for (nn::Parameter* p : model_.parameters()) pristine_.push_back(p->value);
}

double MonteCarloAccuracy::evaluate() {
  return nn::exact_match_accuracy(model_, test_);
}

double MonteCarloAccuracy::ideal_accuracy() { return evaluate(); }

double MonteCarloAccuracy::accuracy_under(double drift_nf, double ir_nf,
                                          std::uint64_t noise_seed) {
  common::Rng rng(config_.seed ^ (noise_seed * 0x9e3779b97f4a7c15ULL));
  const double shrink = std::clamp(1.0 - drift_nf, 0.0, 1.0);
  const double sigma = std::max(ir_nf, 0.0) * config_.ir_noise_scale;
  auto params = model_.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto w = params[i]->value.flat();
    for (double& v : w)
      v = v * shrink + sigma * std::abs(v) * rng.normal();
  }
  const double acc = evaluate();
  // Restore in place: the shapes never change, so copying into the live
  // storage avoids reallocating every parameter matrix per trial.
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto src = pristine_[i].flat();
    auto dst = params[i]->value.flat();
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return acc;
}

}  // namespace odin::core
