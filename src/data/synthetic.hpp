// Procedural image-classification datasets.
//
// Substitution (DESIGN.md §3): the paper evaluates on CIFAR-10, CIFAR-100
// and TinyImageNet. Odin's models consume only dataset *shape* (input
// dimensions, class count) and the layer sparsity of the pruned networks —
// never pixel content — so we generate separable synthetic datasets with the
// same shapes. Each class gets a smooth procedural prototype (sum of random
// sinusoids); samples are noisy, brightness-jittered draws around it. A
// small classifier trained on these reaches high accuracy, which gives the
// Monte-Carlo accuracy evaluator real headroom to *lose* when conductance
// errors are injected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/conv.hpp"
#include "nn/train.hpp"

namespace odin::data {

enum class DatasetKind { kCifar10, kCifar100, kTinyImageNet };

struct DatasetSpec {
  std::string name;
  int channels = 3;
  int height = 32;
  int width = 32;
  int classes = 10;

  static DatasetSpec for_kind(DatasetKind kind);
  std::size_t pixels() const noexcept {
    return static_cast<std::size_t>(channels) * height * width;
  }
};

struct Sample {
  nn::Image image;
  int label = 0;
};

class SyntheticDataset {
 public:
  SyntheticDataset(DatasetSpec spec, std::uint64_t seed);

  const DatasetSpec& spec() const noexcept { return spec_; }

  /// Deterministic sample `index` (same index -> same sample).
  Sample sample(std::uint64_t index) const;

  /// Samples 0..n-1 flattened to a feature matrix, optionally spatially
  /// downsampled by `pool` (e.g. pool=4 turns 32x32 into 8x8) so reference
  /// classifiers stay small. Single-head labels. Row i is sample(i) pooled,
  /// bit for bit; the rows are drawn on common::ThreadPool.
  nn::Dataset as_feature_dataset(std::size_t n, int pool = 4) const;

  /// Feature count produced by as_feature_dataset for a given pool.
  std::size_t feature_count(int pool) const noexcept;

 private:
  nn::Image prototype(int label) const;
  /// The stream sample `index` draws from, seeded by the index alone, after
  /// its first draw: the sample's `label`.
  common::Rng stream(std::uint64_t index, int& label) const;

  DatasetSpec spec_;
  std::uint64_t seed_;
  // Per-class sinusoid banks, generated once.
  struct Wave {
    double fx, fy, phase, amp;
    int channel;
  };
  std::vector<std::vector<Wave>> class_waves_;
};

}  // namespace odin::data
