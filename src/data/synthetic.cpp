#include "data/synthetic.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <span>

#include "common/parallel.hpp"

namespace odin::data {

namespace {

/// A sample's pixels around its class prototype: one brightness draw, then
/// one noise draw per pixel in order. `out` may alias `prototype`.
void jitter(common::Rng& rng, std::span<const double> prototype,
            std::span<double> out) {
  const double brightness = rng.uniform(0.8, 1.2);
  for (std::size_t p = 0; p < out.size(); ++p)
    out[p] = prototype[p] * brightness + rng.normal(0.0, 0.25);
}

}  // namespace

DatasetSpec DatasetSpec::for_kind(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kCifar10:
      return {.name = "CIFAR-10", .channels = 3, .height = 32, .width = 32,
              .classes = 10};
    case DatasetKind::kCifar100:
      return {.name = "CIFAR-100", .channels = 3, .height = 32, .width = 32,
              .classes = 100};
    case DatasetKind::kTinyImageNet:
      return {.name = "TinyImageNet", .channels = 3, .height = 64,
              .width = 64, .classes = 200};
  }
  return {};
}

SyntheticDataset::SyntheticDataset(DatasetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  common::Rng rng(seed_);
  class_waves_.resize(static_cast<std::size_t>(spec_.classes));
  constexpr int kWavesPerClass = 6;
  for (auto& waves : class_waves_) {
    waves.reserve(kWavesPerClass);
    for (int w = 0; w < kWavesPerClass; ++w) {
      waves.push_back(Wave{
          .fx = rng.uniform(0.5, 4.0),
          .fy = rng.uniform(0.5, 4.0),
          .phase = rng.uniform(0.0, 2.0 * std::numbers::pi),
          .amp = rng.uniform(0.3, 1.0),
          .channel = static_cast<int>(rng.uniform_index(
              static_cast<std::uint64_t>(spec_.channels))),
      });
    }
  }
}

nn::Image SyntheticDataset::prototype(int label) const {
  assert(label >= 0 && label < spec_.classes);
  nn::Image img{spec_.channels, spec_.height, spec_.width,
                std::vector<double>(spec_.pixels(), 0.0)};
  for (const Wave& w : class_waves_[static_cast<std::size_t>(label)]) {
    for (int y = 0; y < spec_.height; ++y) {
      const double fy = static_cast<double>(y) / spec_.height;
      for (int x = 0; x < spec_.width; ++x) {
        const double fx = static_cast<double>(x) / spec_.width;
        img.at(w.channel, y, x) +=
            w.amp * std::sin(2.0 * std::numbers::pi *
                                 (w.fx * fx + w.fy * fy) +
                             w.phase);
      }
    }
  }
  return img;
}

common::Rng SyntheticDataset::stream(std::uint64_t index, int& label) const {
  common::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  label = static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(spec_.classes)));
  return rng;
}

Sample SyntheticDataset::sample(std::uint64_t index) const {
  Sample s;
  common::Rng rng = stream(index, s.label);
  s.image = prototype(s.label);
  jitter(rng, s.image.data, s.image.data);
  return s;
}

std::size_t SyntheticDataset::feature_count(int pool) const noexcept {
  const int ph = spec_.height / pool;
  const int pw = spec_.width / pool;
  return static_cast<std::size_t>(spec_.channels) * ph * pw;
}

nn::Dataset SyntheticDataset::as_feature_dataset(std::size_t n,
                                                 int pool) const {
  assert(pool >= 1 && spec_.height % pool == 0 && spec_.width % pool == 0);
  const int ph = spec_.height / pool;
  const int pw = spec_.width / pool;
  nn::Dataset ds;
  ds.inputs = nn::Matrix(n, feature_count(pool));
  ds.labels.assign(1, std::vector<int>(n, 0));
  // Each class's prototype once per call, then every row from its own
  // index-seeded stream as sample(i) draws it, on the pool.
  std::vector<std::vector<double>> prototypes(
      static_cast<std::size_t>(spec_.classes));
  common::parallel_for(0, prototypes.size(), 1, [&](std::size_t c) {
    prototypes[c] = prototype(static_cast<int>(c)).data;
  });
  const double inv_area = 1.0 / static_cast<double>(pool * pool);
  common::parallel_for_chunks(0, n, 0, [&](std::size_t b, std::size_t e) {
    nn::Image image{spec_.channels, spec_.height, spec_.width,
                    std::vector<double>(spec_.pixels())};
    for (std::size_t i = b; i < e; ++i) {
      int& label = ds.labels[0][i];
      common::Rng rng = stream(i, label);
      jitter(rng, prototypes[static_cast<std::size_t>(label)], image.data);
      std::size_t f = 0;
      for (int c = 0; c < spec_.channels; ++c) {
        for (int y = 0; y < ph; ++y) {
          for (int x = 0; x < pw; ++x, ++f) {
            double acc = 0.0;
            for (int dy = 0; dy < pool; ++dy)
              for (int dx = 0; dx < pool; ++dx)
                acc += image.at(c, y * pool + dy, x * pool + dx);
            ds.inputs(i, f) = acc * inv_area;
          }
        }
      }
    }
  });
  return ds;
}

}  // namespace odin::data
