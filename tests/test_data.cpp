// Tests for the synthetic dataset substrate (CIFAR/TinyImageNet-shaped).
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/parallel.hpp"
#include "data/synthetic.hpp"

namespace odin::data {
namespace {

TEST(DatasetSpec, PaperShapes) {
  const auto c10 = DatasetSpec::for_kind(DatasetKind::kCifar10);
  EXPECT_EQ(c10.classes, 10);
  EXPECT_EQ(c10.height, 32);
  EXPECT_EQ(c10.pixels(), 3u * 32 * 32);
  const auto c100 = DatasetSpec::for_kind(DatasetKind::kCifar100);
  EXPECT_EQ(c100.classes, 100);
  const auto tin = DatasetSpec::for_kind(DatasetKind::kTinyImageNet);
  EXPECT_EQ(tin.classes, 200);
  EXPECT_EQ(tin.height, 64);
}

TEST(SyntheticDataset, SamplesAreDeterministicByIndex) {
  SyntheticDataset ds(DatasetSpec::for_kind(DatasetKind::kCifar10), 42);
  const Sample a = ds.sample(7);
  const Sample b = ds.sample(7);
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.image.size(), b.image.size());
  for (std::size_t i = 0; i < a.image.size(); ++i)
    EXPECT_DOUBLE_EQ(a.image.data[i], b.image.data[i]);
}

TEST(SyntheticDataset, DifferentSeedsGiveDifferentData) {
  const auto spec = DatasetSpec::for_kind(DatasetKind::kCifar10);
  SyntheticDataset a(spec, 1), b(spec, 2);
  const Sample sa = a.sample(0);
  const Sample sb = b.sample(0);
  bool differs = sa.label != sb.label;
  for (std::size_t i = 0; !differs && i < sa.image.size(); ++i)
    differs = sa.image.data[i] != sb.image.data[i];
  EXPECT_TRUE(differs);
}

TEST(SyntheticDataset, LabelsSpanAllClasses) {
  SyntheticDataset ds(DatasetSpec::for_kind(DatasetKind::kCifar10), 3);
  std::set<int> seen;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const int label = ds.sample(i).label;
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
    seen.insert(label);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(SyntheticDataset, FeatureDatasetShape) {
  SyntheticDataset ds(DatasetSpec::for_kind(DatasetKind::kCifar10), 5);
  const auto feats = ds.as_feature_dataset(20, 4);
  EXPECT_EQ(feats.inputs.rows(), 20u);
  EXPECT_EQ(feats.inputs.cols(), 3u * 8 * 8);
  EXPECT_EQ(feats.inputs.cols(), ds.feature_count(4));
  ASSERT_EQ(feats.labels.size(), 1u);
  EXPECT_EQ(feats.labels[0].size(), 20u);
}

TEST(SyntheticDataset, FeatureRowsArePooledSamplesAtAnyThreadCount) {
  // as_feature_dataset draws its rows on the pool around a per-call table
  // of class prototypes: at 1 and 4 threads it is the same dataset, bit
  // for bit, and row i is sample(i) averaged over 4x4 blocks.
  const SyntheticDataset ds(DatasetSpec::for_kind(DatasetKind::kCifar10), 21);
  common::ThreadPool& pool = common::ThreadPool::instance();
  const int threads = pool.threads();
  pool.set_threads(1);
  const nn::Dataset one = ds.as_feature_dataset(40, 4);
  pool.set_threads(4);
  const nn::Dataset four = ds.as_feature_dataset(40, 4);
  pool.set_threads(threads);
  ASSERT_EQ(one.inputs.size(), four.inputs.size());
  EXPECT_EQ(std::memcmp(one.inputs.flat().data(), four.inputs.flat().data(),
                        one.inputs.size() * sizeof(double)),
            0);
  EXPECT_EQ(one.labels, four.labels);
  for (std::size_t i = 0; i < one.size(); ++i) {
    const Sample s = ds.sample(i);
    EXPECT_EQ(one.labels[0][i], s.label) << "row " << i;
    std::size_t f = 0;
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x, ++f) {
          double acc = 0.0;
          for (int dy = 0; dy < 4; ++dy)
            for (int dx = 0; dx < 4; ++dx)
              acc += s.image.at(c, 4 * y + dy, 4 * x + dx);
          const double pooled = acc * (1.0 / 16.0);
          const double row = one.inputs(i, f);
          ASSERT_EQ(std::memcmp(&pooled, &row, sizeof(double)), 0)
              << "row " << i << " feature " << f;
        }
  }
}

TEST(SyntheticDataset, ClassesAreSeparableByNearestPrototype) {
  // A 1-nearest-centroid classifier on training features should beat chance
  // by a wide margin — this is the property the Monte-Carlo accuracy
  // evaluator depends on.
  SyntheticDataset ds(DatasetSpec::for_kind(DatasetKind::kCifar10), 11);
  const auto train = ds.as_feature_dataset(400, 4);
  const std::size_t dim = train.inputs.cols();
  std::vector<std::vector<double>> centroid(10,
                                            std::vector<double>(dim, 0.0));
  std::vector<int> count(10, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    const int y = train.labels[0][i];
    ++count[static_cast<std::size_t>(y)];
    auto row = train.inputs.row(i);
    for (std::size_t f = 0; f < dim; ++f)
      centroid[static_cast<std::size_t>(y)][f] += row[f];
  }
  for (int k = 0; k < 10; ++k)
    if (count[k] > 0)
      for (double& v : centroid[static_cast<std::size_t>(k)])
        v /= count[static_cast<std::size_t>(k)];

  // Held-out: indices beyond the training range.
  int hits = 0, total = 0;
  SyntheticDataset held(DatasetSpec::for_kind(DatasetKind::kCifar10), 11);
  const auto all = held.as_feature_dataset(500, 4);
  for (std::size_t i = 400; i < 500; ++i, ++total) {
    double best = 1e300;
    int arg = -1;
    for (int k = 0; k < 10; ++k) {
      double d = 0.0;
      auto row = all.inputs.row(i);
      for (std::size_t f = 0; f < dim; ++f) {
        const double diff = row[f] - centroid[static_cast<std::size_t>(k)][f];
        d += diff * diff;
      }
      if (d < best) {
        best = d;
        arg = k;
      }
    }
    if (arg == all.labels[0][i]) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.6);  // chance = 0.1
}

}  // namespace
}  // namespace odin::data
