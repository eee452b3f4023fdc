// Tests for the crossbar-aware pruner: sparsity targeting, determinism,
// the row-structured zero patterns that OU skipping relies on, and the
// bitwise pins of the row-parallel pruner against the serial reference
// (tests/reference_pruning.hpp) and against recorded mask checksums.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "core/experiment.hpp"
#include "dnn/pruning.hpp"
#include "dnn/zoo.hpp"
#include "reference_pruning.hpp"

namespace odin::dnn {
namespace {

LayerDescriptor conv_layer(int in_ch, int out_ch, int kernel, int index = 0) {
  LayerDescriptor l;
  l.name = "test";
  l.type = LayerType::kConv;
  l.index = index;
  l.kernel = kernel;
  l.in_channels = in_ch;
  l.out_channels = out_ch;
  l.fan_in = in_ch * kernel * kernel;
  l.outputs = out_ch;
  l.spatial_positions = 64;
  return l;
}

TEST(TargetSparsity, GrowsWithFanIn) {
  const double small = target_sparsity(conv_layer(3, 64, 3));    // fan_in 27
  const double mid = target_sparsity(conv_layer(64, 64, 3));     // 576
  const double large = target_sparsity(conv_layer(512, 512, 3)); // 4608
  EXPECT_LT(small, mid);
  EXPECT_LE(mid, large);
  EXPECT_LE(large, 0.80);
  EXPECT_GE(small, 0.10);
}

TEST(TargetSparsity, CompactProjectionsPrunedLess) {
  // Same fan-in, but a 1x1 projection is less redundant than a 3x3 conv.
  const auto proj = conv_layer(128, 128, 1);
  auto conv = conv_layer(128, 128, 3);
  conv.fan_in = proj.fan_in;  // equalize fan-in to isolate the kernel term
  EXPECT_LT(target_sparsity(proj), target_sparsity(conv));
}

TEST(PruneLayer, AchievesTargetWithinTolerance) {
  const auto layer = conv_layer(64, 128, 3);
  const WeightPattern p = prune_layer(layer, 42);
  const double target = target_sparsity(layer);
  EXPECT_NEAR(p.sparsity(), target, 0.06);  // jitter 0.04 + quantile error
}

TEST(PruneLayer, IsDeterministic) {
  const auto layer = conv_layer(32, 64, 3);
  const WeightPattern a = prune_layer(layer, 7);
  const WeightPattern b = prune_layer(layer, 7);
  ASSERT_EQ(a.nonzeros(), b.nonzeros());
  for (int r = 0; r < layer.fan_in; ++r)
    for (int c = 0; c < layer.outputs; ++c)
      ASSERT_EQ(a.test(r, c), b.test(r, c));
}

TEST(PruneLayer, DifferentSeedsDiffer) {
  const auto layer = conv_layer(32, 64, 3);
  const WeightPattern a = prune_layer(layer, 7);
  const WeightPattern b = prune_layer(layer, 8);
  bool differs = a.nonzeros() != b.nonzeros();
  for (int r = 0; !differs && r < layer.fan_in; ++r)
    for (int c = 0; !differs && c < layer.outputs; ++c)
      differs = a.test(r, c) != b.test(r, c);
  EXPECT_TRUE(differs);
}

TEST(PruneLayer, ProducesRowStructuredZeros) {
  // The shared row-importance factor should kill entire rows — the pattern
  // crossbar-aware pruning creates and OU row-skipping exploits. Expect the
  // fraction of fully-dead rows to be well above what an independent
  // Bernoulli pattern would produce (which is s^cols ~ 0 for 256 cols).
  const auto layer = conv_layer(64, 256, 3);
  const WeightPattern p = prune_layer(layer, 99);
  int dead_rows = 0;
  for (int r = 0; r < layer.fan_in; ++r)
    if (!p.block_live(r, 0, 1, layer.outputs)) ++dead_rows;
  EXPECT_GT(dead_rows, layer.fan_in / 10);
  EXPECT_LT(dead_rows, layer.fan_in);  // but not everything
}

TEST(PruneLayer, NeverFullyZero) {
  auto layer = conv_layer(2, 2, 1);
  layer.fan_in = 2;
  const WeightPattern p = prune_layer(layer, 1);
  EXPECT_GE(p.nonzeros(), 1);
}

TEST(PruneLayer, NonPositiveQuantileSamplesClampToOne) {
  // A zero or negative sample cap used to divide by zero; it now means a
  // one-weight sample, exactly as quantile_samples = 1 does.
  const auto layer = conv_layer(16, 32, 3);
  PruningConfig one;
  one.quantile_samples = 1;
  const WeightPattern expected = prune_layer(layer, 5, one);
  EXPECT_TRUE(expected == testref::prune_layer(layer, 5, one));
  for (const std::int64_t samples : {0LL, -1LL, -200'000LL}) {
    PruningConfig config;
    config.quantile_samples = samples;
    EXPECT_TRUE(prune_layer(layer, 5, config) == expected)
        << "quantile_samples " << samples;
  }
}

LayerDescriptor matrix_layer(LayerType type, int fan_in, int outputs) {
  LayerDescriptor l = conv_layer(fan_in, outputs, 1);
  l.type = type;
  return l;
}

TEST(PruneLayer, MatchesSerialReferenceAcrossShapes) {
  struct Shape {
    const char* name;
    LayerDescriptor layer;
  };
  const std::vector<Shape> shapes = {
      {"3x3 conv, stride 1", conv_layer(64, 128, 3)},
      {"outputs 10", matrix_layer(LayerType::kConv, 300, 10)},
      {"outputs 64", conv_layer(32, 64, 3)},
      {"outputs 65", matrix_layer(LayerType::kConv, 777, 65)},
      {"outputs 65, stride 3", matrix_layer(LayerType::kConv, 10'000, 65)},
      {"outputs 100, 399,900 weights (stride 1)",
       matrix_layer(LayerType::kConv, 3'999, 100)},
      {"outputs 100, 400,000 weights (stride 2)",
       matrix_layer(LayerType::kConv, 4'000, 100)},
      {"outputs 100, 400,100 weights (stride 2)",
       matrix_layer(LayerType::kConv, 4'001, 100)},
      {"fan_in 1", matrix_layer(LayerType::kConv, 1, 200)},
      {"fc 512x10", matrix_layer(LayerType::kFullyConnected, 512, 10)},
      {"attention 384x1152", matrix_layer(LayerType::kAttention, 384, 1152)},
      {"4608x512 (stride 11)", conv_layer(512, 512, 3)},
  };
  for (const std::uint64_t seed : {1ULL, 0x0d1e5eedULL, 0xfeedfaceULL}) {
    for (const Shape& s : shapes)
      EXPECT_TRUE(prune_layer(s.layer, seed) ==
                  testref::prune_layer(s.layer, seed))
          << s.name << ", seed " << seed;
  }
}

/// CRC-32 of every mask word of every layer, fed little-endian, so the pin
/// does not depend on the host's byte order.
std::uint32_t mask_crc(const PrunedModel& pm) {
  std::uint32_t crc = 0;
  for (const WeightPattern& p : pm.patterns)
    for (int r = 0; r < p.rows(); ++r)
      for (const std::uint64_t w : p.row_words(r)) {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
          bytes[i] = static_cast<unsigned char>(w >> (8 * i));
        crc = common::crc32(bytes, sizeof bytes, crc);
      }
  return crc;
}

TEST(PruneModel, MasksMatchRecordedChecksums) {
  // Recorded from the serial two-pass pruner at the paper set-up's prune
  // seed. Every mask feeds Phi_2 and the OU block counts, so any change
  // here moves simulated figures.
  struct Pin {
    DnnModel (*make)(data::DatasetKind);
    std::uint32_t crc;
    std::int64_t nonzeros;
  };
  const Pin pins[] = {
      {make_resnet18, 0x54404a55u, 2'312'810},
      {make_vgg11, 0xce5728ecu, 1'836'942},
      {make_googlenet, 0x0201f7fcu, 1'653'678},
      {make_vit, 0x354eb3b0u, 1'765'309},
      {make_mobilenetv1, 0xc5f4a925u, 1'349'937},
  };
  const std::uint64_t seed = core::Setup{}.prune_seed;
  for (const Pin& pin : pins) {
    const PrunedModel pm =
        prune_model(pin.make(data::DatasetKind::kCifar10), seed);
    EXPECT_EQ(mask_crc(pm), pin.crc) << pm.model.name;
    EXPECT_EQ(pm.total_nonzeros(), pin.nonzeros) << pm.model.name;
  }
}

TEST(PruneModel, UpdatesDescriptorsAndKeepsAlignment) {
  const PrunedModel pm =
      prune_model(make_vgg11(data::DatasetKind::kCifar10), 2024);
  ASSERT_EQ(pm.patterns.size(), pm.model.layers.size());
  for (std::size_t i = 0; i < pm.patterns.size(); ++i) {
    const auto& layer = pm.model.layers[i];
    const auto& pattern = pm.patterns[i];
    EXPECT_EQ(pattern.rows(), layer.fan_in);
    EXPECT_EQ(pattern.cols(), layer.outputs);
    EXPECT_DOUBLE_EQ(layer.weight_sparsity, pattern.sparsity());
    EXPECT_GT(layer.weight_sparsity, 0.05);
    EXPECT_LT(layer.weight_sparsity, 0.95);
  }
  EXPECT_GT(pm.total_nonzeros(), 0);
  EXPECT_LT(pm.total_nonzeros(), pm.model.total_weights());
}

TEST(PruneModel, SkipProjectionsAreLowSparsity) {
  // Fig. 3: ResNet18 layers 13/18 (the 1x1 skips) have markedly lower
  // sparsity than the wide 3x3 convs around them.
  const PrunedModel pm =
      prune_model(make_resnet18(data::DatasetKind::kCifar10), 2024);
  const double skip = pm.model.layers[12].weight_sparsity;   // conv4_1_skip
  const double conv = pm.model.layers[13].weight_sparsity;   // conv4_2a
  EXPECT_LT(skip, conv - 0.15);
}

}  // namespace
}  // namespace odin::dnn
