// Tests for the layer -> crossbar -> OU-block mapper and its sparsity
// exploitation, including property sweeps across the OU grid.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dnn/pattern.hpp"
#include "ou/mapped_model.hpp"
#include "ou/mapper.hpp"

namespace odin::ou {
namespace {

dnn::LayerDescriptor layer_of(int fan_in, int outputs, int positions = 4) {
  dnn::LayerDescriptor l;
  l.name = "L";
  l.fan_in = fan_in;
  l.outputs = outputs;
  l.spatial_positions = positions;
  l.kernel = 3;
  l.in_channels = fan_in / 9;
  l.out_channels = outputs;
  return l;
}

dnn::WeightPattern dense_pattern(int rows, int cols) {
  dnn::WeightPattern p(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) p.set(r, c);
  return p;
}

TEST(Mapper, DenseLayerCountsMatchClosedForm) {
  const auto layer = layer_of(256, 256, 10);
  const auto pattern = dense_pattern(256, 256);
  const LayerMapping mapping(layer, pattern, 128);
  EXPECT_EQ(mapping.crossbars(), 4);  // 2x2 crossbar grid
  const OuCounts counts = mapping.counts({16, 16});
  // Per crossbar: (128/16)^2 = 64 blocks, all live.
  EXPECT_EQ(counts.live_blocks, 4 * 64);
  EXPECT_EQ(counts.max_blocks_per_xbar, 64);
  EXPECT_EQ(counts.total_ou_cycles, 4 * 64 * 10);
  EXPECT_EQ(counts.max_ou_cycles_per_xbar, 64 * 10);
  EXPECT_DOUBLE_EQ(counts.occupancy, 1.0);
}

TEST(Mapper, NonAlignedDimsUseCeil) {
  const auto layer = layer_of(27, 64, 1);  // first conv of a CIFAR net
  const auto pattern = dense_pattern(27, 64);
  const LayerMapping mapping(layer, pattern, 128);
  EXPECT_EQ(mapping.crossbars(), 1);
  const OuCounts counts = mapping.counts({16, 16});
  // Rows: ceil(27/16) = 2 bands; cols: ceil(64/16) = 4.
  EXPECT_EQ(counts.live_blocks, 8);
}

TEST(Mapper, NonPowerOfTwoOuSizesWork) {
  // The 9x8 homogeneous baseline from prior work is not on the 2^L grid.
  const auto layer = layer_of(128, 128, 1);
  const auto pattern = dense_pattern(128, 128);
  const LayerMapping mapping(layer, pattern, 128);
  const OuCounts counts = mapping.counts({9, 8});
  EXPECT_EQ(counts.live_blocks,
            static_cast<std::int64_t>(15) * 16);  // ceil(128/9) x 128/8
}

TEST(Mapper, PartialBandsStayInsideTheirCrossbar) {
  // 128 = 14 * 9 + 2: the first crossbar's last 9-row band holds rows
  // 126-127 only. Row 130 lives in the second crossbar, so exactly one
  // band there sees it; the first crossbar's band must not read past
  // row 127. Same for a 9-column OU across a column boundary.
  dnn::WeightPattern tall(256, 8);
  tall.set(130, 0);
  const auto tall_layer = layer_of(256, 8, 1);
  const OuCounts rows = LayerMapping(tall_layer, tall, 128).counts({9, 8});
  EXPECT_EQ(rows.live_blocks, 1);
  EXPECT_EQ(rows.max_blocks_per_xbar, 1);

  dnn::WeightPattern wide(8, 256);
  wide.set(0, 130);
  const auto wide_layer = layer_of(8, 256, 1);
  EXPECT_EQ(LayerMapping(wide_layer, wide, 128).counts({8, 9}).live_blocks,
            1);
}

TEST(Mapper, FullyZeroBlocksAreSkipped) {
  const auto layer = layer_of(32, 32, 1);
  dnn::WeightPattern p(32, 32);
  // Only the top-left 8x8 corner carries weights.
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) p.set(r, c);
  const LayerMapping mapping(layer, p, 128);
  EXPECT_EQ(mapping.counts({8, 8}).live_blocks, 1);
  EXPECT_EQ(mapping.counts({4, 4}).live_blocks, 4);
  EXPECT_EQ(mapping.counts({16, 16}).live_blocks, 1);
  EXPECT_EQ(mapping.counts({32, 32}).live_blocks, 1);
}

TEST(Mapper, OccupancyDecreasesWithFinerBlocksOnSparseRows) {
  const auto layer = layer_of(128, 128, 1);
  common::Rng rng(5);
  dnn::WeightPattern p(128, 128);
  // 25% of rows live, dense across columns (row-structured sparsity).
  for (int r = 0; r < 128; r += 4)
    for (int c = 0; c < 128; ++c) p.set(r, c);
  const LayerMapping mapping(layer, p, 128);
  // R = 4 captures exactly one live row per band -> all bands live;
  // R = 1-row granularity would skip 75%. Between grid sizes:
  const auto c4 = mapping.counts({4, 128});
  const auto c16 = mapping.counts({16, 128});
  // Finer rows -> more blocks but occupancy cannot increase.
  EXPECT_GE(c4.live_blocks, c16.live_blocks);
  EXPECT_LE(c16.occupancy, 1.0);
}

TEST(Mapper, CountsAreCachedAndStable) {
  const auto layer = layer_of(64, 64, 2);
  const auto pattern = dense_pattern(64, 64);
  const LayerMapping mapping(layer, pattern, 64);
  const OuCounts& a = mapping.counts({8, 8});
  const OuCounts& b = mapping.counts({8, 8});
  EXPECT_EQ(&a, &b);  // same cached object
}

TEST(Mapper, ProgrammedCellsEqualsPatternNonzeros) {
  const auto layer = layer_of(64, 64, 1);
  dnn::WeightPattern p(64, 64);
  p.set(0, 0);
  p.set(63, 63);
  const LayerMapping mapping(layer, p, 64);
  EXPECT_EQ(mapping.programmed_cells(), 2);
  EXPECT_EQ(mapping.programmed_rows(), 64);
}

// Property sweep over the whole OU grid on a randomly pruned layer.
class MapperGridSweep : public ::testing::TestWithParam<int> {};

TEST_P(MapperGridSweep, InvariantsHoldForEveryConfig) {
  const int crossbar = GetParam();
  const auto layer = layer_of(200, 150, 3);
  common::Rng rng(77);
  dnn::WeightPattern p(200, 150);
  for (int r = 0; r < 200; ++r)
    for (int c = 0; c < 150; ++c)
      if (rng.bernoulli(0.3)) p.set(r, c);
  const LayerMapping mapping(layer, p, crossbar);
  const OuLevelGrid grid(crossbar);

  std::int64_t prev_live = -1;
  for (const OuConfig& cfg : grid.all_configs()) {
    const OuCounts counts = mapping.counts(cfg);
    EXPECT_GE(counts.live_blocks, 1);
    EXPECT_LE(counts.max_blocks_per_xbar, counts.live_blocks);
    EXPECT_EQ(counts.total_ou_cycles,
              counts.live_blocks * layer.spatial_positions);
    EXPECT_GT(counts.occupancy, 0.0);
    EXPECT_LE(counts.occupancy, 1.0);
    // Every non-zero weight is covered by some live block: the live blocks'
    // total capacity bounds the non-zero count.
    EXPECT_GE(counts.live_blocks * static_cast<std::int64_t>(cfg.rows) *
                  cfg.cols,
              p.nonzeros());
    (void)prev_live;
    prev_live = counts.live_blocks;
  }
}

INSTANTIATE_TEST_SUITE_P(CrossbarSizes, MapperGridSweep,
                         ::testing::Values(32, 64, 128));

TEST(MappedModel, BindsLayersAndPatterns) {
  dnn::DnnModel model;
  model.name = "tiny";
  for (int i = 0; i < 3; ++i) {
    auto l = layer_of(64, 64, 2);
    l.index = i;
    l.name = "l" + std::to_string(i);
    model.layers.push_back(l);
  }
  MappedModel mapped(dnn::prune_model(std::move(model), 9), 64);
  EXPECT_EQ(mapped.layer_count(), 3u);
  EXPECT_EQ(mapped.crossbar_size(), 64);
  for (std::size_t i = 0; i < mapped.layer_count(); ++i) {
    EXPECT_EQ(&mapped.mapping(i).layer(), &mapped.model().layers[i]);
    EXPECT_EQ(mapped.mapping(i).programmed_cells(),
              mapped.pruned().patterns[i].nonzeros());
  }
}

}  // namespace
}  // namespace odin::ou
