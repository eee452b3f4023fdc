// Tests for the MobileNetV1 extension workload and its block-diagonal
// depthwise layers.
#include <gtest/gtest.h>

#include "dnn/pruning.hpp"
#include "dnn/zoo.hpp"
#include "ou/mapped_model.hpp"

namespace odin::dnn {
namespace {

TEST(MobileNet, ArchitectureShape) {
  const DnnModel m = make_mobilenetv1(data::DatasetKind::kCifar10);
  // conv1 + 13 x (dw + pw) + fc.
  EXPECT_EQ(m.layers.size(), 1u + 26 + 1);
  EXPECT_EQ(m.family, Family::kMobileNet);
  EXPECT_EQ(family_name(m.family), "MobileNet");
  EXPECT_EQ(m.layers.back().fan_in, 1024);
  EXPECT_EQ(m.layers.back().outputs, 10);
  // total_weights() counts lowered-matrix slots; the block-diagonal
  // depthwise layers inflate that (9C^2 slots for 9C real weights). The
  // real parameter count shows up as nonzeros after pruning.
  const PrunedModel pm = prune_model(m, 3);
  EXPECT_GT(pm.total_nonzeros(), 1'000'000);
  EXPECT_LT(pm.total_nonzeros(), 4'000'000);  // ~3.2M params, ~75% kept
}

TEST(MobileNet, DepthwiseLayersAreBlockDiagonalShaped) {
  const DnnModel m = make_mobilenetv1(data::DatasetKind::kCifar10);
  int depthwise_count = 0;
  for (const auto& l : m.layers) {
    if (l.type != LayerType::kDepthwise) continue;
    ++depthwise_count;
    EXPECT_EQ(l.fan_in, l.in_channels * 9) << l.name;
    EXPECT_EQ(l.outputs, l.in_channels) << l.name;
  }
  EXPECT_EQ(depthwise_count, 13);
}

TEST(MobileNet, DepthwisePruningIsBlockDiagonal) {
  const DnnModel m = make_mobilenetv1(data::DatasetKind::kCifar10);
  const LayerDescriptor* dw = nullptr;
  for (const auto& l : m.layers)
    if (l.type == LayerType::kDepthwise) {
      dw = &l;
      break;
    }
  ASSERT_NE(dw, nullptr);
  const WeightPattern p = prune_layer(*dw, 42);
  // Bits only inside the diagonal blocks: column c uses rows [9c, 9c+9).
  for (int c = 0; c < dw->outputs; c += 7) {
    EXPECT_TRUE(p.block_live(c * 9, c, 9, 1)) << c;
    if (c > 0) {
      EXPECT_FALSE(p.block_live(0, c, 9, 1)) << c;
    }
  }
  // Structural sparsity ~ 1 - 0.9/C.
  EXPECT_GT(p.sparsity(), 1.0 - 2.0 / dw->outputs);
}

TEST(MobileNet, DepthwiseStructureRewardsFineOus) {
  // With 1 - 1/C structural sparsity, fine OUs skip almost everything
  // while coarse OUs are forced to touch every diagonal block.
  const PrunedModel pm =
      prune_model(make_mobilenetv1(data::DatasetKind::kCifar10), 7);
  ou::MappedModel mapped(std::move(pm), 128);
  const dnn::DnnModel& m = mapped.model();
  for (std::size_t j = 0; j < m.layers.size(); ++j) {
    if (m.layers[j].type != LayerType::kDepthwise) continue;
    const auto& fine = mapped.mapping(j).counts({4, 4});
    const auto& coarse = mapped.mapping(j).counts({64, 64});
    // Occupancy (live fraction) collapses for fine blocks.
    EXPECT_LT(fine.occupancy, 0.35) << m.layers[j].name;
    EXPECT_GT(coarse.occupancy, fine.occupancy) << m.layers[j].name;
    break;  // one representative layer suffices
  }
}

TEST(MobileNet, PrunedModelSparsityIsDominatedByStructure) {
  const PrunedModel pm =
      prune_model(make_mobilenetv1(data::DatasetKind::kCifar10), 11);
  for (std::size_t j = 0; j < pm.model.layers.size(); ++j) {
    const auto& l = pm.model.layers[j];
    if (l.type == LayerType::kDepthwise) {
      EXPECT_GT(l.weight_sparsity, 0.95) << l.name;
    }
  }
}

}  // namespace
}  // namespace odin::dnn
