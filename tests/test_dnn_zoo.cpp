// Architecture checks for the model zoo: layer counts, shapes, parameter
// totals and the specific structural facts the paper's figures rely on.
#include <gtest/gtest.h>

#include "dnn/zoo.hpp"

namespace odin::dnn {
namespace {

using data::DatasetKind;

TEST(Zoo, ResNet18LayerStructure) {
  const DnnModel m = make_resnet18(DatasetKind::kCifar10);
  // conv1 + 16 block convs + 3 skip projections + fc = 21 layers.
  EXPECT_EQ(m.layers.size(), 21u);
  // Fig. 3's low-sparsity layers 13 and 18 (1-based) are the 1x1 skip
  // projections; our 0-based indices 7, 12, 17.
  for (int idx : {7, 12, 17}) {
    const auto& l = m.layers[static_cast<std::size_t>(idx)];
    EXPECT_EQ(l.kernel, 1) << l.name;
    EXPECT_NE(l.name.find("skip"), std::string::npos);
  }
  EXPECT_EQ(m.layers.front().in_channels, 3);
  EXPECT_EQ(m.layers.back().outputs, 10);
}

TEST(Zoo, ResNet18ParameterCountIsCanonical) {
  const DnnModel m = make_resnet18(DatasetKind::kCifar10);
  // CIFAR ResNet18 has ~11.2M conv/fc weights.
  EXPECT_GT(m.total_weights(), 10'500'000);
  EXPECT_LT(m.total_weights(), 11'500'000);
}

TEST(Zoo, Vgg11ShapesForCifar) {
  const DnnModel m = make_vgg11(DatasetKind::kCifar10);
  EXPECT_EQ(m.layers.size(), 10u);  // 8 convs + 2 fc
  EXPECT_EQ(m.layers[0].out_channels, 64);
  EXPECT_EQ(m.layers[0].spatial_positions, 32 * 32);
  // After 5 pools a 32x32 input is 1x1; fc1 reads 512 features.
  EXPECT_EQ(m.layers[8].fan_in, 512);
  EXPECT_EQ(m.layers[9].outputs, 10);
  EXPECT_GT(m.total_weights(), 9'000'000);
  EXPECT_LT(m.total_weights(), 10'000'000);
}

TEST(Zoo, Vgg19OnTinyImageNetScalesSpatially) {
  const DnnModel m = make_vgg19(DatasetKind::kTinyImageNet);
  EXPECT_EQ(m.layers.size(), 18u);  // 16 convs + 2 fc
  EXPECT_EQ(m.layers[0].spatial_positions, 64 * 64);
  // 64 input -> 2x2 after 5 pools -> flat = 512*4.
  EXPECT_EQ(m.layers[16].fan_in, 2048);
  EXPECT_EQ(m.layers.back().outputs, 200);
}

TEST(Zoo, ResNet34And50BlockCounts) {
  const DnnModel r34 = make_resnet34(DatasetKind::kCifar100);
  // conv1 + 2*(3+4+6+3) convs + 3 skips + fc = 1 + 32 + 3 + 1.
  EXPECT_EQ(r34.layers.size(), 37u);
  EXPECT_EQ(r34.layers.back().outputs, 100);

  const DnnModel r50 = make_resnet50(DatasetKind::kTinyImageNet);
  // conv1 + 3*(3+4+6+3) convs + 4 skips + fc = 1 + 48 + 4 + 1.
  EXPECT_EQ(r50.layers.size(), 54u);
  EXPECT_EQ(r50.layers.back().fan_in, 2048);
  // Bottleneck expansion: last conv stage outputs 2048 channels.
  EXPECT_GT(r50.total_weights(), 20'000'000);
}

TEST(Zoo, GoogLeNetInceptionWidths) {
  const DnnModel m = make_googlenet(DatasetKind::kCifar10);
  // Stem 3 convs + 9 inception modules * 6 convs + fc.
  EXPECT_EQ(m.layers.size(), 3u + 9 * 6 + 1);
  // 5b output concat = 384+384+128+128 = 1024 -> fc fan-in.
  EXPECT_EQ(m.layers.back().fan_in, 1024);
  EXPECT_EQ(m.layers.back().outputs, 10);
}

TEST(Zoo, DenseNet121LayerCountAndGrowth) {
  const DnnModel m = make_densenet121(DatasetKind::kCifar10);
  // conv1 + 2*(6+12+24+16) + 3 transitions + fc = 1 + 116 + 3 + 1.
  EXPECT_EQ(m.layers.size(), 121u);
  // Final channel count: standard DenseNet-121 ends at 1024.
  EXPECT_EQ(m.layers.back().fan_in, 1024);
}

TEST(Zoo, ViTTokenArithmetic) {
  const DnnModel m = make_vit(DatasetKind::kCifar10);
  // patch embed + 6 blocks * 4 projections + head.
  EXPECT_EQ(m.layers.size(), 1u + 24 + 1);
  const auto& qkv = m.layers[1];
  EXPECT_EQ(qkv.type, LayerType::kAttention);
  EXPECT_EQ(qkv.fan_in, 256);
  EXPECT_EQ(qkv.outputs, 768);
  EXPECT_EQ(qkv.spatial_positions, 8 * 8 + 1);  // 64 patches + cls token
}

TEST(Zoo, PaperWorkloadsMatchSectionVA) {
  const auto w = paper_workloads();
  ASSERT_EQ(w.size(), 9u);
  EXPECT_EQ(w[0].name, "ResNet18");
  EXPECT_EQ(w[0].dataset, DatasetKind::kCifar10);
  EXPECT_EQ(w[5].name, "ResNet34");
  EXPECT_EQ(w[5].dataset, DatasetKind::kCifar100);
  EXPECT_EQ(w[8].name, "VGG19");
  EXPECT_EQ(w[8].dataset, DatasetKind::kTinyImageNet);
}

TEST(Zoo, LayerIndicesAreSequential) {
  for (const auto& model : paper_workloads()) {
    for (std::size_t i = 0; i < model.layers.size(); ++i)
      EXPECT_EQ(model.layers[i].index, static_cast<int>(i)) << model.name;
  }
}

TEST(Zoo, AllLayersHaveConsistentLoweredShapes) {
  for (const auto& model : paper_workloads()) {
    for (const auto& l : model.layers) {
      EXPECT_GT(l.fan_in, 0) << model.name << "/" << l.name;
      EXPECT_GT(l.outputs, 0) << model.name << "/" << l.name;
      EXPECT_GT(l.spatial_positions, 0) << model.name << "/" << l.name;
      if (l.type == LayerType::kConv) {
        EXPECT_EQ(l.fan_in, l.in_channels * l.kernel * l.kernel)
            << model.name << "/" << l.name;
      }
      EXPECT_EQ(l.macs(), l.weight_count() * l.spatial_positions);
    }
  }
}

TEST(Zoo, FamilyNames) {
  EXPECT_EQ(family_name(Family::kVgg), "VGG");
  EXPECT_EQ(family_name(Family::kViT), "ViT");
}

}  // namespace
}  // namespace odin::dnn
