// Tests for the crossbar-aware pruner: sparsity targeting, determinism,
// the row-structured zero patterns that OU skipping relies on, and the
// bitwise pins of the row-parallel pruner against the serial reference
// (tests/reference_pruning.hpp) and against recorded mask checksums.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "dnn/pruning.hpp"
#include "dnn/pruning_bracket.hpp"
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

PruningConfig with_jitter(double jitter) {
  PruningConfig config;
  config.sparsity_jitter = jitter;
  return config;
}

PruningConfig with_sigma(double sigma) {
  PruningConfig config;
  config.row_importance_sigma = sigma;
  return config;
}

TEST(PruneLayer, MatchesSerialReferenceAcrossShapes) {
  struct Shape {
    const char* name;
    LayerDescriptor layer;
    PruningConfig config = {};
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
      // Jitter 1000 clamps the target to 0.95 at seed 1 and to 0.05 at the
      // other two, so the cut sits at either end of the sample.
      {"3x3 conv, jitter 1000", conv_layer(64, 128, 3), with_jitter(1e3)},
      {"outputs 100, stride 2, jitter 1000",
       matrix_layer(LayerType::kConv, 4'001, 100), with_jitter(1e3)},
      // sigma 40 puts ~20% of rows' imp^2 above 2^100, where the bounds
      // give up and every weight takes the exact path.
      {"3x3 conv, sigma 40", conv_layer(32, 64, 3), with_sigma(40.0)},
      // At stride 3 those rows' weights outnumber the undecided slots (a
      // third of the sample's count), so the overflow list fills too.
      {"outputs 65, stride 3, sigma 40",
       matrix_layer(LayerType::kConv, 10'000, 65), with_sigma(40.0)},
  };
  for (const std::uint64_t seed : {1ULL, 0x0d1e5eedULL, 0xfeedfaceULL}) {
    for (const Shape& s : shapes)
      EXPECT_TRUE(prune_layer(s.layer, seed, s.config) ==
                  testref::prune_layer(s.layer, seed, s.config))
          << s.name << ", seed " << seed;
  }
  // The jitter shapes really cut at both ends.
  const LayerDescriptor conv = conv_layer(64, 128, 3);
  EXPECT_GT(prune_layer(conv, 1, with_jitter(1e3)).sparsity(), 0.9);
  EXPECT_LT(prune_layer(conv, 0x0d1e5eed, with_jitter(1e3)).sparsity(), 0.1);
}

/// Whether lo <= m*m <= hi holds exactly: m*m is p + e, with p = fl(m*m)
/// and e = fma(m, m, -p) its exact rounding error.
bool square_within(double m, double lo, double hi) {
  const double p = m * m;
  const double e = std::fma(m, m, -p);
  return (p > lo || (p == lo && e >= 0.0)) && (p < hi || (p == hi && e <= 0.0));
}

/// The tables prune_layer builds, made once for the bound tests.
const bracket::Tables& tables() {
  static const bracket::Tables built;
  return built;
}

/// The bounds prune_layer computes for one draw contain the square of the
/// magnitude its exact path computes, in double and after outward rounding
/// to float. Returns false (and reports) on the first failure.
bool bracket_holds(std::uint64_t k1, std::uint64_t k2, double imp) {
  const double u1 = static_cast<double>(k1) * 0x1.0p-53;
  const double u2 = static_cast<double>(k2) * 0x1.0p-53;
  const double m = imp * std::abs(common::Rng::box_muller(u1, u2));
  const bracket::Bounds b =
      bracket::square_bounds(tables(), bracket::row_scales(imp),
                             bracket::u1_bucket(u1), bracket::u2_bucket(k2));
  const double lo_f = std::bit_cast<float>(bracket::float_below(b.lo));
  const double hi_f = std::bit_cast<float>(bracket::float_above(b.hi));
  const bool holds = square_within(m, b.lo, b.hi) && lo_f <= b.lo &&
                     hi_f >= b.hi && square_within(m, lo_f, hi_f);
  EXPECT_TRUE(holds) << "k1 " << k1 << ", k2 " << k2 << ", imp " << imp;
  return holds;
}

TEST(PruneBracket, TableBoundsContainTheExactSquare) {
  const std::uint64_t top = std::uint64_t{1} << 53;
  const std::uint64_t quarter = std::uint64_t{1} << 51;
  // u2 at 0, 1/4 and 3/4 and one draw either side, 1/2, and 1 - 2^-53.
  const std::uint64_t k2s[] = {0,           quarter - 1,     quarter,
                               quarter + 1, 2 * quarter,     3 * quarter - 1,
                               3 * quarter, 3 * quarter + 1, top - 1};
  const double imps[] = {1.0, 0.0137, 3.7, 41.5};
  for (const double imp : imps)
    for (const std::uint64_t k1 : {std::uint64_t{1}, std::uint64_t{2},
                                   top / 2, top - 1})
      for (const std::uint64_t k2 : k2s)
        ASSERT_TRUE(bracket_holds(k1, k2, imp));

  // Both sides of every u1 bucket edge, against u2 bucket edges of both
  // quarters, where a bound equals a table entry.
  const std::uint64_t u2_edge = quarter >> bracket::kU2BucketBits;
  for (std::size_t i = 1; i < bracket::kU1Buckets; ++i) {
    const double edge = std::ldexp(
        1.0 + static_cast<double>(i % bracket::kU1Steps) / bracket::kU1Steps,
        static_cast<int>(i / bracket::kU1Steps));
    const auto k1 = static_cast<std::uint64_t>(std::ceil(edge));
    for (const std::uint64_t f : {std::uint64_t{0}, std::uint64_t{1},
                                  std::uint64_t{2048}, std::uint64_t{4095}})
      for (const std::uint64_t k2 : {f * u2_edge, 2 * quarter - f * u2_edge})
        for (const std::uint64_t k : {k1 - 1, k1}) {
          if (k > 0) {
            ASSERT_TRUE(bracket_holds(k, k2 & (top - 1), 1.0));
          }
        }
  }

  // Seeded draws, with importances spread as the pruner's are.
  common::Rng rng(0xb0a7d5);
  for (int i = 0; i < 1'200'000; ++i) {
    const double imp = std::exp(rng.normal());
    std::uint64_t k1 = rng.next_u53();
    while (k1 == 0) k1 = rng.next_u53();
    ASSERT_TRUE(bracket_holds(k1, rng.next_u53(), imp));
  }
}

TEST(PruneBracket, TablesFallAcrossEveryBucket) {
  const bracket::Tables& t = tables();
  for (std::size_t e = 0; e < bracket::kU1Binades; ++e) {
    for (std::size_t j = 0; j < bracket::kU1Steps; ++j)
      ASSERT_GT(t.binade_term[e] + t.mantissa_term[j],
                t.binade_term[e] + t.mantissa_term[j + 1])
          << "u1 binade " << e << ", edge " << j;
    if (e + 1 < bracket::kU1Binades) {
      ASSERT_GT(t.binade_term[e], t.binade_term[e + 1]) << "u1 binade " << e;
    }
  }
  for (std::size_t f = 0; f < bracket::kU2Buckets; ++f)
    ASSERT_GT(t.cos_term[f], t.cos_term[f + 1]) << "u2 edge " << f;
  // −2 ln 1 and cos²(π/2) are +0: a −0 lower bound's float pattern would
  // sort above every positive one.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.mantissa_term.front()), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.binade_term.back() +
                                         t.mantissa_term.back()),
            0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.cos_term.back()), 0u);
  EXPECT_LT(sizeof(bracket::Tables), 40u * 1024u);
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
  // Recorded at the paper set-up's prune seed: the first five from the
  // serial two-pass pruner, the other five (the rest of Fig. 8's nine
  // workloads, on their datasets) from the row-parallel pruner before the
  // table bounds. Every mask feeds Phi_2 and the OU block counts, so any
  // change here moves simulated figures.
  using data::DatasetKind;
  struct Pin {
    DnnModel (*make)(DatasetKind);
    DatasetKind dataset;
    std::uint32_t crc;
    std::int64_t nonzeros;
  };
  const Pin pins[] = {
      {make_resnet18, DatasetKind::kCifar10, 0x54404a55u, 2'312'810},
      {make_vgg11, DatasetKind::kCifar10, 0xce5728ecu, 1'836'942},
      {make_googlenet, DatasetKind::kCifar10, 0x0201f7fcu, 1'653'678},
      {make_vit, DatasetKind::kCifar10, 0x354eb3b0u, 1'765'309},
      {make_mobilenetv1, DatasetKind::kCifar10, 0xc5f4a925u, 1'349'937},
      {make_resnet34, DatasetKind::kCifar100, 0x76b38cd0u, 4'583'351},
      {make_vgg16, DatasetKind::kCifar100, 0x2b91cca1u, 2'878'059},
      {make_resnet50, DatasetKind::kTinyImageNet, 0xe4e2da8fu, 6'985'808},
      {make_vgg19, DatasetKind::kTinyImageNet, 0x820fe4ddu, 4'120'791},
      {make_densenet121, DatasetKind::kCifar10, 0xa2dae5eau, 2'208'116},
  };
  const std::uint64_t seed = core::Setup{}.prune_seed;
  for (const Pin& pin : pins) {
    const PrunedModel pm = prune_model(pin.make(pin.dataset), seed);
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
