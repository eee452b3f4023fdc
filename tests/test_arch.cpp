// Tests for the architecture module: Table I accounting, the mesh NoC,
// system mapping and the Sec. V-E overhead model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/components.hpp"
#include "arch/noc.hpp"
#include "arch/overhead.hpp"
#include "arch/pipeline.hpp"
#include "arch/system.hpp"
#include "dnn/zoo.hpp"

namespace odin::arch {
namespace {

TEST(Components, TableIAreaSumsToPaperHeadline) {
  // Paper: tile area 0.28 mm^2 (the rows sum to 0.2822).
  EXPECT_NEAR(tile_area_mm2(), 0.2822, 1e-6);
  EXPECT_EQ(tile_components().size(), 9u);
}

TEST(Components, TileCapacity) {
  const TileConfig tile;
  EXPECT_EQ(tile.cell_capacity(), 96LL * 128 * 128);
  EXPECT_EQ(tile.adcs, 96);
  EXPECT_DOUBLE_EQ(tile.frequency_hz, 1.2e9);
}

TEST(Components, SystemTotals) {
  const PimConfig pim;
  EXPECT_EQ(pim.pes, 36);
  EXPECT_EQ(pim.total_crossbars(), 36LL * 4 * 96);
  EXPECT_NEAR(pim.system_area_mm2(), 36 * 4 * 0.2822, 1e-6);
}

TEST(Noc, XyHopsAreManhattan) {
  const NocModel noc(6, 6);
  EXPECT_EQ(noc.hops(0, 0), 0);
  EXPECT_EQ(noc.hops(0, 5), 5);    // same row
  EXPECT_EQ(noc.hops(0, 30), 5);   // same column
  EXPECT_EQ(noc.hops(0, 35), 10);  // opposite corner
  EXPECT_EQ(noc.hops(7, 14), noc.hops(14, 7));  // symmetric
}

TEST(Noc, AverageHopsMatchesClosedFormApproximation) {
  const NocModel noc(6, 6);
  // Mean Manhattan distance on an n x n mesh ~ 2*(n^2-1)/(3n) = 3.888...
  EXPECT_NEAR(noc.average_hops(), 2.0 * 35.0 / 18.0, 1e-9);
}

TEST(Noc, TransferPipelinesFlits) {
  const NocModel noc(6, 6);
  const auto p = noc.params();
  const auto one_flit = noc.transfer(32, 4);
  EXPECT_DOUBLE_EQ(one_flit.energy_j, p.hop_energy_per_flit_j * 4);
  EXPECT_DOUBLE_EQ(one_flit.latency_s, p.hop_latency_s * 4);
  const auto ten_flits = noc.transfer(320, 4);
  EXPECT_DOUBLE_EQ(ten_flits.energy_j, p.hop_energy_per_flit_j * 40);
  // Pipelined: 4 + 10 - 1 hops of latency, not 40.
  EXPECT_DOUBLE_EQ(ten_flits.latency_s, p.hop_latency_s * 13);
  EXPECT_DOUBLE_EQ(noc.transfer(0, 4).energy_j, 0.0);
}

TEST(Noc, HopDistanceIsAMetric) {
  const NocModel noc(6, 6);
  for (int a = 0; a < noc.nodes(); ++a) {
    EXPECT_EQ(noc.hops(a, a), 0);
    for (int b = 0; b < noc.nodes(); ++b) {
      EXPECT_EQ(noc.hops(a, b), noc.hops(b, a));
      EXPECT_GE(noc.hops(a, b), a == b ? 0 : 1);
      // Triangle inequality through every relay.
      for (int c = 0; c < noc.nodes(); c += 7)
        EXPECT_LE(noc.hops(a, b), noc.hops(a, c) + noc.hops(c, b));
    }
  }
}

TEST(Noc, TransferIsMonotoneInPayloadAndDistance) {
  const NocModel noc(6, 6);
  const auto small_near = noc.transfer(64, 1);
  const auto big_near = noc.transfer(4096, 1);
  const auto small_far = noc.transfer(64, 10);
  EXPECT_GT(big_near.energy_j, small_near.energy_j);
  EXPECT_GT(big_near.latency_s, small_near.latency_s);
  EXPECT_GT(small_far.energy_j, small_near.energy_j);
  EXPECT_GT(small_far.latency_s, small_near.latency_s);
  // Zero payload moves nothing; zero hops costs nothing.
  EXPECT_DOUBLE_EQ(noc.transfer(0, 5).latency_s, 0.0);
  EXPECT_DOUBLE_EQ(noc.transfer(512, 0).energy_j, 0.0);
  EXPECT_DOUBLE_EQ(noc.transfer(512, 0).latency_s, 0.0);
}

TEST(System, MapsVgg11WithinCapacity) {
  const SystemModel system{PimConfig{}};
  const auto mapping = system.map(dnn::make_vgg11(data::DatasetKind::kCifar10));
  EXPECT_EQ(mapping.placements.size(), 10u);
  EXPECT_GT(mapping.crossbars_used, 0);
  EXPECT_LE(mapping.utilization, 1.0);
  EXPECT_GT(mapping.noc_per_inference.energy_j, 0.0);
  // Placements cover increasing layers in order.
  for (std::size_t i = 0; i < mapping.placements.size(); ++i)
    EXPECT_EQ(mapping.placements[i].layer_index, static_cast<int>(i));
}

TEST(System, SmallerCrossbarsNeedMoreOfThem) {
  const SystemModel system{PimConfig{}};
  const auto model = dnn::make_vgg11(data::DatasetKind::kCifar10);
  const auto at128 = system.map(model, 128);
  const auto at64 = system.map(model, 64);
  const auto at32 = system.map(model, 32);
  EXPECT_GT(at64.crossbars_used, at128.crossbars_used);
  EXPECT_GT(at32.crossbars_used, at64.crossbars_used);
}

TEST(System, PlacementInvariants) {
  const PimConfig pim;
  const SystemModel system{pim};
  const auto model = dnn::make_vgg11(data::DatasetKind::kCifar10);
  const auto mapping = system.map(model);
  // Every layer placed exactly once, in order, on a real PE.
  ASSERT_EQ(mapping.placements.size(), model.layers.size());
  for (std::size_t i = 0; i < mapping.placements.size(); ++i) {
    EXPECT_EQ(mapping.placements[i].layer_index, static_cast<int>(i));
    EXPECT_GT(mapping.placements[i].crossbars, 0);
    EXPECT_GE(mapping.placements[i].pe, 0);
    EXPECT_LT(mapping.placements[i].pe, pim.pes);
  }
  // The per-PE fill ledger accounts every used crossbar and never exceeds
  // a PE's capacity.
  ASSERT_EQ(mapping.pe_load.size(), static_cast<std::size_t>(pim.pes));
  const std::int64_t per_pe = system.crossbars_per_pe();
  std::int64_t filled = 0;
  for (std::int64_t load : mapping.pe_load) {
    EXPECT_GE(load, 0);
    EXPECT_LE(load, per_pe);
    filled += load;
  }
  EXPECT_EQ(filled, mapping.crossbars_used);
}

TEST(System, MapOntoFullSpanMatchesMapAndSubsetStaysInside) {
  const PimConfig pim;
  const SystemModel system{pim};
  const auto model = dnn::make_vgg11(data::DatasetKind::kCifar10);
  std::vector<int> all(static_cast<std::size_t>(pim.pes));
  for (int p = 0; p < pim.pes; ++p) all[static_cast<std::size_t>(p)] = p;
  const auto whole = system.map(model);
  const auto onto = system.map_onto(model, all);
  ASSERT_EQ(onto.placements.size(), whole.placements.size());
  for (std::size_t i = 0; i < whole.placements.size(); ++i)
    EXPECT_EQ(onto.placements[i].pe, whole.placements[i].pe);
  EXPECT_EQ(onto.crossbars_used, whole.crossbars_used);
  EXPECT_EQ(onto.noc_per_inference.energy_j,
            whole.noc_per_inference.energy_j);
  EXPECT_EQ(onto.noc_per_inference.latency_s,
            whole.noc_per_inference.latency_s);
  EXPECT_EQ(onto.pe_load, whole.pe_load);

  // A restricted span only ever touches its own PEs (spill wraps inside).
  const std::vector<int> block = {14, 15, 20, 21};
  const auto sub = system.map_onto(model, block);
  ASSERT_EQ(sub.placements.size(), model.layers.size());
  std::int64_t in_block = 0;
  for (std::size_t pe = 0; pe < sub.pe_load.size(); ++pe) {
    const bool member =
        std::find(block.begin(), block.end(), static_cast<int>(pe)) !=
        block.end();
    if (!member) {
      EXPECT_EQ(sub.pe_load[pe], 0) << "pe " << pe;
    }
    in_block += sub.pe_load[pe];
  }
  EXPECT_EQ(in_block, sub.crossbars_used);
  for (const LayerPlacement& p : sub.placements)
    EXPECT_NE(std::find(block.begin(), block.end(), p.pe), block.end());
}

TEST(Pipeline, InterLayerOverlapFolding) {
  // One stage (or none): nothing overlaps.
  const double single[] = {3.0};
  const auto one = interlayer_pipeline(single);
  EXPECT_EQ(one.stages, 1);
  EXPECT_DOUBLE_EQ(one.fill_s, 3.0);
  EXPECT_DOUBLE_EQ(one.overlap_factor, 1.0);
  EXPECT_DOUBLE_EQ(interlayer_pipeline({}).overlap_factor, 1.0);
  // Balanced stages overlap best: bottleneck/fill = 1/n.
  const double balanced[] = {2.0, 2.0, 2.0, 2.0};
  const auto four = interlayer_pipeline(balanced);
  EXPECT_DOUBLE_EQ(four.fill_s, 8.0);
  EXPECT_DOUBLE_EQ(four.bottleneck_s, 2.0);
  EXPECT_DOUBLE_EQ(four.overlap_factor, 0.25);
  // A dominant stage caps the benefit at its share of the fill.
  const double skewed[] = {1.0, 6.0, 1.0};
  const auto skew = interlayer_pipeline(skewed);
  EXPECT_DOUBLE_EQ(skew.bottleneck_s, 6.0);
  EXPECT_DOUBLE_EQ(skew.overlap_factor, 0.75);
  EXPECT_GT(skew.overlap_factor, four.overlap_factor);
}

TEST(Overhead, PaperPercentages) {
  const OverheadModel overhead(OverheadParams{}, PimConfig{});
  // Sec. V-E: controller 1.8% of tile, online learning 0.2% of system,
  // buffer 0.35 KB.
  EXPECT_NEAR(overhead.controller_tile_fraction(), 0.018, 0.0005);
  EXPECT_NEAR(overhead.learning_system_fraction(), 0.002, 0.0005);
  EXPECT_NEAR(overhead.buffer_bytes(), 350.0, 1.0);
}

TEST(Overhead, PredictionAndUpdateCosts) {
  const OverheadModel overhead(OverheadParams{}, PimConfig{});
  const double latency = 1e-3;
  EXPECT_NEAR(overhead.prediction_energy_j(latency), 0.14e-3 * 1e-3, 1e-12);
  EXPECT_NEAR(overhead.prediction_latency_s(latency), 0.9e-5, 1e-12);
  EXPECT_NEAR(overhead.total_update_energy_j(10), 2.2e-6, 1e-12);
}

}  // namespace
}  // namespace odin::arch
