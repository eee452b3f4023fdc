// Cross-module property sweeps (TEST_P): invariants that must hold for
// every OU configuration, crossbar size, drift time and layer shape the
// framework can combine — the contracts the analytical pipeline rests on.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "ou/search.hpp"
#include "test_helpers.hpp"

namespace odin::ou {
namespace {

// ---------------------------------------------------------------------
// Mapper conservation: for any OU tiling, the per-block non-zero counts
// partition the layer's non-zeros exactly (no weight lost or duplicated).
// ---------------------------------------------------------------------

class MapperConservation
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MapperConservation, BlocksPartitionNonzeros) {
  const auto [crossbar, rows, cols] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(rows) * 1000 + cols);
  dnn::WeightPattern pattern(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng.bernoulli(0.35)) pattern.set(r, c);

  const OuLevelGrid grid(crossbar);
  for (const OuConfig& cfg : grid.all_configs()) {
    std::int64_t covered = 0;
    for (int xr = 0; xr < rows; xr += crossbar) {
      for (int xc = 0; xc < cols; xc += crossbar) {
        const int xrows = std::min(crossbar, rows - xr);
        const int xcols = std::min(crossbar, cols - xc);
        for (int r0 = 0; r0 < xrows; r0 += cfg.rows)
          for (int c0 = 0; c0 < xcols; c0 += cfg.cols)
            covered += pattern.block_nonzeros(
                xr + r0, xc + c0,
                std::min(cfg.rows, xrows - r0),
                std::min(cfg.cols, xcols - c0));
      }
    }
    EXPECT_EQ(covered, pattern.nonzeros()) << cfg.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndCrossbars, MapperConservation,
    ::testing::Values(std::make_tuple(128, 200, 130),
                      std::make_tuple(128, 27, 64),
                      std::make_tuple(64, 300, 70),
                      std::make_tuple(32, 64, 64),
                      std::make_tuple(32, 33, 97)));

// ---------------------------------------------------------------------
// Cost-model dominance: strictly more OU cycles can never cost less, for
// any configuration on the grid.
// ---------------------------------------------------------------------

class CostDominance : public ::testing::TestWithParam<int> {};

TEST_P(CostDominance, MoreCyclesNeverCheaper) {
  const int crossbar = GetParam();
  const OuCostModel model{CostParams{}, reram::DeviceParams{}};
  const OuLevelGrid grid(crossbar);
  for (const OuConfig& cfg : grid.all_configs()) {
    OuCounts small, large;
    small.total_ou_cycles = 100;
    small.max_ou_cycles_per_xbar = 10;
    large.total_ou_cycles = 200;
    large.max_ou_cycles_per_xbar = 20;
    const auto cs = model.layer_cost(small, cfg);
    const auto cl = model.layer_cost(large, cfg);
    EXPECT_GT(cl.total().energy_j, cs.total().energy_j) << cfg.to_string();
    EXPECT_GT(cl.total().latency_s, cs.total().latency_s) << cfg.to_string();
    EXPECT_GT(cl.edp(), cs.edp()) << cfg.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Crossbars, CostDominance,
                         ::testing::Values(32, 64, 128));

// ---------------------------------------------------------------------
// Search consistency: across times and sensitivities, (a) EX's choice is
// feasible and minimal over the feasible set, (b) RB seeded at EX's answer
// reproduces it, (c) RB from any corner is within the K-step reachable
// quality envelope (never better than EX).
// ---------------------------------------------------------------------

class SearchConsistency
    : public ::testing::TestWithParam<std::tuple<double, double>> {
 protected:
  static const ou::MappedModel& model() {
    static ou::MappedModel m = odin::testing::tiny_mapped(128, 777);
    return m;
  }
};

TEST_P(SearchConsistency, ExhaustiveIsOptimalAndRbAgrees) {
  const auto [t, sensitivity] = GetParam();
  const NonIdealityModel nonideal{reram::DeviceParams{},
                                  NonIdealityParams{}};
  const OuCostModel cost{CostParams{}, reram::DeviceParams{}};
  const OuLevelGrid grid(128);
  for (std::size_t j = 0; j < model().layer_count(); ++j) {
    LayerContext ctx{.mapping = &model().mapping(j), .cost = &cost,
                     .nonideal = &nonideal, .grid = &grid,
                     .elapsed_s = t, .sensitivity = sensitivity};
    const SearchResult ex = exhaustive_search(ctx);
    if (!ex.found) {
      // Then nothing on the grid is feasible.
      for (const OuConfig& cfg : grid.all_configs())
        EXPECT_FALSE(ctx.feasible(cfg)) << cfg.to_string();
      continue;
    }
    EXPECT_TRUE(ctx.feasible(ex.best));
    for (const OuConfig& cfg : grid.all_configs()) {
      if (ctx.feasible(cfg)) {
        EXPECT_LE(ex.edp, ctx.edp(cfg) * (1 + 1e-12)) << cfg.to_string();
      }
    }

    const SearchResult rb_seeded = resource_bounded_search(ctx, ex.best, 3);
    ASSERT_TRUE(rb_seeded.found);
    EXPECT_EQ(rb_seeded.best, ex.best);

    const SearchResult rb_corner =
        resource_bounded_search(ctx, grid.config_at(0, 0), 3);
    ASSERT_TRUE(rb_corner.found);
    EXPECT_GE(rb_corner.edp, ex.edp * (1 - 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TimesAndSensitivities, SearchConsistency,
    ::testing::Combine(::testing::Values(1.0, 1e3, 1e6, 4e7, 1e9),
                       ::testing::Values(1.0, 1.8, 3.0)));

// ---------------------------------------------------------------------
// Non-ideality / budget consistency: max_feasible_sum is exactly the
// largest sum among feasible grid configs, at every time and sensitivity.
// ---------------------------------------------------------------------

class BudgetConsistency
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(BudgetConsistency, MaxFeasibleSumMatchesEnumeration) {
  const auto [t, sensitivity, crossbar] = GetParam();
  const NonIdealityModel nonideal{reram::DeviceParams{},
                                  NonIdealityParams{}, crossbar};
  const OuLevelGrid grid(crossbar);
  int expected = 0;
  for (const OuConfig& cfg : grid.all_configs())
    if (nonideal.feasible(t, cfg, sensitivity))
      expected = std::max(expected, cfg.sum());
  EXPECT_EQ(nonideal.max_feasible_sum(t, grid, sensitivity), expected);
  EXPECT_EQ(nonideal.reprogram_required(t, grid, sensitivity),
            expected == 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BudgetConsistency,
    ::testing::Combine(::testing::Values(1.0, 1e4, 1e7, 2e8),
                       ::testing::Values(1.0, 3.0),
                       ::testing::Values(32, 128)));

// ---------------------------------------------------------------------
// End-to-end EDP sanity across the homogeneous family: on a realistic
// pruned layer set, inference EDP is finite, positive, and the EDP-vs-OU
// landscape has the fine-OU penalty the paper describes.
// ---------------------------------------------------------------------

class HomogeneousLandscape : public ::testing::TestWithParam<double> {};

TEST_P(HomogeneousLandscape, FineOusPayPerCycleCosts) {
  const double t = GetParam();
  const auto& model = odin::testing::tiny_mapped(128, 4242);
  const OuCostModel cost{CostParams{}, reram::DeviceParams{}};
  common::EnergyLatency fine, mid;
  for (std::size_t j = 0; j < model.layer_count(); ++j) {
    fine += cost.layer_cost(model.mapping(j).counts({4, 4}), {4, 4}).total();
    mid += cost.layer_cost(model.mapping(j).counts({16, 16}), {16, 16})
               .total();
  }
  (void)t;  // cost is time-invariant; the sweep guards determinism
  EXPECT_GT(fine.energy_j, mid.energy_j);
  EXPECT_GT(fine.latency_s, mid.latency_s);
}

INSTANTIATE_TEST_SUITE_P(Times, HomogeneousLandscape,
                         ::testing::Values(1.0, 1e4, 1e8));

}  // namespace
}  // namespace odin::ou
