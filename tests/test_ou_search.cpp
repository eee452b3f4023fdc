// Tests for the exhaustive and resource-bounded searches: optimality,
// feasibility handling and the evaluation-count gap the paper reports.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ou/mapped_model.hpp"
#include "ou/search.hpp"

namespace odin::ou {
namespace {

struct Fixture {
  dnn::LayerDescriptor layer;
  dnn::WeightPattern pattern;
  OuLevelGrid grid{128};
  NonIdealityModel nonideal{reram::DeviceParams{}, NonIdealityParams{}};
  OuCostModel cost{CostParams{}, reram::DeviceParams{}};
  LayerMapping mapping;

  explicit Fixture(double density = 0.4, std::uint64_t seed = 5)
      : layer(make_layer()), pattern(make_pattern(density, seed)),
        mapping(layer, pattern, 128) {}

  static dnn::LayerDescriptor make_layer() {
    dnn::LayerDescriptor l;
    l.name = "mid";
    l.fan_in = 256;
    l.outputs = 192;
    l.spatial_positions = 16;
    l.kernel = 3;
    return l;
  }
  dnn::WeightPattern make_pattern(double density, std::uint64_t seed) {
    common::Rng rng(seed);
    dnn::WeightPattern p(layer.fan_in, layer.outputs);
    for (int r = 0; r < layer.fan_in; ++r)
      for (int c = 0; c < layer.outputs; ++c)
        if (rng.bernoulli(density)) p.set(r, c);
    return p;
  }
  LayerContext context(double t, double sensitivity = 1.0) const {
    return LayerContext{.mapping = &mapping, .cost = &cost,
                        .nonideal = &nonideal, .grid = &grid,
                        .elapsed_s = t, .sensitivity = sensitivity};
  }
};

TEST(ExhaustiveSearch, FindsGlobalFeasibleMinimum) {
  const Fixture fx;
  const auto ctx = fx.context(1.0);
  const SearchResult result = exhaustive_search(ctx);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.evaluations, 36);
  // Brute-force verification.
  for (const OuConfig& cfg : fx.grid.all_configs()) {
    if (ctx.feasible(cfg)) {
      EXPECT_LE(result.edp, ctx.edp(cfg) * (1.0 + 1e-12)) << cfg.to_string();
    }
  }
  EXPECT_TRUE(ctx.feasible(result.best));
  EXPECT_DOUBLE_EQ(result.edp, ctx.edp(result.best));
}

TEST(ExhaustiveSearch, ReportsInfeasibleWhenEverythingViolates) {
  const Fixture fx;
  const auto ctx = fx.context(1e10);  // far beyond the drift horizon
  const SearchResult result = exhaustive_search(ctx);
  EXPECT_FALSE(result.found);
}

TEST(ResourceBoundedSearch, FindsFeasibleFromAnyStart) {
  const Fixture fx;
  for (double t : {1.0, 1e3, 1e6, 3e7}) {
    const auto ctx = fx.context(t);
    for (const OuConfig& start : fx.grid.all_configs()) {
      const SearchResult result = resource_bounded_search(ctx, start, 3);
      EXPECT_TRUE(result.found) << "t=" << t << " start=" << start.to_string();
      EXPECT_TRUE(ctx.feasible(result.best));
    }
  }
}

TEST(ResourceBoundedSearch, MatchesExhaustiveWhenStartedNearOptimum) {
  const Fixture fx;
  const auto ctx = fx.context(1.0);
  const SearchResult ex = exhaustive_search(ctx);
  const SearchResult rb = resource_bounded_search(ctx, ex.best, 3);
  ASSERT_TRUE(rb.found);
  EXPECT_EQ(rb.best, ex.best);
  EXPECT_DOUBLE_EQ(rb.edp, ex.edp);
}

TEST(ResourceBoundedSearch, NeverBeatsExhaustive) {
  const Fixture fx;
  for (double t : {1.0, 1e4, 1e7}) {
    const auto ctx = fx.context(t);
    const SearchResult ex = exhaustive_search(ctx);
    const SearchResult rb =
        resource_bounded_search(ctx, {16, 16}, 3);
    ASSERT_TRUE(ex.found);
    ASSERT_TRUE(rb.found);
    EXPECT_GE(rb.edp, ex.edp * (1.0 - 1e-12));
  }
}

TEST(ResourceBoundedSearch, CostsRoughlyAThirdOfExhaustive) {
  // Paper Sec. V-B: EX has ~3x the timing overhead of RB (K = 3).
  const Fixture fx;
  const auto ctx = fx.context(1.0);
  const SearchResult ex = exhaustive_search(ctx);
  const SearchResult rb = resource_bounded_search(ctx, {16, 16}, 3);
  EXPECT_LE(rb.evaluations, 16);  // 1 + 3 steps x <=4 neighbours + slack
  EXPECT_GE(static_cast<double>(ex.evaluations) / rb.evaluations, 2.0);
}

TEST(ResourceBoundedSearch, SnapsOffGridStartToGrid) {
  const Fixture fx;
  const auto ctx = fx.context(1.0);
  // 9x8 (a homogeneous baseline) is off the 2^L grid.
  const SearchResult result = resource_bounded_search(ctx, {9, 8}, 3);
  ASSERT_TRUE(result.found);
  EXPECT_GE(fx.grid.level_of(result.best.rows), 0);
  EXPECT_GE(fx.grid.level_of(result.best.cols), 0);
}

TEST(ResourceBoundedSearch, ZeroStepsEvaluatesOnlyStart) {
  const Fixture fx;
  const auto ctx = fx.context(1.0);
  const SearchResult result = resource_bounded_search(ctx, {16, 16}, 0);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.best, (OuConfig{16, 16}));
  EXPECT_EQ(result.evaluations, 1);
}

TEST(ResourceBoundedSearch, HonoursSensitivityConstraint) {
  const Fixture fx;
  const auto ctx = fx.context(1.0, 3.0);  // early-layer sensitivity
  const SearchResult result = resource_bounded_search(ctx, {64, 64}, 3);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(ctx.feasible(result.best));
  EXPECT_LE(result.best.sum(), 24);  // eta_ir / (s * G_ON * R_wire)
}

TEST(LayerContext, ViolationIsZeroIffFeasible) {
  const Fixture fx;
  const auto ctx = fx.context(1.0, 2.0);
  for (const OuConfig& cfg : fx.grid.all_configs()) {
    if (ctx.feasible(cfg))
      EXPECT_DOUBLE_EQ(ctx.violation(cfg), 0.0) << cfg.to_string();
    else
      EXPECT_GT(ctx.violation(cfg), 0.0) << cfg.to_string();
  }
}

TEST(Searches, LateHorizonPushesBestTowardsFinerOus) {
  const Fixture fx;
  const SearchResult early = exhaustive_search(fx.context(1.0));
  const SearchResult late = exhaustive_search(fx.context(5e7));
  ASSERT_TRUE(early.found);
  ASSERT_TRUE(late.found);
  EXPECT_LT(late.best.sum(), early.best.sum());  // Fig. 4's left shift
}

}  // namespace
}  // namespace odin::ou
