// Tests for the multi-tenant serving simulator.
#include <gtest/gtest.h>

#include "core/serving.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

struct Fixture {
  ou::MappedModel tenant_a = testing::tiny_mapped(128, 21);
  ou::MappedModel tenant_b = testing::tiny_mapped(128, 22);
  ou::MappedModel tenant_c = testing::tiny_mapped(128, 23);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};

  std::vector<const ou::MappedModel*> tenants() const {
    return {&tenant_a, &tenant_b, &tenant_c};
  }
  ServingConfig config() const {
    ServingConfig cfg;
    cfg.horizon = HorizonConfig{.t_start_s = 1.0, .t_end_s = 1e8,
                                .runs = 120};
    cfg.segments = 6;
    return cfg;
  }
};

TEST(Serving, EveryTenantGetsServedAndRunsAddUp) {
  Fixture fx;
  const auto result = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost,
      policy::OuPolicy(ou::OuLevelGrid(128)), fx.config());
  EXPECT_EQ(result.switches, 6);
  EXPECT_EQ(result.sum(&TenantStats::runs), 120);
  ASSERT_EQ(result.tenants.size(), 3u);
  for (const TenantStats& t : result.tenants) {
    EXPECT_EQ(t.runs, 40);  // 2 segments x 20 runs each
    EXPECT_GT(t.inference.energy_j, 0.0);
  }
}

TEST(Serving, SwitchProgrammingIsCharged) {
  Fixture fx;
  const auto result = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost,
      policy::OuPolicy(ou::OuLevelGrid(128)), fx.config());
  EXPECT_GT(result.programming.energy_j, 0.0);
  // Six switches, each a full tenant programming.
  common::EnergyLatency one;
  for (std::size_t j = 0; j < fx.tenant_a.layer_count(); ++j)
    one += fx.cost.reprogram_cost(fx.tenant_a.mapping(j));
  EXPECT_NEAR(result.programming.energy_j, 6.0 * one.energy_j,
              2.0 * one.energy_j);  // tenants differ slightly in nonzeros
}

TEST(Serving, SegmentSwitchResetsDriftSoNoSpuriousReprograms) {
  // Segments start with freshly programmed arrays; drift-triggered
  // reprogramming inside a ~1-decade segment of a 120-run horizon should
  // be rare (the 4x4 crossing is ~6e7 s after programming).
  Fixture fx;
  const auto result = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost,
      policy::OuPolicy(ou::OuLevelGrid(128)), fx.config());
  int reprograms = 0;
  for (const TenantStats& t : result.tenants) reprograms += t.reprograms;
  EXPECT_LE(reprograms, 1);
}

TEST(Serving, PolicyLearningCarriesAcrossTenants) {
  Fixture fx;
  ServingConfig cfg = fx.config();
  cfg.odin.buffer_capacity = 12;
  cfg.odin.update_options.epochs = 60;
  const auto result = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost,
      policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  EXPECT_GE(result.policy_updates, 1);
  // A tenant's second visit should mismatch less than its first: the
  // policy arrives warm. Compare the first tenant's two segments via the
  // total (first segment dominated by the untrained policy).
  const auto frozen = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost,
      policy::OuPolicy(ou::OuLevelGrid(128)),
      [&] {
        ServingConfig c = cfg;
        c.odin.buffer_capacity = 1'000'000;  // never updates
        return c;
      }());
  EXPECT_LT(result.sum(&TenantStats::mismatches),
            frozen.sum(&TenantStats::mismatches));
}

TEST(Serving, DefaultFineTuneReachesTheWalk) {
  Fixture fx;
  auto serve = [&](const ServingConfig& cfg) {
    return serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                           policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  };
  auto same = [](const ServingResult& a, const ServingResult& b) {
    if (a.policy_updates != b.policy_updates ||
        a.total().energy_j != b.total().energy_j ||
        a.total().latency_s != b.total().latency_s)
      return false;
    for (std::size_t i = 0; i < a.tenants.size(); ++i)
      if (a.tenants[i].mismatches != b.tenants[i].mismatches ||
          a.tenants[i].inference.energy_j != b.tenants[i].inference.energy_j)
        return false;
    return true;
  };
  const ServingResult fine = serve(fx.config());  // odin as ServingConfig{}
  ASSERT_GE(fine.policy_updates, 1);
  ServingConfig spelled = fx.config();
  spelled.odin.update_options.epochs = 5;
  EXPECT_TRUE(same(fine, serve(spelled)));
  ServingConfig alg1 = fx.config();
  alg1.odin = OdinConfig{};
  EXPECT_FALSE(same(fine, serve(alg1)));
}

TEST(Serving, OdinBeatsHomogeneousAcrossTenants) {
  Fixture fx;
  const auto odin = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost,
      policy::OuPolicy(ou::OuLevelGrid(128)), fx.config());
  const auto base = serve_with_homogeneous(fx.tenants(), fx.nonideal,
                                           fx.cost, {16, 16}, fx.config());
  EXPECT_EQ(base.sum(&TenantStats::runs), odin.sum(&TenantStats::runs));
  // Same programming burden (same tenants); Odin wins on the rest.
  EXPECT_NEAR(base.programming.energy_j, odin.programming.energy_j, 1e-12);
  EXPECT_LT(odin.total_edp(), base.total_edp() * 1.05);
}

TEST(Serving, HomogeneousLabelsAndStructure) {
  Fixture fx;
  const auto base = serve_with_homogeneous(fx.tenants(), fx.nonideal,
                                           fx.cost, {9, 8}, fx.config());
  EXPECT_EQ(base.label, "9x8");
  EXPECT_EQ(base.switches, 6);
  EXPECT_EQ(base.policy_updates, 0);
}

}  // namespace
}  // namespace odin::core
