// Strict environment-variable parsing (common/env.hpp) and the one knob
// tested here that is built on it, ODIN_SIMD kernel dispatch
// (reram/batch_gemm.hpp): a value must parse in full or it is ignored with
// a stderr warning and the default applies — a typo never silently
// changes behaviour (DESIGN.md §14). Also pins the defaults and clamp
// bounds of the simulator settings, which have no environment source.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hpp"
#include "core/cluster.hpp"
#include "core/fleet.hpp"
#include "core/resilience.hpp"
#include "core/scenario.hpp"
#include "reram/batch_gemm.hpp"
#include "reram/wear_leveling.hpp"

namespace odin {
namespace {

/// Scoped setenv/unsetenv so a failing assertion can't leak state into
/// the next test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr)
      ::unsetenv(name);
    else
      ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

constexpr const char* kVar = "ODIN_TEST_ENV_VAR";

TEST(Env, LongParsesWholeValue) {
  long long v = -1;
  {
    ScopedEnv env(kVar, "42");
    EXPECT_TRUE(common::env_long(kVar, v));
    EXPECT_EQ(v, 42);
  }
  {
    ScopedEnv env(kVar, "-7");
    EXPECT_TRUE(common::env_long(kVar, v));
    EXPECT_EQ(v, -7);
  }
}

TEST(Env, LongRejectsGarbageAndPartialParses) {
  for (const char* bad : {"abc", "12abc", "1.5", "", " 3", "3 "}) {
    long long v = 99;
    ScopedEnv env(kVar, bad);
    EXPECT_FALSE(common::env_long(kVar, v)) << "value '" << bad << "'";
    EXPECT_EQ(v, 99) << "out must be untouched for '" << bad << "'";
  }
}

TEST(Env, LongUnsetReturnsFalse) {
  ScopedEnv env(kVar, nullptr);
  long long v = 5;
  EXPECT_FALSE(common::env_long(kVar, v));
  EXPECT_EQ(v, 5);
}

TEST(Env, StringReturnsNullWhenUnsetOrEmpty) {
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(common::env_string(kVar), nullptr);
  }
  {
    ScopedEnv env(kVar, "");
    EXPECT_EQ(common::env_string(kVar), nullptr);
  }
  {
    ScopedEnv env(kVar, "hello");
    ASSERT_NE(common::env_string(kVar), nullptr);
    EXPECT_STREQ(common::env_string(kVar), "hello");
  }
}

TEST(Env, ParseSimdModeIsStrict) {
  using reram::gemm::SimdMode;
  SimdMode mode = SimdMode::kAvx2;
  EXPECT_TRUE(reram::gemm::parse_simd_mode("scalar", mode));
  EXPECT_EQ(mode, SimdMode::kScalar);
  EXPECT_TRUE(reram::gemm::parse_simd_mode("avx2", mode));
  EXPECT_EQ(mode, SimdMode::kAvx2);
  for (const char* bad : {"AVX2", "sse", "avx2 ", "", "scalar2"}) {
    SimdMode untouched = SimdMode::kScalar;
    EXPECT_FALSE(reram::gemm::parse_simd_mode(bad, untouched))
        << "value '" << bad << "'";
    EXPECT_EQ(untouched, SimdMode::kScalar);
  }
}

TEST(Env, SimdModeFromEnvFollowsStrictContract) {
  using reram::gemm::SimdMode;
  {
    ScopedEnv env("ODIN_SIMD", nullptr);
    EXPECT_EQ(reram::gemm::simd_mode_from_env(),
              reram::gemm::default_simd_mode());
  }
  {
    ScopedEnv env("ODIN_SIMD", "scalar");
    EXPECT_EQ(reram::gemm::simd_mode_from_env(), SimdMode::kScalar);
  }
  {
    // Garbage warns and falls back to the default — never a third state.
    ScopedEnv env("ODIN_SIMD", "neon");
    EXPECT_EQ(reram::gemm::simd_mode_from_env(),
              reram::gemm::default_simd_mode());
  }
  {
    // An explicit avx2 request resolves to avx2 when available and
    // degrades to scalar (with a warning) when not — never fails.
    ScopedEnv env("ODIN_SIMD", "avx2");
    const SimdMode want = reram::gemm::avx2_available()
                              ? SimdMode::kAvx2
                              : SimdMode::kScalar;
    EXPECT_EQ(reram::gemm::simd_mode_from_env(), want);
  }
}

// The simulator's settings live in their config fields alone: each field
// holds its real default, and a value outside its range clamps to the
// nearest bound (DESIGN.md §14–§18).
TEST(Settings, FieldDefaultsAndClampBounds) {
  core::BatchingConfig batching;
  EXPECT_EQ(batching.max_batch, 8);
  EXPECT_EQ(batching.resolved_max_batch(), 8);
  batching.max_batch = 0;
  EXPECT_EQ(batching.resolved_max_batch(), 1);
  batching.max_batch = 5000;
  EXPECT_EQ(batching.resolved_max_batch(), 1024);

  reram::WearLevelingParams leveling;
  EXPECT_EQ(leveling.spare_rows, 16);
  EXPECT_EQ(leveling.resolved_spare_rows(), 16);
  EXPECT_EQ(leveling.wear_budget_percent, 80);
  EXPECT_DOUBLE_EQ(leveling.resolved_wear_budget(), 0.80);
  leveling.spare_rows = 0;
  leveling.wear_budget_percent = 0;
  EXPECT_EQ(leveling.resolved_spare_rows(), 1);
  EXPECT_DOUBLE_EQ(leveling.resolved_wear_budget(), 0.01);
  leveling.spare_rows = 5000;
  leveling.wear_budget_percent = 250;
  EXPECT_EQ(leveling.resolved_spare_rows(), 512);
  EXPECT_DOUBLE_EQ(leveling.resolved_wear_budget(), 1.0);

  core::FleetConfig fleet;
  EXPECT_EQ(fleet.shards, 1);
  EXPECT_EQ(fleet.resolved_shards(), 1);
  fleet.shards = -3;
  EXPECT_EQ(fleet.resolved_shards(), 1);
  fleet.shards = 5000;
  EXPECT_EQ(fleet.resolved_shards(), fleet.pim.pes);

  core::ScenarioConfig scenario;
  EXPECT_EQ(scenario.seed, 1u);
  EXPECT_EQ(scenario.resolved_seed(), 1u);
  scenario.seed = 0;  // 0 reads as the default seed
  EXPECT_EQ(scenario.resolved_seed(), 1u);
  scenario.seed = 1234;
  EXPECT_EQ(scenario.resolved_seed(), 1234u);

  EXPECT_TRUE(core::AutoscaleConfig{}.enabled);
  EXPECT_TRUE(core::FailoverConfig{}.enabled);

  core::ClusterConfig cluster;
  EXPECT_EQ(cluster.meshes, 1);
  EXPECT_EQ(cluster.resolved_meshes(), 1);
  EXPECT_EQ(cluster.replication_epochs, 4);
  EXPECT_EQ(cluster.resolved_replication_epochs(), 4);
  cluster.meshes = 0;
  cluster.replication_epochs = 0;
  EXPECT_EQ(cluster.resolved_meshes(), 1);
  EXPECT_EQ(cluster.resolved_replication_epochs(), 1);
  cluster.meshes = 5000;
  cluster.replication_epochs = 5000;
  EXPECT_EQ(cluster.resolved_meshes(), 8);
  EXPECT_EQ(cluster.resolved_replication_epochs(), 64);
}

}  // namespace
}  // namespace odin
