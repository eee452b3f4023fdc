// Strict environment-variable parsing (common/env.hpp) and the knobs
// built on it: ODIN_SIMD kernel dispatch (reram/batch_gemm.hpp), the
// ODIN_BATCH_MAX batch-formation cap (core/resilience.hpp) and the
// ODIN_SPARE_ROWS / ODIN_WEAR_BUDGET wear-leveling knobs
// (reram/wear_leveling.hpp) and the ODIN_SHARDS fleet shard count
// (core/fleet.hpp) and the ODIN_SCENARIO_SEED / ODIN_AUTOSCALE campaign
// knobs (core/scenario.hpp) and the ODIN_MESHES / ODIN_REPLICATION_EPOCHS
// / ODIN_FAILOVER cluster knobs (core/cluster.hpp). The contract
// (DESIGN.md §13/§14/§15/§16/§17/§18): a value must parse in full or it is
// ignored with a stderr warning and the default applies — a typo never
// silently changes behaviour. The cluster knobs never reach a plain
// campaign, which pins them in code.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

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

TEST(Env, BatchMaxDefaultsAndClamps) {
  core::BatchingConfig cfg;
  {
    ScopedEnv env("ODIN_BATCH_MAX", nullptr);
    EXPECT_EQ(cfg.resolved_max_batch(), 8);  // baked-in default
  }
  {
    ScopedEnv env("ODIN_BATCH_MAX", "32");
    EXPECT_EQ(cfg.resolved_max_batch(), 32);
  }
  {
    ScopedEnv env("ODIN_BATCH_MAX", "64batch");  // garbage: warn + default
    EXPECT_EQ(cfg.resolved_max_batch(), 8);
  }
  {
    ScopedEnv env("ODIN_BATCH_MAX", "0");  // below the floor: default
    EXPECT_EQ(cfg.resolved_max_batch(), 8);
  }
  {
    ScopedEnv env("ODIN_BATCH_MAX", "99999");  // clamped to the ceiling
    EXPECT_EQ(cfg.resolved_max_batch(), 1024);
  }
  {
    // An explicit config cap wins over the environment entirely.
    ScopedEnv env("ODIN_BATCH_MAX", "32");
    cfg.max_batch = 4;
    EXPECT_EQ(cfg.resolved_max_batch(), 4);
    cfg.max_batch = 5000;
    EXPECT_EQ(cfg.resolved_max_batch(), 1024);
  }
}

TEST(Env, SpareRowsDefaultsAndClamps) {
  reram::WearLevelingParams params;
  {
    ScopedEnv env("ODIN_SPARE_ROWS", nullptr);
    EXPECT_EQ(params.resolved_spare_rows(), 16);  // baked-in default
  }
  {
    ScopedEnv env("ODIN_SPARE_ROWS", "32");
    EXPECT_EQ(params.resolved_spare_rows(), 32);
  }
  {
    ScopedEnv env("ODIN_SPARE_ROWS", "32rows");  // garbage: warn + default
    EXPECT_EQ(params.resolved_spare_rows(), 16);
  }
  {
    ScopedEnv env("ODIN_SPARE_ROWS", "0");  // below the floor: clamped
    EXPECT_EQ(params.resolved_spare_rows(), 1);
  }
  {
    ScopedEnv env("ODIN_SPARE_ROWS", "99999");  // clamped to the ceiling
    EXPECT_EQ(params.resolved_spare_rows(), 512);
  }
  {
    // An explicit config pool wins over the environment entirely.
    ScopedEnv env("ODIN_SPARE_ROWS", "32");
    params.spare_rows = 4;
    EXPECT_EQ(params.resolved_spare_rows(), 4);
    params.spare_rows = 5000;
    EXPECT_EQ(params.resolved_spare_rows(), 512);
  }
}

TEST(Env, OdinShardsDefaultsAndClamps) {
  core::FleetConfig cfg;
  {
    ScopedEnv env("ODIN_SHARDS", nullptr);
    EXPECT_EQ(cfg.resolved_shards(), 1);  // baked-in default: one shard
  }
  {
    ScopedEnv env("ODIN_SHARDS", "9");
    EXPECT_EQ(cfg.resolved_shards(), 9);
  }
  {
    ScopedEnv env("ODIN_SHARDS", "9shards");  // garbage: warn + default
    EXPECT_EQ(cfg.resolved_shards(), 1);
  }
  {
    ScopedEnv env("ODIN_SHARDS", "0");  // below the floor: default
    EXPECT_EQ(cfg.resolved_shards(), 1);
  }
  {
    ScopedEnv env("ODIN_SHARDS", "99");  // clamped to the PE count
    EXPECT_EQ(cfg.resolved_shards(), cfg.pim.pes);
  }
  {
    // An explicit config shard count wins over the environment entirely.
    ScopedEnv env("ODIN_SHARDS", "9");
    cfg.shards = 4;
    EXPECT_EQ(cfg.resolved_shards(), 4);
    cfg.shards = 5000;
    EXPECT_EQ(cfg.resolved_shards(), cfg.pim.pes);
  }
}

TEST(Env, ScenarioSeedDefaultsAndFloor) {
  core::ScenarioConfig cfg;
  {
    ScopedEnv env("ODIN_SCENARIO_SEED", nullptr);
    EXPECT_EQ(cfg.resolved_seed(), 1u);  // baked-in default seed
  }
  {
    ScopedEnv env("ODIN_SCENARIO_SEED", "1234");
    EXPECT_EQ(cfg.resolved_seed(), 1234u);
  }
  {
    ScopedEnv env("ODIN_SCENARIO_SEED", "12cows");  // garbage: warn+default
    EXPECT_EQ(cfg.resolved_seed(), 1u);
  }
  {
    ScopedEnv env("ODIN_SCENARIO_SEED", "0");  // below the floor: default
    EXPECT_EQ(cfg.resolved_seed(), 1u);
  }
  {
    ScopedEnv env("ODIN_SCENARIO_SEED", "-3");  // below the floor: default
    EXPECT_EQ(cfg.resolved_seed(), 1u);
  }
  {
    // An explicit config seed wins over the environment entirely.
    ScopedEnv env("ODIN_SCENARIO_SEED", "1234");
    cfg.seed = 7;
    EXPECT_EQ(cfg.resolved_seed(), 7u);
  }
}

TEST(Env, AutoscaleTriStateFollowsStrictContract) {
  core::AutoscaleConfig cfg;
  {
    ScopedEnv env("ODIN_AUTOSCALE", nullptr);
    EXPECT_TRUE(cfg.resolved_enabled());  // baked-in default: on
  }
  {
    ScopedEnv env("ODIN_AUTOSCALE", "off");
    EXPECT_FALSE(cfg.resolved_enabled());
  }
  {
    ScopedEnv env("ODIN_AUTOSCALE", "0");
    EXPECT_FALSE(cfg.resolved_enabled());
  }
  {
    ScopedEnv env("ODIN_AUTOSCALE", "on");
    EXPECT_TRUE(cfg.resolved_enabled());
  }
  {
    ScopedEnv env("ODIN_AUTOSCALE", "1");
    EXPECT_TRUE(cfg.resolved_enabled());
  }
  for (const char* bad : {"yes", "ON", "off ", "2", "true"}) {
    // Garbage warns and falls back to the default — never a third state.
    ScopedEnv env("ODIN_AUTOSCALE", bad);
    EXPECT_TRUE(cfg.resolved_enabled()) << "value '" << bad << "'";
  }
  {
    // An explicit config setting wins over the environment entirely.
    ScopedEnv env("ODIN_AUTOSCALE", "on");
    cfg.enabled = 0;
    EXPECT_FALSE(cfg.resolved_enabled());
    cfg.enabled = 1;
    ScopedEnv env2("ODIN_AUTOSCALE", "off");
    EXPECT_TRUE(cfg.resolved_enabled());
  }
}

TEST(Env, OdinMeshesDefaultsAndClamps) {
  core::ClusterConfig cfg;
  {
    ScopedEnv env("ODIN_MESHES", nullptr);
    EXPECT_EQ(cfg.resolved_meshes(), 1);  // baked-in default: one mesh
  }
  {
    ScopedEnv env("ODIN_MESHES", "3");
    EXPECT_EQ(cfg.resolved_meshes(), 3);
  }
  {
    ScopedEnv env("ODIN_MESHES", "3meshes");  // garbage: warn + default
    EXPECT_EQ(cfg.resolved_meshes(), 1);
  }
  {
    ScopedEnv env("ODIN_MESHES", "0");  // below the floor: default
    EXPECT_EQ(cfg.resolved_meshes(), 1);
  }
  {
    ScopedEnv env("ODIN_MESHES", "99");  // clamped to the ceiling
    EXPECT_EQ(cfg.resolved_meshes(), 8);
  }
  {
    // An explicit config mesh count wins over the environment entirely.
    ScopedEnv env("ODIN_MESHES", "3");
    cfg.meshes = 2;
    EXPECT_EQ(cfg.resolved_meshes(), 2);
    cfg.meshes = 5000;
    EXPECT_EQ(cfg.resolved_meshes(), 8);
  }
}

TEST(Env, ReplicationEpochsDefaultsAndClamps) {
  core::ClusterConfig cfg;
  {
    ScopedEnv env("ODIN_REPLICATION_EPOCHS", nullptr);
    EXPECT_EQ(cfg.resolved_replication_epochs(), 4);  // baked-in default
  }
  {
    ScopedEnv env("ODIN_REPLICATION_EPOCHS", "8");
    EXPECT_EQ(cfg.resolved_replication_epochs(), 8);
  }
  {
    ScopedEnv env("ODIN_REPLICATION_EPOCHS", "8ep");  // garbage: default
    EXPECT_EQ(cfg.resolved_replication_epochs(), 4);
  }
  {
    ScopedEnv env("ODIN_REPLICATION_EPOCHS", "0");  // below floor: default
    EXPECT_EQ(cfg.resolved_replication_epochs(), 4);
  }
  {
    ScopedEnv env("ODIN_REPLICATION_EPOCHS", "999");  // clamped to ceiling
    EXPECT_EQ(cfg.resolved_replication_epochs(), 64);
  }
  {
    // An explicit config cadence wins over the environment entirely.
    ScopedEnv env("ODIN_REPLICATION_EPOCHS", "8");
    cfg.replication_epochs = 2;
    EXPECT_EQ(cfg.resolved_replication_epochs(), 2);
    cfg.replication_epochs = 5000;
    EXPECT_EQ(cfg.resolved_replication_epochs(), 64);
  }
}

TEST(Env, FailoverTriStateFollowsStrictContract) {
  core::FailoverConfig cfg;
  {
    ScopedEnv env("ODIN_FAILOVER", nullptr);
    EXPECT_TRUE(cfg.resolved_enabled());  // baked-in default: on
  }
  {
    ScopedEnv env("ODIN_FAILOVER", "off");
    EXPECT_FALSE(cfg.resolved_enabled());
  }
  {
    ScopedEnv env("ODIN_FAILOVER", "0");
    EXPECT_FALSE(cfg.resolved_enabled());
  }
  {
    ScopedEnv env("ODIN_FAILOVER", "on");
    EXPECT_TRUE(cfg.resolved_enabled());
  }
  {
    ScopedEnv env("ODIN_FAILOVER", "1");
    EXPECT_TRUE(cfg.resolved_enabled());
  }
  for (const char* bad : {"yes", "ON", "off ", "2", "true"}) {
    // Garbage warns and falls back to the default — never a third state.
    ScopedEnv env("ODIN_FAILOVER", bad);
    EXPECT_TRUE(cfg.resolved_enabled()) << "value '" << bad << "'";
  }
  {
    // An explicit config setting wins over the environment entirely.
    ScopedEnv env("ODIN_FAILOVER", "on");
    cfg.enabled = 0;
    EXPECT_FALSE(cfg.resolved_enabled());
    cfg.enabled = 1;
    ScopedEnv env2("ODIN_FAILOVER", "off");
    EXPECT_TRUE(cfg.resolved_enabled());
  }
}

/// A small campaign with its own knobs pinned (seed, autoscale), so only
/// the cluster knobs under test could move its output.
core::CampaignConfig small_campaign() {
  core::CampaignConfig cfg;
  cfg.scenario.seed = 11;
  cfg.scenario.tenants = 24;
  cfg.scenario.requests = 6000;
  core::FaultStorm storm;
  storm.start_frac = 0.30;
  storm.duration_frac = 0.40;
  storm.center_pe = 14;
  cfg.scenario.storms = {storm};
  cfg.shards = 4;
  cfg.autoscale.enabled = 1;
  cfg.epochs = 12;
  return cfg;
}

TEST(Env, ClusterKnobsNeverReachAPlainCampaign) {
  // run_campaign is the one-mesh cluster with every cluster knob pinned:
  // the knobs must neither change its summary nor make resume refuse a
  // frame written without them (the mesh count, failover arm and
  // replication cadence are all in the resume fingerprint).
  const std::string base = ::testing::TempDir() + "odin_env_campaign";
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
  const core::CampaignConfig cfg = small_campaign();
  core::CampaignConfig crash = cfg;
  crash.checkpoint.base_path = base;
  crash.checkpoint.every_runs = 500;
  crash.max_requests = cfg.scenario.requests / 2;
  std::string plain;
  {
    ScopedEnv meshes("ODIN_MESHES", nullptr);
    ScopedEnv failover("ODIN_FAILOVER", nullptr);
    ScopedEnv cadence("ODIN_REPLICATION_EPOCHS", nullptr);
    plain = core::run_campaign(cfg).summary();
    core::run_campaign(crash);  // leaves a mid-campaign frame behind
  }
  ScopedEnv meshes("ODIN_MESHES", "3");
  ScopedEnv failover("ODIN_FAILOVER", "off");
  ScopedEnv cadence("ODIN_REPLICATION_EPOCHS", "7");
  EXPECT_EQ(core::run_campaign(cfg).summary(), plain);
  crash.max_requests = 0;
  const auto resumed = core::resume_campaign(crash);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->summary(), plain);
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

TEST(Env, WearBudgetDefaultsAndClamps) {
  reram::WearLevelingParams params;
  {
    ScopedEnv env("ODIN_WEAR_BUDGET", nullptr);
    EXPECT_DOUBLE_EQ(params.resolved_wear_budget(), 0.80);  // default 80%
  }
  {
    ScopedEnv env("ODIN_WEAR_BUDGET", "50");
    EXPECT_DOUBLE_EQ(params.resolved_wear_budget(), 0.50);
  }
  {
    ScopedEnv env("ODIN_WEAR_BUDGET", "50%");  // garbage: warn + default
    EXPECT_DOUBLE_EQ(params.resolved_wear_budget(), 0.80);
  }
  {
    ScopedEnv env("ODIN_WEAR_BUDGET", "0");  // below the floor: clamped
    EXPECT_DOUBLE_EQ(params.resolved_wear_budget(), 0.01);
  }
  {
    ScopedEnv env("ODIN_WEAR_BUDGET", "250");  // clamped to the ceiling
    EXPECT_DOUBLE_EQ(params.resolved_wear_budget(), 1.0);
  }
  {
    // An explicit config budget wins over the environment entirely.
    ScopedEnv env("ODIN_WEAR_BUDGET", "50");
    params.wear_budget_percent = 25;
    EXPECT_DOUBLE_EQ(params.resolved_wear_budget(), 0.25);
  }
}

}  // namespace
}  // namespace odin
