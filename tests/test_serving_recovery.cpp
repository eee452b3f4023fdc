// Crash-recovery integration: serve to run N, kill the process (simulated
// with ServingConfig::max_runs), rebuild a completely fresh simulator from
// the newest on-disk checkpoint, and require the resumed walk to finish
// with a result bitwise identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/serving.hpp"
#include "dnn/pruning.hpp"
#include "reram/fault_injection.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

struct Fixture {
  ou::MappedModel tenant_a = testing::tiny_mapped(128, 21);
  ou::MappedModel tenant_b = testing::tiny_mapped(128, 22);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};

  std::vector<const ou::MappedModel*> tenants() const {
    return {&tenant_a, &tenant_b};
  }
  ServingConfig config(const std::string& base) const {
    ServingConfig cfg;
    cfg.horizon = HorizonConfig{.t_start_s = 1.0, .t_end_s = 1e8,
                                .runs = 80};
    cfg.segments = 4;
    cfg.odin.buffer_capacity = 12;
    cfg.odin.update_options.epochs = 30;
    cfg.checkpoint.base_path = base;
    cfg.checkpoint.every_runs = 7;
    return cfg;
  }
  policy::OuPolicy fresh_policy() const {
    return policy::OuPolicy(ou::OuLevelGrid(128));
  }

  reram::FaultScheduleParams fault_params() const {
    reram::FaultScheduleParams p;
    // Aggressive enough that a handful of campaigns produces real,
    // seed-dependent wear — the fingerprint check must be able to tell
    // two seeds apart (an unworn device fingerprints identically).
    p.endurance.characteristic_cycles = 10.0;
    p.endurance.shape = 1.8;
    p.wordline_fail_rate = 2e-2;
    p.bitline_fail_rate = 2e-2;
    p.bursts = {{1e4, 1e5, 50.0}};
    return p;
  }
};

std::string temp_base(const std::string& tag) {
  return ::testing::TempDir() + "odin_recovery_" + tag;
}

void remove_slots(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

void expect_identical(const ServingResult& a, const ServingResult& b) {
  EXPECT_EQ(a.total_runs(), b.total_runs());
  EXPECT_EQ(a.total_mismatches(), b.total_mismatches());
  EXPECT_EQ(a.policy_updates, b.policy_updates);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.total_buffer_dropped(), b.total_buffer_dropped());
  EXPECT_EQ(a.total().energy_j, b.total().energy_j);
  EXPECT_EQ(a.total().latency_s, b.total().latency_s);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].runs, b.tenants[i].runs);
    EXPECT_EQ(a.tenants[i].mismatches, b.tenants[i].mismatches);
    EXPECT_EQ(a.tenants[i].reprograms, b.tenants[i].reprograms);
    EXPECT_EQ(a.tenants[i].inference.energy_j, b.tenants[i].inference.energy_j);
    EXPECT_EQ(a.tenants[i].inference.latency_s,
              b.tenants[i].inference.latency_s);
  }
}

TEST(ServingRecovery, ResumedRunMatchesUninterruptedRun) {
  Fixture fx;
  const std::string base = temp_base("basic");
  remove_slots(base);
  ServingConfig cfg = fx.config(base);

  // Ground truth: the whole horizon in one process.
  ServingConfig uninterrupted = cfg;
  uninterrupted.checkpoint.base_path.clear();
  const auto expected = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        fx.fresh_policy(), uninterrupted);

  // Crash after 33 runs (mid-segment, mid-checkpoint-period).
  ServingConfig crashed = cfg;
  crashed.max_runs = 33;
  const auto partial = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                       fx.fresh_policy(), crashed);
  EXPECT_EQ(partial.total_runs(), 33);

  // A fresh process: everything rebuilt from scratch + the checkpoint.
  const auto ckpt = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt.has_value());
  const auto resumed = resume_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        *ckpt, cfg);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed->resumed);
  expect_identical(expected, *resumed);
  remove_slots(base);
}

TEST(ServingRecovery, DoubleCrashStillConvergesToSameResult) {
  Fixture fx;
  const std::string base = temp_base("double");
  remove_slots(base);
  ServingConfig cfg = fx.config(base);

  ServingConfig uninterrupted = cfg;
  uninterrupted.checkpoint.base_path.clear();
  const auto expected = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        fx.fresh_policy(), uninterrupted);

  ServingConfig crash1 = cfg;
  crash1.max_runs = 21;
  serve_with_odin(fx.tenants(), fx.nonideal, fx.cost, fx.fresh_policy(),
                  crash1);
  auto ckpt1 = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt1.has_value());

  ServingConfig crash2 = cfg;
  crash2.max_runs = 25;  // crash again 25 runs into the resumed process
  const auto partial2 = resume_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                         *ckpt1, crash2);
  ASSERT_TRUE(partial2.has_value());
  auto ckpt2 = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt2.has_value());
  EXPECT_GT(ckpt2->sequence, ckpt1->sequence);

  const auto resumed = resume_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        *ckpt2, cfg);
  ASSERT_TRUE(resumed.has_value());
  expect_identical(expected, *resumed);
  remove_slots(base);
}

TEST(ServingRecovery, ResumeReplaysDeviceWearExactly) {
  Fixture fx;
  const std::string base = temp_base("wear");
  remove_slots(base);
  ServingConfig cfg = fx.config(base);

  ServingConfig uninterrupted = cfg;
  uninterrupted.checkpoint.base_path.clear();
  reram::FaultInjector clean(fx.fault_params(), 0x5eed);
  const auto expected =
      serve_with_odin(fx.tenants(), fx.nonideal, fx.cost, fx.fresh_policy(),
                      uninterrupted, &clean);

  ServingConfig crashed = cfg;
  crashed.max_runs = 40;
  reram::FaultInjector first(fx.fault_params(), 0x5eed);
  serve_with_odin(fx.tenants(), fx.nonideal, fx.cost, fx.fresh_policy(),
                  crashed, &first);
  const auto ckpt = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt.has_value());
  ASSERT_TRUE(ckpt->fingerprint.has_faults);

  // The resuming process constructs a brand-new injector with the original
  // seed; resume replays the wear campaigns and verifies the fingerprint.
  reram::FaultInjector second(fx.fault_params(), 0x5eed);
  const auto resumed = resume_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        *ckpt, cfg, &second);
  ASSERT_TRUE(resumed.has_value());
  expect_identical(expected, *resumed);
  EXPECT_EQ(second.campaigns(), clean.campaigns());
  EXPECT_EQ(second.fault_fraction(), clean.fault_fraction());

  // A wrong-seed injector fails the wear fingerprint => refused, no crash.
  reram::FaultInjector wrong(fx.fault_params(), 0xbad);
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                cfg, &wrong)
                   .has_value());
  remove_slots(base);
}

TEST(ServingRecovery, MismatchedConfigurationIsRefused) {
  Fixture fx;
  const std::string base = temp_base("refuse");
  remove_slots(base);
  ServingConfig cfg = fx.config(base);
  ServingConfig crashed = cfg;
  crashed.max_runs = 20;
  serve_with_odin(fx.tenants(), fx.nonideal, fx.cost, fx.fresh_policy(),
                  crashed);
  const auto ckpt = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt.has_value());

  ServingConfig wrong_segments = cfg;
  wrong_segments.segments = 8;
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                wrong_segments)
                   .has_value());
  ServingConfig wrong_horizon = cfg;
  wrong_horizon.horizon.runs = 200;
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                wrong_horizon)
                   .has_value());
  // Different tenant set (one tenant instead of two).
  EXPECT_FALSE(resume_with_odin({&fx.tenant_a}, fx.nonideal, fx.cost, *ckpt,
                                cfg)
                   .has_value());
  // A faults pointer when the original run had none.
  reram::FaultInjector faults(fx.fault_params(), 0x5eed);
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                cfg, &faults)
                   .has_value());
  remove_slots(base);
}

TEST(ServingRecovery, EachFingerprintFieldAloneRefusesResume) {
  // Resume compares one fingerprint. Each case changes one field no other
  // refusal test changes, and must be refused; the unchanged configuration
  // must still resume. The walk runs as shard 0 of a two-shard fleet with
  // service models and a leveled injector, so those fields are live.
  Fixture fx;
  // A second name, so the tenants in another order differ.
  const ou::MappedModel other(
      dnn::prune_model(testing::tiny_model("OtherNet"), 22), 128);
  const std::vector<const ou::MappedModel*> tenants = {&fx.tenant_a, &other};
  const std::string base = temp_base("fingerprint");
  remove_slots(base);
  ServingConfig cfg = fx.config(base);
  cfg.fleet_shards = 2;
  cfg.service_models = {{{1e-9, 2e-6}, 0.75}, {{3e-9, 4e-6}, 0.5}};
  reram::FaultScheduleParams wear = fx.fault_params();
  wear.leveling.enabled = true;
  wear.leveling.spare_rows = 8;
  wear.leveling.wear_budget_percent = 70;
  {
    ServingConfig crashed = cfg;
    crashed.max_runs = 30;
    reram::FaultInjector faults(wear, 0x5eed);
    serve_with_odin(tenants, fx.nonideal, fx.cost, fx.fresh_policy(), crashed,
                    &faults);
  }
  const auto ckpt = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt.has_value());

  using Tenants = std::vector<const ou::MappedModel*>;
  struct Case {
    const char* field;
    void (*change)(ServingConfig&, Tenants&, reram::FaultScheduleParams&);
  };
  const Case cases[] = {
      {"t_start_s", [](auto& c, auto&, auto&) { c.horizon.t_start_s = 2.0; }},
      {"t_end_s", [](auto& c, auto&, auto&) { c.horizon.t_end_s = 1e7; }},
      {"tenant order", [](auto&, auto& t, auto&) { std::swap(t[0], t[1]); }},
      {"fleet_shard_index",
       [](auto& c, auto&, auto&) { c.fleet_shard_index = 1; }},
      {"service_models",
       [](auto& c, auto&, auto&) {
         c.service_models[1].pipeline_overlap = 0.6;
       }},
      {"spare rows", [](auto&, auto&, auto& w) { w.leveling.spare_rows = 9; }},
      {"wear budget",
       [](auto&, auto&, auto& w) { w.leveling.wear_budget_percent = 71; }},
  };
  const auto resumes = [&](const Case* c) {
    ServingConfig config = cfg;
    Tenants order = tenants;
    reram::FaultScheduleParams params = wear;
    if (c != nullptr) c->change(config, order, params);
    reram::FaultInjector faults(params, 0x5eed);
    return resume_with_odin(order, fx.nonideal, fx.cost, *ckpt, config,
                            &faults)
        .has_value();
  };
  for (const Case& c : cases) EXPECT_FALSE(resumes(&c)) << c.field;
  EXPECT_TRUE(resumes(nullptr));
  remove_slots(base);
}

TEST(ServingRecovery, CheckpointingItselfDoesNotPerturbTheWalk) {
  Fixture fx;
  const std::string base = temp_base("noeffect");
  remove_slots(base);
  ServingConfig with = fx.config(base);
  ServingConfig without = with;
  without.checkpoint.base_path.clear();
  const auto a = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                 fx.fresh_policy(), with);
  const auto b = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                 fx.fresh_policy(), without);
  expect_identical(a, b);
  remove_slots(base);
}

}  // namespace
}  // namespace odin::core
