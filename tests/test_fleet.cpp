// Fleet-scale sharded serving (DESIGN.md §16): NoC-/wear-aware tenant
// placement over the mesh, per-shard serving loops with placement-derived
// service models, and the shard fields of the checkpoint fingerprint. The
// two regression pins the whole subsystem hangs off: a single-shard fleet
// is bitwise identical to serve_with_odin, and a mid-campaign multi-shard
// checkpoint/resume (shards resumed concurrently) is bitwise identical to
// an uninterrupted fleet run. One case carries the sharded-throughput
// headline: 9 shards serve ten mixed-width tenants at >= 3x one shard's
// images/s, per-request EDP within 5%, with a better p99 slack than
// round-robin placement.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "policy/offline.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

/// tiny_model scaled by a channel multiplier, so placements see tenants of
/// genuinely different crossbar footprints.
dnn::DnnModel scaled_model(const std::string& name, int scale) {
  dnn::DnnModel model = testing::tiny_model(name);
  for (dnn::LayerDescriptor& l : model.layers) {
    l.in_channels *= scale;
    l.out_channels *= scale;
    l.fan_in *= scale;
    l.outputs *= scale;
  }
  return model;
}

ou::MappedModel scaled_mapped(const std::string& name, int scale,
                              std::uint64_t seed) {
  return ou::MappedModel(dnn::prune_model(scaled_model(name, scale), seed),
                         128);
}

struct Fixture {
  ou::MappedModel tenant_a = testing::tiny_mapped(128, 31);
  ou::MappedModel tenant_b = testing::tiny_mapped(128, 32);
  ou::MappedModel tenant_c = testing::tiny_mapped(128, 33);
  ou::MappedModel tenant_d = testing::tiny_mapped(128, 34);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};

  std::vector<const ou::MappedModel*> tenants() const {
    return {&tenant_a, &tenant_b, &tenant_c, &tenant_d};
  }
  policy::OuPolicy policy() const {
    return policy::OuPolicy(ou::OuLevelGrid(128));
  }
  /// Queueing scenario (same shape as the batching tests): inflated
  /// per-eval service cost, deep kBlock queue, untrippable breaker, an SLO
  /// so slack percentiles are meaningful.
  FleetConfig fleet(int shards) const {
    FleetConfig cfg;
    cfg.shards = shards;
    cfg.serving.horizon =
        HorizonConfig{.t_start_s = 1.0, .t_end_s = 1e8, .runs = 120};
    cfg.serving.segments = 8;
    cfg.serving.resilience.enabled = true;
    cfg.serving.resilience.queue_capacity = 1'000;
    cfg.serving.resilience.shed = ShedPolicy::kBlock;
    cfg.serving.resilience.search_eval_cost_s = 0.5;
    cfg.serving.resilience.breaker = {.failure_threshold = 1'000'000};
    cfg.serving.resilience.default_slo_s = 1e7;
    return cfg;
  }
};

void expect_bitwise_equal(const ServingResult& a, const ServingResult& b) {
  EXPECT_EQ(a.total().energy_j, b.total().energy_j);
  EXPECT_EQ(a.total().latency_s, b.total().latency_s);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.policy_updates, b.policy_updates);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const TenantStats& x = a.tenants[i];
    const TenantStats& y = b.tenants[i];
    EXPECT_EQ(x.runs, y.runs) << "tenant " << i;
    EXPECT_EQ(x.inference.energy_j, y.inference.energy_j) << "tenant " << i;
    EXPECT_EQ(x.inference.latency_s, y.inference.latency_s) << "tenant " << i;
    EXPECT_EQ(x.reprogram.energy_j, y.reprogram.energy_j) << "tenant " << i;
    EXPECT_EQ(x.reprogram.latency_s, y.reprogram.latency_s) << "tenant " << i;
    EXPECT_EQ(x.service_s, y.service_s) << "tenant " << i;
    EXPECT_EQ(x.pipelined_runs, y.pipelined_runs) << "tenant " << i;
    EXPECT_EQ(x.sojourn_s, y.sojourn_s) << "tenant " << i;  // bitwise
  }
}

// --- shards=1 regression pin -----------------------------------------------

TEST(Fleet, SingleShardIsBitwiseIdenticalToServeWithOdin) {
  Fixture fx;
  const FleetConfig cfg = fx.fleet(1);
  const FleetResult fleet = serve_fleet(fx.tenants(), fx.nonideal, fx.cost,
                                        fx.policy(), cfg);
  const ServingResult direct = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost, fx.policy(), cfg.serving);
  ASSERT_EQ(fleet.shards.size(), 1u);
  // The single-shard path must not inject service models or scale the
  // horizon — the ServingConfig passes through untouched.
  expect_bitwise_equal(fleet.shards[0], direct);
  EXPECT_EQ(fleet.shards[0].sum(&TenantStats::pipelined_runs), 0);
  EXPECT_EQ(fleet.total_runs(), direct.sum(&TenantStats::runs));
}

// --- the configured schedule reaches every walk ------------------------------

TEST(Fleet, SingleShardOnACustomScheduleMatchesServeWithOdin) {
  Fixture fx;
  FleetConfig cfg = fx.fleet(1);
  cfg.serving.schedule =
      make_schedule(ScheduleKind::kPoisson, cfg.serving.horizon, 7);
  const FleetResult fleet = serve_fleet(fx.tenants(), fx.nonideal, fx.cost,
                                        fx.policy(), cfg);
  const ServingResult direct = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost, fx.policy(), cfg.serving);
  ASSERT_EQ(fleet.shards.size(), 1u);
  expect_bitwise_equal(fleet.shards[0], direct);
  const ServingResult logspace = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost, fx.policy(), fx.fleet(1).serving);
  EXPECT_NE(direct.total().energy_j, logspace.total().energy_j);
}

/// What serve_with_homogeneous must charge each tenant for `schedule` cut
/// into segments of `sizes` runs: one freshly programmed runner per
/// segment, serving that segment's arrival times.
std::vector<TenantStats> homogeneous_reference(
    const Fixture& fx, ou::OuConfig ou, const std::vector<double>& schedule,
    const std::vector<std::size_t>& sizes) {
  const auto tenants = fx.tenants();
  std::vector<TenantStats> out(tenants.size());
  std::size_t begin = 0;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    HomogeneousRunner runner(*tenants[s % tenants.size()], fx.nonideal,
                             fx.cost, ou);
    runner.reset_drift_clock(schedule[begin]);
    common::EnergyLatency inference, reprogram;  // summed per segment
    for (std::size_t i = begin; i < begin + sizes[s]; ++i) {
      const BaselineRunResult run = runner.run_inference(schedule[i]);
      inference += run.inference;
      reprogram += run.reprogram;
    }
    TenantStats& stats = out[s % tenants.size()];
    stats.inference += inference;
    stats.reprogram += reprogram;
    stats.runs += static_cast<int>(sizes[s]);
    stats.reprograms += runner.reprogram_count();
    begin += sizes[s];
  }
  return out;
}

void expect_charges(const ServingResult& r,
                    const std::vector<TenantStats>& want) {
  ASSERT_EQ(r.tenants.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.tenants[i].runs, want[i].runs) << "tenant " << i;
    EXPECT_EQ(r.tenants[i].reprograms, want[i].reprograms) << "tenant " << i;
    EXPECT_EQ(r.tenants[i].inference.energy_j, want[i].inference.energy_j)
        << "tenant " << i;
    EXPECT_EQ(r.tenants[i].reprogram.energy_j, want[i].reprogram.energy_j)
        << "tenant " << i;
    EXPECT_EQ(r.tenants[i].reprogram.latency_s, want[i].reprogram.latency_s)
        << "tenant " << i;
  }
}

TEST(Fleet, HomogeneousWalkServesTheConfiguredSchedule) {
  Fixture fx;
  const ou::OuConfig ou{16, 16};
  ServingConfig cfg = fx.fleet(1).serving;
  const ServingResult implicit =
      serve_with_homogeneous(fx.tenants(), fx.nonideal, fx.cost, ou, cfg);
  cfg.schedule = run_schedule(cfg.horizon);
  const ServingResult spelled =
      serve_with_homogeneous(fx.tenants(), fx.nonideal, fx.cost, ou, cfg);
  EXPECT_EQ(spelled.switches, implicit.switches);
  expect_bitwise_equal(spelled, implicit);
  expect_charges(implicit, homogeneous_reference(
                               fx, ou, cfg.schedule,
                               std::vector<std::size_t>(8, 15)));

  // Another schedule, cut unevenly: the 16x16 arrays reprogram where its
  // arrivals fall, not where the logspace ones did.
  cfg.schedule = make_schedule(ScheduleKind::kUniform, cfg.horizon);
  cfg.segment_sizes = {5, 25, 10, 20, 15, 15, 25, 5};
  const ServingResult uniform =
      serve_with_homogeneous(fx.tenants(), fx.nonideal, fx.cost, ou, cfg);
  expect_charges(uniform, homogeneous_reference(fx, ou, cfg.schedule,
                                                cfg.segment_sizes));
  EXPECT_NE(uniform.sum(&TenantStats::reprograms),
            implicit.sum(&TenantStats::reprograms));
}

TEST(Fleet, SeededSchedulesGiveDifferentFleetTotals) {
  Fixture fx;
  auto serve = [&](std::uint64_t seed) {
    FleetConfig cfg = fx.fleet(4);
    cfg.serving.schedule =
        make_schedule(ScheduleKind::kPoisson, cfg.serving.horizon, seed);
    return serve_fleet(fx.tenants(), fx.nonideal, fx.cost, fx.policy(), cfg);
  };
  const FleetResult a = serve(1);
  const FleetResult b = serve(3);
  ASSERT_EQ(a.total_runs(), 120);
  ASSERT_EQ(b.total_runs(), 120);
  EXPECT_NE(a.edp_per_request(), b.edp_per_request());
  EXPECT_NE(a.makespan_s(), b.makespan_s());
}

// --- placement properties ---------------------------------------------------

TEST(Fleet, PlacementInvariantsAndDeterminism) {
  Fixture fx;
  const FleetConfig cfg = fx.fleet(9);
  const auto tenants = fx.tenants();
  const FleetPlacement p = place_fleet(tenants, fx.cost, cfg);
  ASSERT_EQ(p.shards, 9);
  ASSERT_EQ(p.shard_pes.size(), 9u);
  // The shard blocks tile the whole mesh exactly once.
  std::vector<int> seen(static_cast<std::size_t>(cfg.pim.pes), 0);
  for (const auto& pes : p.shard_pes) {
    EXPECT_FALSE(pes.empty());
    for (int pe : pes) {
      ASSERT_GE(pe, 0);
      ASSERT_LT(pe, cfg.pim.pes);
      ++seen[static_cast<std::size_t>(pe)];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  // Every tenant placed exactly once, on a real shard, with its footprint
  // accounted in exactly its shard's load.
  ASSERT_EQ(p.tenants.size(), tenants.size());
  std::vector<std::int64_t> load(9, 0);
  for (std::size_t t = 0; t < p.tenants.size(); ++t) {
    EXPECT_EQ(p.tenants[t].tenant, static_cast<int>(t));
    ASSERT_GE(p.tenants[t].shard, 0);
    ASSERT_LT(p.tenants[t].shard, 9);
    EXPECT_GT(p.tenants[t].crossbars, 0);
    EXPECT_GE(p.tenants[t].pes_spanned, 1);
    EXPECT_GT(p.tenants[t].pipeline_overlap, 0.0);
    EXPECT_LE(p.tenants[t].pipeline_overlap, 1.0);
    load[static_cast<std::size_t>(p.tenants[t].shard)] +=
        p.tenants[t].crossbars;
  }
  ASSERT_EQ(p.shard_load.size(), 9u);
  for (std::size_t k = 0; k < 9; ++k) EXPECT_EQ(p.shard_load[k], load[k]);
  EXPECT_GE(p.load_imbalance, 1.0);
  // Pure function: a second evaluation reproduces the placement exactly.
  const FleetPlacement q = place_fleet(tenants, fx.cost, cfg);
  ASSERT_EQ(q.tenants.size(), p.tenants.size());
  for (std::size_t t = 0; t < p.tenants.size(); ++t) {
    EXPECT_EQ(q.tenants[t].shard, p.tenants[t].shard);
    EXPECT_EQ(q.tenants[t].noc_per_inference.latency_s,
              p.tenants[t].noc_per_inference.latency_s);
    EXPECT_EQ(q.tenants[t].pipeline_overlap, p.tenants[t].pipeline_overlap);
  }
  EXPECT_EQ(q.objective, p.objective);
}

TEST(Fleet, NocAwarePlacementBalancesUnevenTenantsBetterThanOblivious) {
  // Two big tenants at indices 0 and 2 collide on shard 0 under the
  // oblivious round-robin (t % 2); the aware placement splits them.
  std::vector<ou::MappedModel> models;
  models.push_back(scaled_mapped("big0", 4, 41));
  models.push_back(scaled_mapped("small1", 1, 42));
  models.push_back(scaled_mapped("big2", 4, 43));
  models.push_back(scaled_mapped("small3", 1, 44));
  std::vector<const ou::MappedModel*> tenants;
  for (const auto& m : models) tenants.push_back(&m);
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};

  FleetConfig aware;
  aware.shards = 2;
  FleetConfig oblivious = aware;
  oblivious.noc_aware = false;

  const FleetPlacement pa = place_fleet(tenants, cost, aware);
  const FleetPlacement po = place_fleet(tenants, cost, oblivious);
  EXPECT_EQ(po.tenants[0].shard, po.tenants[2].shard);  // the collision
  EXPECT_NE(pa.tenants[0].shard, pa.tenants[2].shard);  // resolved
  EXPECT_LT(pa.load_imbalance, po.load_imbalance);
}

TEST(Fleet, WearAwarePlacementAvoidsWornShard) {
  Fixture fx;
  FleetConfig cfg = fx.fleet(4);
  // Shard 0's device has burned far past its lifetime budget; the others
  // are fresh.
  reram::FaultScheduleParams worn;
  worn.endurance.characteristic_cycles = 10.0;
  worn.endurance.shape = 1.8;
  reram::FaultInjector hot(worn, 7);
  for (int i = 0; i < 8; ++i) hot.program_campaign();
  EXPECT_GT(hot.wear_fraction(), 1.0);
  reram::FaultInjector fresh1(worn, 8), fresh2(worn, 9), fresh3(worn, 10);
  const std::vector<const reram::FaultInjector*> faults = {
      &hot, &fresh1, &fresh2, &fresh3};

  const FleetPlacement p =
      place_fleet(fx.tenants(), fx.cost, cfg, faults);
  bool any_displaced = false;
  for (const TenantPlacement& t : p.tenants) {
    EXPECT_NE(t.shard, 0) << "tenant " << t.tenant << " on the worn shard";
    any_displaced = any_displaced || t.wear_displaced;
  }
  EXPECT_TRUE(any_displaced);

  // Wear-blind placement is happy to use shard 0.
  cfg.wear_aware = false;
  const FleetPlacement blind =
      place_fleet(fx.tenants(), fx.cost, cfg, faults);
  bool uses_worn = false;
  for (const TenantPlacement& t : blind.tenants)
    uses_worn = uses_worn || t.shard == 0;
  EXPECT_TRUE(uses_worn);
}

// --- service-model charging -------------------------------------------------

TEST(Fleet, ServiceModelsChargeNocAndCreditPipelining) {
  Fixture fx;
  // Tenants big enough to spill across PEs of their shard block (a 9-PE
  // block at crossbar 128 holds 3456 slots; scale 6 needs ~900), so the
  // inter-layer pipeline has real stages.
  std::vector<ou::MappedModel> models;
  models.push_back(scaled_mapped("wide0", 6, 51));
  models.push_back(scaled_mapped("wide1", 6, 52));
  models.push_back(scaled_mapped("wide2", 6, 53));
  models.push_back(scaled_mapped("wide3", 6, 54));
  std::vector<const ou::MappedModel*> tenants;
  for (const auto& m : models) tenants.push_back(&m);

  const FleetConfig cfg = fx.fleet(4);
  const FleetPlacement placed = place_fleet(tenants, fx.cost, cfg);
  bool any_overlap = false;
  for (const TenantPlacement& t : placed.tenants) {
    EXPECT_GT(t.noc_per_inference.latency_s, 0.0);
    any_overlap = any_overlap || t.pipeline_overlap < 1.0;
  }
  EXPECT_TRUE(any_overlap);

  const FleetResult fleet =
      serve_fleet(tenants, fx.nonideal, fx.cost, fx.policy(), cfg);
  ASSERT_EQ(fleet.shards.size(), 4u);
  // Every tenant spans several PEs of its shard block, so pipelining is in
  // force and queued (back-to-back) serves ran at the overlapped rate.
  int pipelined = 0, served_shards = 0;
  for (const ServingResult& s : fleet.shards) {
    pipelined += s.sum(&TenantStats::pipelined_runs);
    if (s.sum(&TenantStats::runs) > 0) {
      ++served_shards;
      EXPECT_GT(s.sum(&TenantStats::service_s), 0.0);
    }
  }
  EXPECT_GT(served_shards, 1);
  EXPECT_GT(pipelined, 0);
  EXPECT_EQ(fleet.total_runs(), 120);
  EXPECT_GT(fleet.makespan_s(), 0.0);
  EXPECT_GT(fleet.aggregate_images_per_s(), 0.0);
  EXPECT_GT(fleet.edp_per_request(), 0.0);
  // Sharding the same traffic over 4 devices beats the single device on
  // aggregate throughput.
  const FleetResult single =
      serve_fleet(tenants, fx.nonideal, fx.cost, fx.policy(), fx.fleet(1));
  EXPECT_GT(fleet.aggregate_images_per_s(),
            single.aggregate_images_per_s());
}

// --- sharded throughput headline --------------------------------------------

TEST(Fleet, NineShardsTripleThroughputAtFlatEdpAndAwarePlacementWinsTail) {
  Fixture fx;
  // Ten tenants of mixed width. Indices 0 and 9 are the widest, so
  // round-robin at 9 shards (t % 9) stacks them on shard 0, and with two
  // segments per tenant their bursts are back-to-back in time: the shared
  // device backlogs and its sojourn tail blows up.
  const int scales[] = {6, 1, 2, 1, 3, 1, 2, 1, 2, 6};
  std::vector<ou::MappedModel> models;
  for (std::size_t i = 0; i < std::size(scales); ++i)
    models.push_back(scaled_mapped("tenant" + std::to_string(i), scales[i],
                                   0x51ee7 + i));
  std::vector<const ou::MappedModel*> tenants;
  for (const auto& m : models) tenants.push_back(&m);

  // A design-time model outside the tenant list bootstraps the policy, so
  // every fleet starts near-converged and the per-shard learning chains
  // barely diverge.
  const ou::MappedModel design = scaled_mapped("design", 4, 0xde51);
  const ou::MappedModel* known[] = {&design};
  policy::OfflineTrainConfig boot;
  boot.time_samples = 4;
  boot.t_start_s = 1.0;
  boot.t_end_s = 2.0;
  policy::OuPolicy bootstrapped = policy::train_offline_policy(
      known, fx.nonideal, fx.cost, ou::OuLevelGrid(128), boot);

  // A burst horizon whose inter-arrival gaps sit below every tenant's
  // service time, so each segment queues and its backlog spills into the
  // shard's next segment. No flat per-eval search cost: a width-blind
  // service term would make tenant count the balance that matters.
  FleetConfig base;
  base.serving.horizon =
      HorizonConfig{.t_start_s = 1.0, .t_end_s = 1.05, .runs = 400};
  base.serving.segments = 20;
  base.serving.resilience.enabled = true;
  base.serving.resilience.queue_capacity = 10'000;
  base.serving.resilience.shed = ShedPolicy::kBlock;
  base.serving.resilience.breaker.failure_threshold = 1'000'000;
  base.serving.resilience.default_slo_s = 1.0;
  auto serve = [&](int shards, bool noc_aware) {
    FleetConfig cfg = base;
    cfg.shards = shards;
    cfg.noc_aware = noc_aware;
    return serve_fleet(tenants, fx.nonideal, fx.cost, bootstrapped.clone(),
                       cfg);
  };
  const FleetResult one = serve(1, true);
  const FleetResult nine = serve(9, true);
  const FleetResult round_robin = serve(9, false);

  // Sharding scales: the same physical serves spread over the mesh.
  EXPECT_GE(nine.aggregate_images_per_s(), 3.0 * one.aggregate_images_per_s())
      << nine.aggregate_images_per_s() / one.aggregate_images_per_s() << "x";
  EXPECT_NEAR(nine.edp_per_request(), one.edp_per_request(),
              0.05 * one.edp_per_request());
  // Placement matters: aware placement keeps the two widest tenants apart.
  EXPECT_GT(nine.slack_percentile(99.0), round_robin.slack_percentile(99.0));
}

// --- multi-shard checkpoint/resume ------------------------------------------

TEST(Fleet, MultiShardCheckpointResumeIsBitwise) {
  Fixture fx;
  const FleetConfig cfg = fx.fleet(2);
  const FleetResult uninterrupted = serve_fleet(
      fx.tenants(), fx.nonideal, fx.cost, fx.policy(), cfg);

  const std::string base = ::testing::TempDir() + "odin_fleet_ckpt";
  auto cleanup = [&] {
    for (int k = 0; k < 2; ++k) {
      const std::string shard_base = base + ".shard" + std::to_string(k);
      std::remove((shard_base + ".a").c_str());
      std::remove((shard_base + ".b").c_str());
    }
  };
  cleanup();
  FleetConfig crashed = cfg;
  crashed.serving.checkpoint.base_path = base;
  crashed.serving.checkpoint.every_runs = 10;
  crashed.serving.max_runs = 25;  // every shard dies mid-campaign
  const FleetResult partial = serve_fleet(fx.tenants(), fx.nonideal, fx.cost,
                                          fx.policy(), crashed);
  EXPECT_LT(partial.total_runs(), uninterrupted.total_runs());

  // Each shard checkpoint's fingerprint names its shard of the fleet and
  // carries the placement-derived service models.
  const auto ckpt = load_latest_checkpoint(base + ".shard0");
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->fingerprint.fleet_shards, 2);
  EXPECT_EQ(ckpt->fingerprint.fleet_shard_index, 0);
  EXPECT_FALSE(ckpt->fingerprint.service_models.empty());

  FleetConfig resume_cfg = cfg;
  resume_cfg.serving.checkpoint.base_path = base;
  resume_cfg.serving.checkpoint.every_runs = 10;
  const auto resumed = resume_fleet(fx.tenants(), fx.nonideal, fx.cost,
                                    fx.policy(), resume_cfg);
  ASSERT_TRUE(resumed.has_value());
  ASSERT_EQ(resumed->shards.size(), uninterrupted.shards.size());
  for (std::size_t k = 0; k < resumed->shards.size(); ++k) {
    if (uninterrupted.shards[k].sum(&TenantStats::runs) > 0) {
      EXPECT_TRUE(resumed->shards[k].resumed) << "shard " << k;
    }
    expect_bitwise_equal(resumed->shards[k], uninterrupted.shards[k]);
  }
  EXPECT_EQ(resumed->total_runs(), uninterrupted.total_runs());
  EXPECT_EQ(resumed->edp_per_request(), uninterrupted.edp_per_request());

  // A shard checkpoint refuses a different fleet geometry: resuming the
  // same files as a 3-shard fleet must fail, not silently mix state.
  FleetConfig wrong = resume_cfg;
  wrong.shards = 3;
  EXPECT_FALSE(resume_fleet(fx.tenants(), fx.nonideal, fx.cost, fx.policy(),
                            wrong)
                   .has_value());
  cleanup();
}

}  // namespace
}  // namespace odin::core
