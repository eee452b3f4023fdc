// Crash-safe checkpoint layer: payload round-trip properties, the pinned
// payload layout, the double-buffered atomic file pair, corruption fuzzing
// (random byte flips must always be detected and must always fall back to
// the other slot — the durability contract of core/checkpoint.hpp), and a
// decoder that refuses forged counts, trailing bytes and mutated payloads
// without large allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "allocation_counter.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "policy/serialization.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

std::string temp_base(const std::string& tag) {
  return ::testing::TempDir() + "odin_ckpt_" + tag;
}

void remove_slots(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A checkpoint with every field populated non-trivially: the controller
/// snapshot comes from a real controller that has served runs, filled its
/// buffer and promoted at least one update.
ServingCheckpoint sample_checkpoint(const ou::MappedModel& tenant) {
  const ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                      ou::NonIdealityParams{}};
  const ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  OdinConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.update_options.epochs = 20;
  OdinController controller(tenant, nonideal, cost,
                            policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  double t = 1.0;
  for (int i = 0; i < 12; ++i, t *= 3.0) controller.run_inference(t);

  ServingCheckpoint ckpt;
  ckpt.segment = 2;
  ckpt.next_run = 41;
  ckpt.fingerprint.segments = 6;
  ckpt.fingerprint.horizon_runs = 120;
  ckpt.fingerprint.t_start_s = 1.0;
  ckpt.fingerprint.t_end_s = 1e8;
  ckpt.fingerprint.tenant_names = {"TinyNet", "OtherNet"};
  ckpt.result.label = "Odin";
  ckpt.result.tenants.resize(2);
  ckpt.result.tenants[0].name = "TinyNet";
  ckpt.result.tenants[0].runs = 41;
  ckpt.result.tenants[0].mismatches = 77;
  ckpt.result.tenants[0].buffer_dropped = 5;
  ckpt.result.tenants[0].inference = {1.25e-3, 3.5e-4};
  ckpt.result.tenants[1].name = "OtherNet";
  ckpt.result.programming = {2.0e-3, 1.0e-4};
  ckpt.result.switches = 3;
  ckpt.result.policy_updates = 4;
  ckpt.result.tenants[0].slo_s = 2e-3;
  ckpt.result.tenants[0].shed_runs = 3;
  ckpt.result.tenants[0].breaker_open_runs = 6;
  ckpt.result.tenants[0].deadline_misses = 9;
  ckpt.result.tenants[0].deferred_reprograms = 2;
  ckpt.result.tenants[0].deadline_stopped_retries = 1;
  ckpt.result.tenants[0].searches_truncated = 40;
  ckpt.result.tenants[0].breaker_opens = 2;
  ckpt.result.tenants[0].breaker_reopens = 1;
  ckpt.result.tenants[0].breaker_probes = 3;
  ckpt.result.tenants[0].breaker_closes = 1;
  ckpt.result.tenants[0].watchdog_stalls = 1;
  ckpt.result.tenants[0].sojourn_s = {3.5e-4, 1.9e-3, 5.5e-3};
  ckpt.result.tenants[0].rows_remapped = 6;
  ckpt.result.tenants[0].crossbars_retired = 1;
  ckpt.result.tenants[0].writes_leveled = 384;
  ckpt.result.tenants[0].wear_deferred_reprograms = 2;
  ckpt.controller = controller.snapshot();
  ckpt.controller.wear_deferred_reprograms = 2;
  ckpt.controller.retired_seen = 1;
  ckpt.fingerprint.has_faults = true;
  ckpt.wear = {7, 12, 1, 0, 1};
  ckpt.fingerprint.leveling_enabled = true;
  ckpt.fingerprint.leveling_spare_rows = 16;
  ckpt.fingerprint.leveling_wear_budget = 0.8;
  ckpt.wear_seg_base_rows_remapped = 4;
  ckpt.wear_seg_base_crossbars_retired = 1;
  ckpt.wear_seg_base_writes_leveled = 256;
  ckpt.fingerprint.has_resilience = true;
  ckpt.fingerprint.shed_policy = 1;  // kShedOldest
  ckpt.fingerprint.queue_capacity = 8;
  ckpt.busy_until_s = 123.5;
  ckpt.pending_runs = {41, 42};
  CircuitBreaker::Snapshot breaker;
  breaker.state = 1;  // open, mid-hold
  breaker.window_bits = 0b1011;
  breaker.window_fill = 4;
  breaker.hold_left = 2;
  breaker.hold_runs = 4;
  breaker.opens = 2;
  breaker.reopens = 1;
  breaker.probes = 3;
  breaker.closes = 1;
  ckpt.breakers = {breaker, CircuitBreaker::Snapshot{}};
  ckpt.fallback_ous = {{4, 4}, {8, 16}};
  // Fleet surface: this frame claims to be shard 1 of a 2-shard fleet
  // with a placement-derived service model per tenant.
  ckpt.fingerprint.fleet_shards = 2;
  ckpt.fingerprint.fleet_shard_index = 1;
  ckpt.fingerprint.service_models = {{{1.5e-9, 2.5e-7}, 0.62},
                                     {{0.0, 0.0}, 1.0}};
  ckpt.result.tenants[0].service_s = 4.75e-3;
  ckpt.result.tenants[0].pipelined_runs = 17;
  // Scenario surface: bounded sojourn retention (live per-tenant
  // sketches past the cap) plus an embedded mid-campaign state.
  for (int i = 0; i < 9; ++i)
    ckpt.result.tenants[0].sojourn_sketch.add(1e-4 * (i + 1));
  ckpt.result.tenants[0].sojourn_dropped = 11;
  ckpt.fingerprint.sojourn_cap = 64;
  ckpt.has_scenario = true;
  ckpt.scenario.seed = 42;
  ckpt.scenario.requests = 100'000;
  ckpt.scenario.tenants = 2;
  ckpt.scenario.shards = 2;
  ckpt.scenario.epochs = 2;
  ckpt.scenario.autoscale = true;
  ckpt.scenario.next_event = 5'120;
  ckpt.scenario.clock_s = 4'321.0;
  ckpt.scenario.epoch = 1;
  ckpt.scenario.storms_fired = 1;
  ckpt.scenario.rescales = 3;
  ckpt.scenario.migrations = 7;
  ckpt.scenario.storm_campaigns_fired = 8;
  ckpt.scenario.misses = 12;
  ckpt.scenario.sheds = 2;
  ckpt.scenario.flash_requests = 640;
  ckpt.scenario.energy_j = 0.75;
  ckpt.scenario.edp_sum = 1.5e-3;
  ckpt.scenario.migration_s = 1.4e-2;
  ckpt.scenario.migration_energy_j = 3.5e-3;
  ckpt.scenario.shard_busy_until_s = {4300.0, 4400.5};
  ckpt.scenario.shard_pes = {20, 16};
  ckpt.scenario.tenant_shard = {0, 1};
  ckpt.scenario.shard_demand = {12.5, 3.25};
  ckpt.scenario.tenant_demand = {10.0, 5.75};
  ckpt.scenario.shard_wear = {{3, 5, 1, 0, 0}, {1, 2, 0, 1, 0}};
  ckpt.scenario.storm_shard_mask = {0b01};
  for (int i = 0; i < 25; ++i) {
    const double slack = 1e-3 * (i - 4);
    ckpt.scenario.slack_p1.add(slack);
    ckpt.scenario.flash_slack_p1.add(slack * 0.5);
    ckpt.scenario.tier_slack_p1[i % 3].add(slack);
    ckpt.scenario.sojourn.add(1e-3 * (i + 1));
  }
  ckpt.scenario.epoch_energy_j = {0.5, 0.25};
  ckpt.scenario.epoch_edp_sum = {1e-3, 5e-4};
  ckpt.scenario.epoch_requests = {3'000, 2'120};
  ckpt.scenario.epoch_misses = {9, 3};
  ckpt.scenario.epoch_sheds = {2, 0};
  ckpt.scenario.epoch_slack_p1.resize(2, QuantileSketch(0.01));
  ckpt.scenario.epoch_slack_p1[0].add(2e-3);
  // Cluster surface: per-tenant failover counters plus an embedded
  // mid-failover cluster state (mesh 0 dark, tenant 0 evacuated).
  ckpt.result.tenants[0].failovers = 1;
  ckpt.result.tenants[0].restored_stale = 1;
  ckpt.result.tenants[0].lost_runs = 13;
  ckpt.result.tenants[0].outage_dropped = 4;
  ckpt.result.tenants[0].rpo_s = 321.5;
  ckpt.result.tenants[0].rto_s = 44.25;
  ckpt.cluster.meshes = 2;
  ckpt.cluster.replication_epochs = 4;
  ckpt.cluster.failover = true;
  ckpt.cluster.outages_fired = 1;
  ckpt.cluster.replication_rounds = 3;
  ckpt.cluster.mesh_down = {1, 0};
  ckpt.cluster.mesh_down_until_s = {5000.0, 0.0};
  ckpt.cluster.mesh_served = {1200, 3400};
  ckpt.cluster.replica_runs = {40, 25};
  ckpt.cluster.replica_time_s = {2880.0, 2880.0};
  ckpt.cluster.replica_mesh = {1, 0};
  ckpt.cluster.tenant_ready_s = {4321.5, 0.0};
  ckpt.cluster.tenant_victim = {1, 0};
  ckpt.cluster.breakers = {breaker, CircuitBreaker::Snapshot{}};
  ckpt.cluster.failovers = 1;
  ckpt.cluster.restored_stale = 1;
  ckpt.cluster.lost_runs = 13;
  ckpt.cluster.outage_dropped = 4;
  ckpt.cluster.degraded_runs = 6;
  ckpt.cluster.bootstrap_campaigns = 1;
  ckpt.cluster.victim_offered = 20;
  ckpt.cluster.victim_served = 19;
  ckpt.cluster.rto_max_s = 44.25;
  ckpt.cluster.rto_sum_s = 44.25;
  ckpt.cluster.rpo_max_s = 321.5;
  ckpt.cluster.rpo_sum_s = 321.5;
  ckpt.cluster.replication_bytes = 8192.0;
  ckpt.cluster.replication_s = 2.1e-6;
  ckpt.cluster.replication_energy_j = 1.6e-7;
  return ckpt;
}

/// Every field of every surface set by hand, each to a value distinct from
/// the fields around it (one running counter), with literal policy blobs
/// instead of a trained controller so no training arithmetic reaches the
/// bytes. Five samples per sketch fill its markers without P² updates.
ServingCheckpoint pinned_checkpoint() {
  int k = 0;
  const auto n = [&k] { return ++k; };
  const auto x = [&k] { return ++k + 0.5; };
  const auto sketch = [&x](auto& sk) {
    for (int i = 0; i < 5; ++i) sk.add(-x());
  };
  const auto breaker = [&n] {
    CircuitBreaker::Snapshot b;
    b.state = n();
    b.window_bits = n();
    b.window_fill = n();
    b.hold_left = n();
    b.hold_runs = n();
    b.opens = n();
    b.reopens = n();
    b.probes = n();
    b.closes = n();
    return b;
  };
  const auto entry = [&n, &x] {
    policy::ReplayBuffer::Entry e;
    e.features = {x(), x(), x(), x()};
    e.best = {n(), n()};
    return e;
  };

  ServingCheckpoint c;
  c.segment = n();
  c.next_run = n();
  c.fingerprint.segments = n();
  c.fingerprint.horizon_runs = n();
  c.fingerprint.t_start_s = x();
  c.fingerprint.t_end_s = x();
  c.fingerprint.tenant_names = {"alpha", "beta"};
  c.result.label = "pinned";
  c.result.tenants.resize(2);
  for (TenantStats& t : c.result.tenants) {
    t.name = "tenant" + std::to_string(n());
    t.runs = n();
    t.reprograms = n();
    t.mismatches = n();
    t.retries = n();
    t.degraded_runs = n();
    t.updates_rejected = n();
    t.updates_rolled_back = n();
    t.buffer_dropped = n();
    t.buffer_quarantined = n();
    t.slo_s = x();
    t.shed_runs = n();
    t.breaker_open_runs = n();
    t.deadline_misses = n();
    t.deferred_reprograms = n();
    t.deadline_stopped_retries = n();
    t.searches_truncated = n();
    t.breaker_opens = n();
    t.breaker_reopens = n();
    t.breaker_probes = n();
    t.breaker_closes = n();
    t.watchdog_stalls = n();
    t.batches_formed = n();
    t.batch_members = n();
    t.max_batch = n();
    t.batch_slo_capped = n();
    t.rows_remapped = n();
    t.crossbars_retired = n();
    t.writes_leveled = n();
    t.wear_deferred_reprograms = n();
    t.service_s = x();
    t.pipelined_runs = n();
    t.failovers = n();
    t.restored_stale = n();
    t.lost_runs = n();
    t.outage_dropped = n();
    t.rpo_s = x();
    t.rto_s = x();
    t.sojourn_s = {x(), x()};
    sketch(t.sojourn_sketch);
    t.sojourn_dropped = n();
    t.inference = {x(), x()};
    t.reprogram = {x(), x()};
  }
  c.result.programming = {x(), x()};
  c.result.switches = n();
  c.result.policy_updates = n();

  ControllerSnapshot& ctl = c.controller;
  ctl.programmed_at_s = x();
  ctl.reprogram_count = n();
  ctl.update_count = n();
  ctl.health_fraction = x();
  ctl.degraded = true;
  ctl.eta_scale = x();
  ctl.retry_count = n();
  ctl.degraded_runs = n();
  ctl.wear_deferred_reprograms = n();
  ctl.retired_seen = n();
  ctl.updates_rejected = n();
  ctl.updates_rolled_back = n();
  ctl.probation_left = n();
  ctl.probation_mismatches = n();
  ctl.probation_layers = n();
  ctl.pre_update_rate = x();
  ctl.mismatch_rate_ema = x();
  ctl.buffer_entries = {entry(), entry()};
  ctl.buffer_quarantine = {entry()};
  ctl.last_update_batch = {entry()};
  ctl.buffer_dropped = n();
  ctl.buffer_quarantine_hits = n();
  ctl.policy_blob = "literal policy blob";
  ctl.last_good_blob = "literal last-good blob";

  c.fingerprint.has_faults = true;
  c.wear = {n(), n(), n(), n(), n()};
  c.fingerprint.has_resilience = true;
  c.fingerprint.shed_policy = n();
  c.fingerprint.queue_capacity = n();
  c.busy_until_s = x();
  c.pending_runs = {static_cast<std::uint64_t>(n()),
                    static_cast<std::uint64_t>(n())};
  c.breakers = {breaker(), breaker()};
  c.fallback_ous = {{n(), n()}, {n(), n()}};
  c.fingerprint.batching_enabled = true;
  c.fingerprint.batch_cap = n();
  c.fingerprint.leveling_enabled = true;
  c.fingerprint.leveling_spare_rows = n();
  c.fingerprint.leveling_wear_budget = x();
  c.wear_seg_base_rows_remapped = n();
  c.wear_seg_base_crossbars_retired = n();
  c.wear_seg_base_writes_leveled = n();
  c.fingerprint.fleet_shards = n();
  c.fingerprint.fleet_shard_index = n();
  c.fingerprint.service_models = {{{x(), x()}, x()}, {{x(), x()}, x()}};
  c.fingerprint.sojourn_cap = n();

  c.has_scenario = true;
  CampaignState& sc = c.scenario;
  sc.seed = n();
  sc.requests = n();
  sc.tenants = n();
  sc.shards = n();
  sc.epochs = n();
  sc.autoscale = true;
  sc.next_event = n();
  sc.clock_s = x();
  sc.epoch = n();
  sc.storms_fired = n();
  sc.rescales = n();
  sc.migrations = n();
  sc.storm_campaigns_fired = n();
  sc.misses = n();
  sc.sheds = n();
  sc.flash_requests = n();
  sc.energy_j = x();
  sc.edp_sum = x();
  sc.migration_s = x();
  sc.migration_energy_j = x();
  sc.shard_busy_until_s = {x(), x()};
  sc.shard_pes = {n(), n()};
  sc.tenant_shard = {n(), n()};
  sc.shard_demand = {x(), x()};
  sc.tenant_demand = {x(), x()};
  sc.shard_wear = {{n(), n(), n(), n(), n()}, {n(), n(), n(), n(), n()}};
  sc.storm_shard_mask = {static_cast<std::uint64_t>(n()),
                         static_cast<std::uint64_t>(n())};
  sketch(sc.slack_p1);
  sketch(sc.flash_slack_p1);
  for (QuantileSketch& q : sc.tier_slack_p1) sketch(q);
  sketch(sc.sojourn);
  sc.epoch_energy_j = {x(), x()};
  sc.epoch_edp_sum = {x(), x()};
  sc.epoch_requests = {n(), n()};
  sc.epoch_misses = {n(), n()};
  sc.epoch_sheds = {n(), n()};
  sc.epoch_slack_p1 = {QuantileSketch(0.25), QuantileSketch(0.75)};
  for (QuantileSketch& q : sc.epoch_slack_p1) sketch(q);

  ClusterState& cl = c.cluster;
  cl.meshes = n();
  cl.replication_epochs = n();
  cl.failover = true;
  cl.outages_fired = n();
  cl.replication_rounds = n();
  cl.mesh_down = {1, 0};
  cl.mesh_down_until_s = {x(), x()};
  cl.mesh_served = {n(), n()};
  cl.replica_runs = {n(), n()};
  cl.replica_time_s = {x(), x()};
  cl.replica_mesh = {n(), n()};
  cl.tenant_ready_s = {x(), x()};
  cl.tenant_victim = {0, 1};
  cl.breakers = {breaker(), breaker()};
  cl.failovers = n();
  cl.restored_stale = n();
  cl.lost_runs = n();
  cl.outage_dropped = n();
  cl.degraded_runs = n();
  cl.bootstrap_campaigns = n();
  cl.victim_offered = n();
  cl.victim_served = n();
  cl.rto_max_s = x();
  cl.rto_sum_s = x();
  cl.rpo_max_s = x();
  cl.rpo_sum_s = x();
  cl.replication_bytes = x();
  cl.replication_s = x();
  cl.replication_energy_j = x();
  return c;
}

TEST(Checkpoint, PayloadRoundTripIsExact) {
  const auto tenant = testing::tiny_mapped();
  const ServingCheckpoint ckpt = sample_checkpoint(tenant);

  common::ByteWriter encoded;
  encode_checkpoint(ckpt, encoded);
  common::ByteReader reader(encoded.bytes());
  const auto decoded = decode_checkpoint(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(reader.exhausted());

  // Spot-check the fields a resume depends on...
  EXPECT_EQ(decoded->segment, 2u);
  EXPECT_EQ(decoded->next_run, 41u);
  EXPECT_EQ(decoded->fingerprint.tenant_names, ckpt.fingerprint.tenant_names);
  EXPECT_TRUE(decoded->result.resumed);
  EXPECT_EQ(decoded->result.tenants[0].mismatches, 77);
  EXPECT_EQ(decoded->wear.campaigns, 7);
  EXPECT_EQ(decoded->controller.buffer_entries, ckpt.controller.buffer_entries);
  EXPECT_EQ(decoded->controller.policy_blob, ckpt.controller.policy_blob);
  EXPECT_TRUE(decoded->fingerprint.has_resilience);
  EXPECT_EQ(decoded->fingerprint.queue_capacity, 8u);
  EXPECT_EQ(decoded->pending_runs, ckpt.pending_runs);
  ASSERT_EQ(decoded->breakers.size(), 2u);
  EXPECT_EQ(decoded->breakers[0].window_bits, 0b1011u);
  EXPECT_EQ(decoded->breakers[0].hold_left, 2);
  ASSERT_EQ(decoded->fallback_ous.size(), 2u);
  EXPECT_EQ(decoded->fallback_ous[1].cols, 16);
  EXPECT_EQ(decoded->result.tenants[0].sojourn_s, ckpt.result.tenants[0].sojourn_s);
  EXPECT_EQ(decoded->result.tenants[0].deadline_misses, 9);
  // Wear-leveling surface.
  EXPECT_TRUE(decoded->fingerprint.leveling_enabled);
  EXPECT_EQ(decoded->fingerprint.leveling_spare_rows, 16);
  EXPECT_EQ(decoded->fingerprint.leveling_wear_budget, 0.8);
  EXPECT_EQ(decoded->wear.crossbars_retired, 1);
  EXPECT_EQ(decoded->wear_seg_base_rows_remapped, 4);
  EXPECT_EQ(decoded->wear_seg_base_writes_leveled, 256);
  EXPECT_EQ(decoded->controller.wear_deferred_reprograms, 2);
  EXPECT_EQ(decoded->controller.retired_seen, 1);
  EXPECT_EQ(decoded->result.tenants[0].rows_remapped, 6);
  // Fleet surface.
  EXPECT_EQ(decoded->fingerprint.fleet_shards, 2);
  EXPECT_EQ(decoded->fingerprint.fleet_shard_index, 1);
  const auto& models = decoded->fingerprint.service_models;
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].noc_extra.energy_j, 1.5e-9);
  EXPECT_EQ(models[0].noc_extra.latency_s, 2.5e-7);
  EXPECT_EQ(models[0].pipeline_overlap, 0.62);
  EXPECT_EQ(models[1].pipeline_overlap, 1.0);
  EXPECT_EQ(decoded->result.tenants[0].service_s, 4.75e-3);
  EXPECT_EQ(decoded->result.tenants[0].pipelined_runs, 17);
  // Scenario surface.
  EXPECT_EQ(decoded->fingerprint.sojourn_cap, 64u);
  EXPECT_EQ(decoded->result.tenants[0].sojourn_dropped, 11);
  EXPECT_TRUE(decoded->result.tenants[0].sojourn_sketch ==
              ckpt.result.tenants[0].sojourn_sketch);
  EXPECT_TRUE(decoded->has_scenario);
  EXPECT_EQ(decoded->scenario.seed, 42u);
  EXPECT_EQ(decoded->scenario.next_event, 5'120u);
  EXPECT_EQ(decoded->scenario.clock_s, 4'321.0);
  EXPECT_EQ(decoded->scenario.shard_pes, ckpt.scenario.shard_pes);
  EXPECT_EQ(decoded->scenario.storm_shard_mask, ckpt.scenario.storm_shard_mask);
  EXPECT_TRUE(decoded->scenario.slack_p1 == ckpt.scenario.slack_p1);
  EXPECT_TRUE(decoded->scenario.sojourn == ckpt.scenario.sojourn);
  ASSERT_EQ(decoded->scenario.epoch_slack_p1.size(), 2u);
  EXPECT_TRUE(decoded->scenario.epoch_slack_p1[0] ==
              ckpt.scenario.epoch_slack_p1[0]);
  // Cluster surface.
  EXPECT_EQ(decoded->cluster.meshes, 2);
  EXPECT_EQ(decoded->cluster.outages_fired, 1);
  EXPECT_EQ(decoded->cluster.mesh_down, ckpt.cluster.mesh_down);
  EXPECT_EQ(decoded->cluster.replica_runs, ckpt.cluster.replica_runs);
  EXPECT_EQ(decoded->cluster.tenant_victim, ckpt.cluster.tenant_victim);
  ASSERT_EQ(decoded->cluster.breakers.size(), 2u);
  EXPECT_EQ(decoded->cluster.breakers[0].window_bits, 0b1011u);
  EXPECT_EQ(decoded->cluster.rpo_max_s, 321.5);
  EXPECT_EQ(decoded->cluster.replication_bytes, 8192.0);
  EXPECT_EQ(decoded->result.tenants[0].failovers, 1);
  EXPECT_EQ(decoded->result.tenants[0].restored_stale, 1);
  EXPECT_EQ(decoded->result.tenants[0].lost_runs, 13);
  EXPECT_EQ(decoded->result.tenants[0].outage_dropped, 4);
  EXPECT_EQ(decoded->result.tenants[0].rpo_s, 321.5);
  EXPECT_EQ(decoded->result.tenants[0].rto_s, 44.25);
  // ...then pin full equality through the codec itself: re-encoding the
  // decoded checkpoint must reproduce the identical byte stream.
  common::ByteWriter reencoded;
  encode_checkpoint(*decoded, reencoded);
  EXPECT_EQ(encoded.bytes(), reencoded.bytes());
}

TEST(Checkpoint, TruncatedPayloadIsRejectedNotCrashed) {
  const auto tenant = testing::tiny_mapped();
  common::ByteWriter encoded;
  encode_checkpoint(sample_checkpoint(tenant), encoded);
  // Every strict prefix must decode to nullopt (fail-soft reader).
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                          encoded.bytes().size() / 2,
                          encoded.bytes().size() - 1}) {
    common::ByteReader reader(
        std::string_view(encoded.bytes()).substr(0, cut));
    EXPECT_FALSE(decode_checkpoint(reader).has_value()) << "cut=" << cut;
  }
}

TEST(Checkpoint, PolicyBlobRoundTripsThroughBinarySerialization) {
  policy::OuPolicy policy{ou::OuLevelGrid(128)};
  common::ByteWriter out;
  policy::save_policy_binary(policy, out);
  common::ByteReader in(out.bytes());
  auto restored = policy::load_policy_binary(in);
  ASSERT_TRUE(restored.has_value());
  // Same parameters => same predictions everywhere we probe.
  for (double s : {0.0, 0.3, 0.9}) {
    policy::Features f{0.5, s, 0.6, 0.4};
    EXPECT_EQ(restored->predict(f), policy.predict(f));
  }
}

TEST(Checkpoint, WriterAlternatesSlotsAndSequencesSurviveRestart) {
  const std::string base = temp_base("writer");
  remove_slots(base);
  const auto tenant = testing::tiny_mapped();
  ServingCheckpoint ckpt = sample_checkpoint(tenant);
  {
    CheckpointWriter writer(base);
    EXPECT_TRUE(writer.write(ckpt));
    EXPECT_EQ(ckpt.sequence, 1u);
    EXPECT_TRUE(writer.write(ckpt));
    EXPECT_TRUE(writer.write(ckpt));
    EXPECT_EQ(writer.last_sequence(), 3u);
  }
  // Both slots exist; the pair's newest is sequence 3.
  ASSERT_FALSE(read_file(base + ".a").empty());
  ASSERT_FALSE(read_file(base + ".b").empty());
  const auto latest = load_latest_checkpoint(base);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->sequence, 3u);
  // A new writer (process restart) continues the sequence — it must never
  // reuse a number or overwrite the newest slot first.
  CheckpointWriter writer2(base);
  EXPECT_EQ(writer2.last_sequence(), 3u);
  EXPECT_TRUE(writer2.write(ckpt));
  EXPECT_EQ(ckpt.sequence, 4u);
  EXPECT_EQ(load_latest_checkpoint(base)->sequence, 4u);
  remove_slots(base);
}

TEST(Checkpoint, CorruptionFuzzEveryByteFlipFallsBackToOtherSlot) {
  const std::string base = temp_base("fuzz");
  remove_slots(base);
  const auto tenant = testing::tiny_mapped();
  ServingCheckpoint ckpt = sample_checkpoint(tenant);
  CheckpointWriter writer(base);
  ASSERT_TRUE(writer.write(ckpt));  // seq 1 -> .a
  ASSERT_TRUE(writer.write(ckpt));  // seq 2 -> .b
  const std::string newest = base + ".b";
  const std::string pristine = read_file(newest);
  ASSERT_FALSE(pristine.empty());

  common::Rng rng(0xfa11);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = pristine;
    const auto pos = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(corrupt.size()));
    const int bit = static_cast<int>(rng.uniform() * 8.0);
    corrupt[pos % corrupt.size()] ^= static_cast<char>(1 << (bit % 8));
    write_file(newest, corrupt);
    // The flipped slot must be detected (header checks or CRC) and the
    // loader must fall back to the older-but-valid slot. No crash, ever.
    EXPECT_FALSE(load_checkpoint_file(newest).has_value())
        << "undetected flip at byte " << pos;
    const auto fallback = load_latest_checkpoint(base);
    ASSERT_TRUE(fallback.has_value());
    EXPECT_EQ(fallback->sequence, 1u);
  }
  // Torn write (truncation) is detected the same way.
  write_file(newest, pristine.substr(0, pristine.size() / 2));
  EXPECT_FALSE(load_checkpoint_file(newest).has_value());
  EXPECT_EQ(load_latest_checkpoint(base)->sequence, 1u);
  // Restoring the pristine bytes restores the newest checkpoint.
  write_file(newest, pristine);
  EXPECT_EQ(load_latest_checkpoint(base)->sequence, 2u);
  remove_slots(base);
}

TEST(Checkpoint, BothSlotsCorruptMeansNulloptNotCrash) {
  const std::string base = temp_base("allbad");
  remove_slots(base);
  write_file(base + ".a", "definitely not a checkpoint");
  write_file(base + ".b", std::string(200, '\0'));
  EXPECT_FALSE(load_latest_checkpoint(base).has_value());
  remove_slots(base);
}

/// Frame a payload the way write_frame does, but with a caller-chosen
/// version number (write_frame always stamps the current one).
std::string frame_with_version(std::uint32_t version, std::uint64_t sequence,
                               const std::string& payload) {
  common::ByteWriter meta;
  meta.u64(sequence);
  meta.u64(payload.size());
  const std::uint32_t seed =
      common::crc32(meta.bytes().data(), meta.bytes().size());
  const std::uint32_t crc = common::crc32(payload.data(), payload.size(), seed);
  common::ByteWriter header;
  for (char m : {'O', 'D', 'I', 'N', 'C', 'K', 'P', 'T'})
    header.u8(static_cast<std::uint8_t>(m));
  header.u32(version);
  header.u64(sequence);
  header.u64(payload.size());
  header.u32(crc);
  return header.bytes() + payload;
}

TEST(Checkpoint, MidFrameTruncationSweepAlwaysFallsBack) {
  // A torn write can stop after *any* byte: header, payload, CRC. Every
  // strict prefix of a valid frame must be rejected by the file loader and
  // must fall back to the older-but-valid slot — a sweep, not spot checks.
  const std::string base = temp_base("tornsweep");
  remove_slots(base);
  const auto tenant = testing::tiny_mapped();
  ServingCheckpoint ckpt = sample_checkpoint(tenant);
  CheckpointWriter writer(base);
  ASSERT_TRUE(writer.write(ckpt));  // seq 1 -> .a
  ASSERT_TRUE(writer.write(ckpt));  // seq 2 -> .b
  const std::string newest = base + ".b";
  const std::string pristine = read_file(newest);
  ASSERT_GT(pristine.size(), 32u);  // magic + version + seq + size + crc
  // Every cut inside the 32-byte header, then a stride through the
  // payload, then the last bytes (a torn CRC tail).
  std::vector<std::size_t> cuts;
  for (std::size_t c = 0; c < 32; ++c) cuts.push_back(c);
  const std::size_t stride = std::max<std::size_t>(1, pristine.size() / 256);
  for (std::size_t c = 32; c < pristine.size(); c += stride) cuts.push_back(c);
  for (std::size_t c = pristine.size() - 4; c < pristine.size(); ++c)
    cuts.push_back(c);
  for (std::size_t cut : cuts) {
    write_file(newest, pristine.substr(0, cut));
    EXPECT_FALSE(load_checkpoint_file(newest).has_value()) << "cut=" << cut;
    const auto fallback = load_latest_checkpoint(base);
    ASSERT_TRUE(fallback.has_value()) << "cut=" << cut;
    EXPECT_EQ(fallback->sequence, 1u) << "cut=" << cut;
  }
  // Restoring the pristine bytes restores the newest checkpoint.
  write_file(newest, pristine);
  EXPECT_EQ(load_latest_checkpoint(base)->sequence, 2u);
  remove_slots(base);
}

TEST(Checkpoint, ZeroLengthFilesAreNulloptNotCrash) {
  // The degenerate torn write: rename landed but the data never made it.
  const std::string base = temp_base("zerolen");
  remove_slots(base);
  write_file(base + ".a", "");
  EXPECT_FALSE(load_checkpoint_file(base + ".a").has_value());
  // Zero-length newest slot falls back to the valid older slot...
  const auto tenant = testing::tiny_mapped();
  ServingCheckpoint ckpt = sample_checkpoint(tenant);
  CheckpointWriter writer(base);
  ASSERT_TRUE(writer.write(ckpt));  // overwrites .a (seq 1)
  ASSERT_TRUE(writer.write(ckpt));  // .b (seq 2)
  write_file(base + ".b", "");
  const auto fallback = load_latest_checkpoint(base);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->sequence, 1u);
  // ...and a pair of zero-length slots is a clean nullopt.
  write_file(base + ".a", "");
  EXPECT_FALSE(load_latest_checkpoint(base).has_value());
  remove_slots(base);
}

TEST(Checkpoint, OnlyTheCurrentVersionFrameLoads) {
  // There is one payload layout. Same bytes, same CRC: under any other
  // version the frame is refused — an older layout would be misparsed and
  // a newer one is unknown — and under kCheckpointVersion it loads.
  const auto tenant = testing::tiny_mapped();
  common::ByteWriter payload;
  encode_checkpoint(sample_checkpoint(tenant), payload);
  const std::string path = temp_base("versions") + ".a";
  for (std::uint32_t version : {0u, 1u, 8u, 10u}) {
    write_file(path, frame_with_version(version, 9, payload.bytes()));
    EXPECT_FALSE(load_checkpoint_file(path).has_value())
        << "version=" << version;
  }
  write_file(path, frame_with_version(kCheckpointVersion, 9, payload.bytes()));
  const auto ckpt = load_checkpoint_file(path);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->sequence, 9u);
  std::remove(path.c_str());
}

TEST(Checkpoint, ForeignVersionOfAnIntactPairIsReported) {
  // An intact pair from another build is told apart from a torn or corrupt
  // one: foreign_checkpoint_version names the newest intact slot's version,
  // and only when no slot holds a current-version frame.
  const auto tenant = testing::tiny_mapped();
  common::ByteWriter payload;
  encode_checkpoint(sample_checkpoint(tenant), payload);
  const std::string base = temp_base("foreign");
  remove_slots(base);
  EXPECT_FALSE(foreign_checkpoint_version(base).has_value()) << "no files";
  for (std::uint32_t version : {8u, 10u}) {
    write_file(base + ".a", frame_with_version(version, 3, payload.bytes()));
    write_file(base + ".b", frame_with_version(version, 4, payload.bytes()));
    EXPECT_FALSE(load_latest_checkpoint(base).has_value());
    EXPECT_EQ(foreign_checkpoint_version(base), version);
  }
  // Mixed foreign versions: the slot with the higher sequence speaks.
  write_file(base + ".a", frame_with_version(10, 7, payload.bytes()));
  write_file(base + ".b", frame_with_version(8, 6, payload.bytes()));
  EXPECT_EQ(foreign_checkpoint_version(base), 10u);
  // A corrupt foreign slot is not evidence; the intact one still is.
  std::string torn = frame_with_version(10, 7, payload.bytes());
  torn[torn.size() / 2] ^= 0x01;
  write_file(base + ".a", torn);
  EXPECT_EQ(foreign_checkpoint_version(base), 8u);
  // With no intact slot the pair is torn or corrupt, not foreign.
  write_file(base + ".b", torn);
  EXPECT_FALSE(foreign_checkpoint_version(base).has_value());
  // A current-version slot means the pair is this build's.
  write_file(base + ".a", frame_with_version(8, 9, payload.bytes()));
  write_file(base + ".b",
             frame_with_version(kCheckpointVersion, 2, payload.bytes()));
  EXPECT_FALSE(foreign_checkpoint_version(base).has_value());
  EXPECT_TRUE(load_latest_checkpoint(base).has_value());
  // The CRC does not cover the version field, so one flipped version bit in
  // an intact current-version slot, beside a torn one, reads as a foreign
  // version: the value is only what the header claims, and the CLI's message
  // says so.
  std::string flipped =
      frame_with_version(kCheckpointVersion, 5, payload.bytes());
  flipped[8] ^= 0x04;  // low byte of the little-endian version field
  write_file(base + ".a", flipped);
  write_file(base + ".b", torn);
  EXPECT_FALSE(load_latest_checkpoint(base).has_value());
  EXPECT_EQ(foreign_checkpoint_version(base), kCheckpointVersion ^ 0x04u);
  remove_slots(base);
}

TEST(Checkpoint, PayloadLayoutIsPinned) {
  // The round-trip tests cannot see a walk that swaps two fields (both
  // directions swap together); the payload bytes can. Every field of
  // pinned_checkpoint differs from its neighbours, so a reorder changes
  // the CRC. A deliberate layout change bumps kCheckpointVersion and
  // re-pins both values.
  common::ByteWriter out;
  encode_checkpoint(pinned_checkpoint(), out);
  EXPECT_EQ(out.bytes().size(), 4015u);
  EXPECT_EQ(common::crc32(out.bytes().data(), out.bytes().size()),
            0x694bf655u);
}

TEST(Checkpoint, ForgedCountsAndTrailingBytesAreRefused) {
  // Anyone can compute the frame CRC, so a CRC-valid frame may claim any
  // count. A count is checked against the bytes left before any element
  // is read: a 16M-element claim in a payload cut right after it must be
  // refused without a large allocation. Each count's offset is the first
  // byte at which the payloads with zero and with one element differ.
  ServingCheckpoint base;
  base.result.tenants.resize(1);
  common::ByteWriter valid;
  encode_checkpoint(base, valid);
  const auto forge = [&](const auto& add_one) {
    ServingCheckpoint one = base;
    add_one(one);
    common::ByteWriter grown;
    encode_checkpoint(one, grown);
    const std::string& a = valid.bytes();
    const std::string& b = grown.bytes();
    const auto at = static_cast<std::size_t>(
        std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
        a.begin());
    std::string forged = b.substr(0, at + 8);
    for (std::size_t i = 0; i < 8; ++i)
      forged[at + i] = static_cast<char>(((1ull << 24) >> (8 * i)) & 0xff);
    return forged;
  };
  const std::string forged[] = {
      forge([](ServingCheckpoint& c) {
        c.controller.buffer_entries.emplace_back();
      }),
      forge([](ServingCheckpoint& c) {
        c.result.tenants[0].sojourn_s.push_back(1.0);
      }),
  };
  for (const std::string& payload : forged) {
    g_largest_allocation.store(0);
    common::ByteReader in(payload);
    EXPECT_FALSE(decode_checkpoint(in).has_value());
    EXPECT_LE(g_largest_allocation.load(), std::size_t{1} << 20);
  }
  // One byte past the layout, under a valid CRC, is not this layout.
  const std::string path = temp_base("trailing") + ".a";
  write_file(path, frame_with_version(kCheckpointVersion, 3,
                                      valid.bytes() + '\0'));
  EXPECT_FALSE(load_checkpoint_file(path).has_value());
  write_file(path, frame_with_version(kCheckpointVersion, 3, valid.bytes()));
  EXPECT_TRUE(load_checkpoint_file(path).has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, ClaimedPayloadSizeIsBoundedByTheFile) {
  // The header's size field is read before the CRC can vouch for it. A
  // 32-byte header claiming a 1 GiB payload over a file that holds 64 KiB
  // is a torn write: refused before any buffer is sized from the claim, by
  // the loader and by the writer's slot scan alike.
  const std::string base = temp_base("claimedsize");
  remove_slots(base);
  const std::string payload(std::size_t{64} << 10, 'x');
  std::string file = frame_with_version(kCheckpointVersion, 5, payload);
  const std::uint64_t claim = std::uint64_t{1} << 30;
  constexpr std::size_t kSizeOffset = 8 + 4 + 8;  // magic, version, sequence
  for (std::size_t i = 0; i < 8; ++i)
    file[kSizeOffset + i] = static_cast<char>((claim >> (8 * i)) & 0xff);
  write_file(base + ".a", file);

  g_largest_allocation.store(0);
  EXPECT_FALSE(load_checkpoint_file(base + ".a").has_value());
  EXPECT_LT(g_largest_allocation.load(), file.size());
  g_largest_allocation.store(0);
  const CheckpointWriter writer(base);
  EXPECT_LT(g_largest_allocation.load(), file.size());
  EXPECT_EQ(writer.last_sequence(), 0u);
  remove_slots(base);
}

TEST(Checkpoint, MutatedPayloadsDecodeOrRefuseWithoutLargeAllocations) {
  // Seeded byte mutations fed straight to the decoder, past the CRC that
  // would refuse them on disk: each mutant decodes or is refused — never
  // read out of bounds (the asan lane runs this) — and no claimed count or
  // length drives an allocation beyond a small multiple of the payload.
  const auto tenant = testing::tiny_mapped();
  common::ByteWriter encoded;
  encode_checkpoint(sample_checkpoint(tenant), encoded);
  const std::string& pristine = encoded.bytes();
  common::Rng rng(0xdec0de);
  int decoded = 0;
  int refused = 0;
  std::size_t largest = 0;
  for (int trial = 0; trial < 4096; ++trial) {
    std::string mutant = pristine;
    const std::uint64_t writes = 1 + rng.uniform_index(8);
    for (std::uint64_t w = 0; w < writes; ++w)
      mutant[rng.uniform_index(mutant.size())] =
          static_cast<char>(rng.uniform_index(256));
    g_largest_allocation.store(0);
    common::ByteReader in(mutant);
    ++(decode_checkpoint(in).has_value() ? decoded : refused);
    largest = std::max(largest, g_largest_allocation.load());
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(refused, 0);
  EXPECT_LE(largest, 16 * pristine.size());
}

TEST(Checkpoint, ControllerSnapshotRestoreRoundTrip) {
  const auto tenant = testing::tiny_mapped();
  const ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                      ou::NonIdealityParams{}};
  const ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  OdinConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.update_options.epochs = 20;
  OdinController a(tenant, nonideal, cost,
                   policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  double t = 1.0;
  for (int i = 0; i < 10; ++i, t *= 3.0) a.run_inference(t);
  ControllerSnapshot snap = a.snapshot();

  OdinController b(tenant, nonideal, cost,
                   policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  ASSERT_TRUE(b.restore(snap));
  // The restored controller continues bitwise like the original.
  for (int i = 0; i < 6; ++i, t *= 2.0) {
    const RunResult ra = a.run_inference(t);
    const RunResult rb = b.run_inference(t);
    EXPECT_EQ(ra.mismatches, rb.mismatches);
    EXPECT_EQ(ra.reprogrammed, rb.reprogrammed);
    EXPECT_EQ(ra.inference.energy_j, rb.inference.energy_j);
    EXPECT_EQ(ra.inference.latency_s, rb.inference.latency_s);
  }
  EXPECT_EQ(a.update_count(), b.update_count());

  // A corrupted policy blob is refused and leaves the target unchanged.
  ControllerSnapshot bad = snap;
  bad.policy_blob = "garbage";
  OdinController c(tenant, nonideal, cost,
                   policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  EXPECT_FALSE(c.restore(bad));
  EXPECT_EQ(c.update_count(), 0);
}

TEST(Checkpoint, OffGridReplayLabelIsRefusedOnRestore) {
  // A snapshot whose replay entry names an OU size off the grid (3 rows is
  // not a power of two) would become training label -1: with a full buffer
  // the next run retrains and reads a probability row at index -1. restore
  // refuses it in each of the three entry lists and leaves the controller
  // unchanged; the same snapshot on-grid restores and retrains.
  const auto tenant = testing::tiny_mapped();
  const ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                      ou::NonIdealityParams{}};
  const ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  OdinConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.update_options.epochs = 20;
  OdinController a(tenant, nonideal, cost,
                   policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  a.run_inference(1.0);
  ControllerSnapshot full = a.snapshot();
  policy::ReplayBuffer::Entry entry;
  entry.features = {0.5, 0.4, 0.3, 0.2};
  entry.best = {16, 16};
  full.buffer_entries.assign(cfg.buffer_capacity, entry);
  const ou::OuConfig off_grid{3, 16};
  using Entries = std::vector<policy::ReplayBuffer::Entry>;
  for (Entries ControllerSnapshot::*list :
       {&ControllerSnapshot::buffer_entries,
        &ControllerSnapshot::buffer_quarantine,
        &ControllerSnapshot::last_update_batch}) {
    for (const ou::OuConfig bad_best : {off_grid, ou::OuConfig{16, 256}}) {
      ControllerSnapshot bad = full;
      (bad.*list).resize(std::max<std::size_t>((bad.*list).size(), 1),
                         entry);
      (bad.*list)[0].best = bad_best;
      OdinController b(tenant, nonideal, cost,
                       policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
      EXPECT_FALSE(b.restore(bad));
      EXPECT_EQ(b.update_count(), 0);
      b.run_inference(2.0);  // untouched: a fresh controller's first run
      EXPECT_EQ(b.update_count(), 0);
    }
  }
  OdinController c(tenant, nonideal, cost,
                   policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  ASSERT_TRUE(c.restore(full));
  c.run_inference(2.0);
  EXPECT_EQ(c.update_count(), full.update_count + 1);
}

}  // namespace
}  // namespace odin::core
