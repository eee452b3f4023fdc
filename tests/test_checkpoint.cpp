// Crash-safe checkpoint layer: payload round-trip properties, the
// double-buffered atomic file pair, and corruption fuzzing (random byte
// flips must always be detected and must always fall back to the other
// slot — the durability contract of core/checkpoint.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

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
  ckpt.segments = 6;
  ckpt.horizon_runs = 120;
  ckpt.t_start_s = 1.0;
  ckpt.t_end_s = 1e8;
  ckpt.tenant_names = {"TinyNet", "OtherNet"};
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
  ckpt.result.tenants[0].spares_remaining = 10;
  ckpt.controller = controller.snapshot();
  ckpt.controller.wear_deferred_reprograms = 2;
  ckpt.controller.retired_seen = 1;
  ckpt.has_faults = true;
  ckpt.wear = {7, 12, 1, 0, 1};
  ckpt.leveling_enabled = true;
  ckpt.leveling_spare_rows = 16;
  ckpt.leveling_wear_budget = 0.8;
  ckpt.wear_seg_base_rows_remapped = 4;
  ckpt.wear_seg_base_crossbars_retired = 1;
  ckpt.wear_seg_base_writes_leveled = 256;
  {  // a real leveled crossbar's wear map, not a hand-rolled one
    reram::WearLevelingParams leveling;
    leveling.enabled = true;
    leveling.spare_rows = 4;
    leveling.row_cycle_budget = 2.0;
    reram::Crossbar xbar(16, reram::DeviceParams{});
    xbar.enable_wear_leveling(leveling);
    const std::vector<double> w(64, 0.5);
    for (int k = 0; k < 7; ++k) xbar.program(w, 8, 8, 1.0 + k);
    ckpt.wear_maps.push_back(xbar.wear_map());
  }
  ckpt.has_resilience = true;
  ckpt.shed_policy = 1;  // kShedOldest
  ckpt.queue_capacity = 8;
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
  reram::CrossbarHealth health;
  health.ou_rows = 8;
  health.ou_cols = 16;
  health.stuck_cells = 9;
  health.scanned_cells = 4096;
  health.fault_fraction = 9.0 / 4096.0;
  health.windows = {{0, 0, 3}, {8, 16, 6}};
  ckpt.health_maps.push_back(std::move(health));
  // v5 fleet surface: this frame claims to be shard 1 of a 2-shard fleet
  // with a placement-derived service model per tenant.
  ckpt.fleet_shards = 2;
  ckpt.fleet_shard_index = 1;
  ckpt.has_service_models = true;
  ckpt.service_models = {{{1.5e-9, 2.5e-7}, 0.62}, {{0.0, 0.0}, 1.0}};
  ckpt.result.tenants[0].service_s = 4.75e-3;
  ckpt.result.tenants[0].pipelined_runs = 17;
  // v6 scenario surface: bounded sojourn retention (live per-tenant
  // sketches past the cap) plus an embedded mid-campaign state.
  for (int i = 0; i < 9; ++i)
    ckpt.result.tenants[0].sojourn_sketch.add(1e-4 * (i + 1));
  ckpt.result.tenants[0].sojourn_dropped = 11;
  ckpt.sojourn_cap = 64;
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
  // v7 cluster surface: per-tenant failover counters plus an embedded
  // mid-failover cluster state (mesh 0 dark, tenant 0 evacuated).
  ckpt.result.tenants[0].failovers = 1;
  ckpt.result.tenants[0].restored_stale = 1;
  ckpt.result.tenants[0].lost_runs = 13;
  ckpt.result.tenants[0].outage_dropped = 4;
  ckpt.result.tenants[0].rpo_s = 321.5;
  ckpt.result.tenants[0].rto_s = 44.25;
  ckpt.has_cluster = true;
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
  EXPECT_EQ(decoded->tenant_names, ckpt.tenant_names);
  EXPECT_TRUE(decoded->result.resumed);
  EXPECT_EQ(decoded->result.tenants[0].mismatches, 77);
  EXPECT_EQ(decoded->wear.campaigns, 7);
  ASSERT_EQ(decoded->health_maps.size(), 1u);
  EXPECT_EQ(decoded->health_maps[0].windows.size(), 2u);
  EXPECT_EQ(decoded->controller.buffer_entries, ckpt.controller.buffer_entries);
  EXPECT_EQ(decoded->controller.policy_blob, ckpt.controller.policy_blob);
  EXPECT_TRUE(decoded->has_resilience);
  EXPECT_EQ(decoded->queue_capacity, 8u);
  EXPECT_EQ(decoded->pending_runs, ckpt.pending_runs);
  ASSERT_EQ(decoded->breakers.size(), 2u);
  EXPECT_EQ(decoded->breakers[0].window_bits, 0b1011u);
  EXPECT_EQ(decoded->breakers[0].hold_left, 2);
  ASSERT_EQ(decoded->fallback_ous.size(), 2u);
  EXPECT_EQ(decoded->fallback_ous[1].cols, 16);
  EXPECT_EQ(decoded->result.tenants[0].sojourn_s, ckpt.result.tenants[0].sojourn_s);
  EXPECT_EQ(decoded->result.tenants[0].deadline_misses, 9);
  // v4 wear-leveling surface.
  EXPECT_TRUE(decoded->leveling_enabled);
  EXPECT_EQ(decoded->leveling_spare_rows, 16);
  EXPECT_EQ(decoded->leveling_wear_budget, 0.8);
  EXPECT_EQ(decoded->wear.crossbars_retired, 1);
  EXPECT_EQ(decoded->wear_seg_base_rows_remapped, 4);
  EXPECT_EQ(decoded->wear_seg_base_writes_leveled, 256);
  EXPECT_EQ(decoded->controller.wear_deferred_reprograms, 2);
  EXPECT_EQ(decoded->controller.retired_seen, 1);
  EXPECT_EQ(decoded->result.tenants[0].rows_remapped, 6);
  EXPECT_EQ(decoded->result.tenants[0].spares_remaining, 10);
  ASSERT_EQ(decoded->wear_maps.size(), 1u);
  EXPECT_EQ(decoded->wear_maps[0].rows, ckpt.wear_maps[0].rows);
  EXPECT_EQ(decoded->wear_maps[0].row_writes, ckpt.wear_maps[0].row_writes);
  EXPECT_EQ(decoded->wear_maps[0].remap, ckpt.wear_maps[0].remap);
  // v5 fleet surface.
  EXPECT_EQ(decoded->fleet_shards, 2);
  EXPECT_EQ(decoded->fleet_shard_index, 1);
  EXPECT_TRUE(decoded->has_service_models);
  ASSERT_EQ(decoded->service_models.size(), 2u);
  EXPECT_EQ(decoded->service_models[0].noc_extra.energy_j, 1.5e-9);
  EXPECT_EQ(decoded->service_models[0].noc_extra.latency_s, 2.5e-7);
  EXPECT_EQ(decoded->service_models[0].pipeline_overlap, 0.62);
  EXPECT_EQ(decoded->service_models[1].pipeline_overlap, 1.0);
  EXPECT_EQ(decoded->result.tenants[0].service_s, 4.75e-3);
  EXPECT_EQ(decoded->result.tenants[0].pipelined_runs, 17);
  // v6 scenario surface.
  EXPECT_EQ(decoded->sojourn_cap, 64u);
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
  // v7 cluster surface.
  EXPECT_TRUE(decoded->has_cluster);
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

/// A minimal-but-complete *version 1* payload, written field by field
/// against the layout v1 shipped with (no resilience fields anywhere).
/// Exists so a layout drift in the decoder's v1 path is caught even after
/// every writer in the tree moved on to v2.
std::string v1_payload() {
  common::ByteWriter out;
  out.u64(2);       // segment
  out.u64(41);      // next_run
  out.i32(6);       // segments
  out.i32(120);     // horizon_runs
  out.f64(1.0);     // t_start_s
  out.f64(1e8);     // t_end_s
  out.u64(1);       // tenant_names
  out.str("TinyNet");
  out.str("Odin");  // result.label
  out.u64(1);       // result.tenants
  {                 // one v1 tenant record
    out.str("TinyNet");
    out.i32(41);   // runs
    out.i32(3);    // reprograms
    out.i32(77);   // mismatches
    out.i32(2);    // retries
    out.i32(1);    // degraded_runs
    out.i32(4);    // updates_accepted
    out.i32(0);    // updates_rejected
    out.i32(0);    // updates_rolled_back
    out.i64(5);    // buffer_dropped
    out.i64(0);    // buffer_quarantined
    out.f64(1.25e-3);  // inference energy/latency
    out.f64(3.5e-4);
    out.f64(4.0e-3);  // reprogram energy/latency
    out.f64(9.0e-4);
  }
  out.f64(2.0e-3);  // programming energy/latency
  out.f64(1.0e-4);
  out.i32(3);  // switches
  out.i32(4);  // policy_updates
  {            // controller snapshot
    out.f64(12.5);    // programmed_at_s
    out.i32(3);       // reprogram_count
    out.i32(4);       // update_count
    out.f64(1.0);     // health_fraction
    out.boolean(false);
    out.f64(1.0);     // eta_scale
    out.i32(2);       // retry_count
    out.i32(1);       // degraded_runs
    out.i32(4);       // updates_accepted
    out.i32(0);       // updates_rejected
    out.i32(0);       // updates_rolled_back
    out.i32(0);       // probation_left
    out.i64(0);       // probation_mismatches
    out.i64(0);       // probation_layers
    out.f64(0.0);     // pre_update_rate
    out.f64(0.0);     // mismatch_rate_ema
    out.u64(0);       // buffer_entries
    out.u64(0);       // buffer_quarantine
    out.u64(0);       // last_update_batch
    out.u64(5);       // buffer_dropped
    out.u64(0);       // buffer_quarantine_hits
    out.str("");      // policy_blob
    out.str("");      // last_good_blob
  }
  out.boolean(false);  // has_faults
  out.i32(0);          // wear x4
  out.i32(0);
  out.i32(0);
  out.i32(0);
  out.u64(0);  // health_maps
  return out.bytes();
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

TEST(Checkpoint, Version1FrameDecodesWithResilienceDefaults) {
  const std::string path = temp_base("v1frame") + ".a";
  write_file(path, frame_with_version(1, 9, v1_payload()));
  const auto ckpt = load_checkpoint_file(path);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->sequence, 9u);
  // The v1 fields decode as written...
  EXPECT_EQ(ckpt->segment, 2u);
  EXPECT_EQ(ckpt->next_run, 41u);
  EXPECT_EQ(ckpt->tenant_names, std::vector<std::string>{"TinyNet"});
  ASSERT_EQ(ckpt->result.tenants.size(), 1u);
  EXPECT_EQ(ckpt->result.tenants[0].mismatches, 77);
  EXPECT_EQ(ckpt->controller.update_count, 4);
  // ...and every field v1 predates comes back in the resilience-disabled
  // default state: the walk resumes exactly as a pre-resilience build
  // would have resumed it.
  EXPECT_FALSE(ckpt->has_resilience);
  EXPECT_EQ(ckpt->queue_capacity, 0u);
  EXPECT_EQ(ckpt->busy_until_s, 0.0);
  EXPECT_TRUE(ckpt->pending_runs.empty());
  EXPECT_TRUE(ckpt->breakers.empty());
  EXPECT_TRUE(ckpt->fallback_ous.empty());
  EXPECT_EQ(ckpt->result.tenants[0].slo_s, 0.0);
  EXPECT_EQ(ckpt->result.tenants[0].shed_runs, 0);
  EXPECT_EQ(ckpt->result.tenants[0].deadline_misses, 0);
  EXPECT_TRUE(ckpt->result.tenants[0].sojourn_s.empty());
  std::remove(path.c_str());
}

/// A minimal *version 3* payload: the v1 layout plus the v2 resilience
/// fields and the v3 batching fingerprint, ending exactly where v3 ended —
/// no wear-leveling tail. Pins the decoder's pre-v4 path.
std::string v3_payload() {
  common::ByteWriter out;
  out.u64(2);       // segment
  out.u64(41);      // next_run
  out.i32(6);       // segments
  out.i32(120);     // horizon_runs
  out.f64(1.0);     // t_start_s
  out.f64(1e8);     // t_end_s
  out.u64(1);       // tenant_names
  out.str("TinyNet");
  out.str("Odin");  // result.label
  out.u64(1);       // result.tenants
  {                 // one v3 tenant record
    out.str("TinyNet");
    out.i32(41);   // runs
    out.i32(3);    // reprograms
    out.i32(77);   // mismatches
    out.i32(2);    // retries
    out.i32(1);    // degraded_runs
    out.i32(4);    // updates_accepted
    out.i32(0);    // updates_rejected
    out.i32(0);    // updates_rolled_back
    out.i64(5);    // buffer_dropped
    out.i64(0);    // buffer_quarantined
    out.f64(1.25e-3);  // inference energy/latency
    out.f64(3.5e-4);
    out.f64(4.0e-3);  // reprogram energy/latency
    out.f64(9.0e-4);
    out.f64(0.0);  // v2: slo_s
    out.i32(0);    // shed_runs
    out.i32(0);    // breaker_open_runs
    out.i32(0);    // deadline_misses
    out.i32(0);    // deferred_reprograms
    out.i32(0);    // deadline_stopped_retries
    out.i32(0);    // searches_truncated
    out.i32(0);    // breaker_opens
    out.i32(0);    // breaker_reopens
    out.i32(0);    // breaker_probes
    out.i32(0);    // breaker_closes
    out.i32(0);    // watchdog_stalls
    out.u64(0);    // sojourn samples
    out.i32(0);    // v3: batches_formed
    out.i32(0);    // batch_members
    out.i32(0);    // max_batch
    out.i32(0);    // batch_slo_capped
  }
  out.f64(2.0e-3);  // programming energy/latency
  out.f64(1.0e-4);
  out.i32(3);  // switches
  out.i32(4);  // policy_updates
  {            // controller snapshot (unversioned, same as v1)
    out.f64(12.5);    // programmed_at_s
    out.i32(3);       // reprogram_count
    out.i32(4);       // update_count
    out.f64(1.0);     // health_fraction
    out.boolean(false);
    out.f64(1.0);     // eta_scale
    out.i32(2);       // retry_count
    out.i32(1);       // degraded_runs
    out.i32(4);       // updates_accepted
    out.i32(0);       // updates_rejected
    out.i32(0);       // updates_rolled_back
    out.i32(0);       // probation_left
    out.i64(0);       // probation_mismatches
    out.i64(0);       // probation_layers
    out.f64(0.0);     // pre_update_rate
    out.f64(0.0);     // mismatch_rate_ema
    out.u64(0);       // buffer_entries
    out.u64(0);       // buffer_quarantine
    out.u64(0);       // last_update_batch
    out.u64(5);       // buffer_dropped
    out.u64(0);       // buffer_quarantine_hits
    out.str("");      // policy_blob
    out.str("");      // last_good_blob
  }
  out.boolean(true);  // has_faults
  out.i32(7);         // wear: campaigns
  out.i32(12);        // stuck_cells
  out.i32(1);         // failed_wordlines
  out.i32(0);         // failed_bitlines
  out.u64(0);         // health_maps
  out.boolean(false);  // v2: has_resilience
  out.i32(0);          // shed_policy
  out.u64(0);          // queue_capacity
  out.f64(0.0);        // busy_until_s
  out.u64(0);          // pending_runs
  out.u64(0);          // breakers
  out.u64(0);          // fallback_ous
  out.boolean(false);  // v3: batching_enabled
  out.i32(0);          // batch_cap
  return out.bytes();
}

TEST(Checkpoint, Version3FrameDecodesWithEmptyWearMaps) {
  const std::string path = temp_base("v3wear") + ".a";
  write_file(path, frame_with_version(3, 9, v3_payload()));
  const auto ckpt = load_checkpoint_file(path);
  ASSERT_TRUE(ckpt.has_value());
  // The v3 fields decode as written...
  EXPECT_EQ(ckpt->segment, 2u);
  EXPECT_TRUE(ckpt->has_faults);
  EXPECT_EQ(ckpt->wear.campaigns, 7);
  // ...and the whole wear-leveling surface comes back in the
  // feature-disabled state a pre-leveling build would have resumed with:
  // leveling off, retirement count zero, empty wear maps.
  EXPECT_FALSE(ckpt->leveling_enabled);
  EXPECT_EQ(ckpt->leveling_spare_rows, 0);
  EXPECT_EQ(ckpt->leveling_wear_budget, 0.0);
  EXPECT_EQ(ckpt->wear.crossbars_retired, 0);
  EXPECT_EQ(ckpt->wear_seg_base_rows_remapped, 0);
  EXPECT_EQ(ckpt->wear_seg_base_crossbars_retired, 0);
  EXPECT_EQ(ckpt->wear_seg_base_writes_leveled, 0);
  EXPECT_EQ(ckpt->controller.wear_deferred_reprograms, 0);
  EXPECT_EQ(ckpt->controller.retired_seen, 0);
  EXPECT_TRUE(ckpt->wear_maps.empty());
  EXPECT_EQ(ckpt->result.tenants[0].rows_remapped, 0);
  EXPECT_EQ(ckpt->result.tenants[0].crossbars_retired, 0);
  EXPECT_EQ(ckpt->result.tenants[0].writes_leveled, 0);
  EXPECT_EQ(ckpt->result.tenants[0].spares_remaining, 0);
  std::remove(path.c_str());
}

/// A minimal *version 4* payload: the v3 layout plus the wear-leveling
/// tails, ending exactly where v4 ended — no fleet surface. Pins the
/// decoder's pre-fleet path: a frame written by a single-shard build must
/// resume as shard 0 of a 1-shard fleet with no service models.
std::string v4_payload() {
  common::ByteWriter out;
  out.u64(2);       // segment
  out.u64(41);      // next_run
  out.i32(6);       // segments
  out.i32(120);     // horizon_runs
  out.f64(1.0);     // t_start_s
  out.f64(1e8);     // t_end_s
  out.u64(1);       // tenant_names
  out.str("TinyNet");
  out.str("Odin");  // result.label
  out.u64(1);       // result.tenants
  {                 // one v4 tenant record
    out.str("TinyNet");
    out.i32(41);   // runs
    out.i32(3);    // reprograms
    out.i32(77);   // mismatches
    out.i32(2);    // retries
    out.i32(1);    // degraded_runs
    out.i32(4);    // updates_accepted
    out.i32(0);    // updates_rejected
    out.i32(0);    // updates_rolled_back
    out.i64(5);    // buffer_dropped
    out.i64(0);    // buffer_quarantined
    out.f64(1.25e-3);  // inference energy/latency
    out.f64(3.5e-4);
    out.f64(4.0e-3);  // reprogram energy/latency
    out.f64(9.0e-4);
    out.f64(0.0);  // v2: slo_s
    out.i32(0);    // shed_runs
    out.i32(0);    // breaker_open_runs
    out.i32(0);    // deadline_misses
    out.i32(0);    // deferred_reprograms
    out.i32(0);    // deadline_stopped_retries
    out.i32(0);    // searches_truncated
    out.i32(0);    // breaker_opens
    out.i32(0);    // breaker_reopens
    out.i32(0);    // breaker_probes
    out.i32(0);    // breaker_closes
    out.i32(0);    // watchdog_stalls
    out.u64(0);    // sojourn samples
    out.i32(0);    // v3: batches_formed
    out.i32(0);    // batch_members
    out.i32(0);    // max_batch
    out.i32(0);    // batch_slo_capped
    out.i32(6);    // v4: rows_remapped
    out.i32(1);    // crossbars_retired
    out.i64(384);  // writes_leveled
    out.i32(2);    // wear_deferred_reprograms
    out.i32(10);   // spares_remaining
  }
  out.f64(2.0e-3);  // programming energy/latency
  out.f64(1.0e-4);
  out.i32(3);  // switches
  out.i32(4);  // policy_updates
  {            // controller snapshot (unversioned, same as v1)
    out.f64(12.5);    // programmed_at_s
    out.i32(3);       // reprogram_count
    out.i32(4);       // update_count
    out.f64(1.0);     // health_fraction
    out.boolean(false);
    out.f64(1.0);     // eta_scale
    out.i32(2);       // retry_count
    out.i32(1);       // degraded_runs
    out.i32(4);       // updates_accepted
    out.i32(0);       // updates_rejected
    out.i32(0);       // updates_rolled_back
    out.i32(0);       // probation_left
    out.i64(0);       // probation_mismatches
    out.i64(0);       // probation_layers
    out.f64(0.0);     // pre_update_rate
    out.f64(0.0);     // mismatch_rate_ema
    out.u64(0);       // buffer_entries
    out.u64(0);       // buffer_quarantine
    out.u64(0);       // last_update_batch
    out.u64(5);       // buffer_dropped
    out.u64(0);       // buffer_quarantine_hits
    out.str("");      // policy_blob
    out.str("");      // last_good_blob
  }
  out.boolean(true);  // has_faults
  out.i32(7);         // wear: campaigns
  out.i32(12);        // stuck_cells
  out.i32(1);         // failed_wordlines
  out.i32(0);         // failed_bitlines
  out.u64(0);         // health_maps
  out.boolean(false);  // v2: has_resilience
  out.i32(0);          // shed_policy
  out.u64(0);          // queue_capacity
  out.f64(0.0);        // busy_until_s
  out.u64(0);          // pending_runs
  out.u64(0);          // breakers
  out.u64(0);          // fallback_ous
  out.boolean(false);  // v3: batching_enabled
  out.i32(0);          // batch_cap
  out.boolean(true);   // v4: leveling_enabled
  out.i32(16);         // leveling_spare_rows
  out.f64(0.8);        // leveling_wear_budget
  out.i32(1);          // wear.crossbars_retired
  out.i32(4);          // wear_seg_base_rows_remapped
  out.i32(1);          // wear_seg_base_crossbars_retired
  out.i64(256);        // wear_seg_base_writes_leveled
  out.i32(2);          // controller.wear_deferred_reprograms
  out.i32(1);          // controller.retired_seen
  out.u64(0);          // wear_maps
  return out.bytes();
}

TEST(Checkpoint, Version4FrameDecodesAsSingleShardFleet) {
  const std::string path = temp_base("v4fleet") + ".a";
  write_file(path, frame_with_version(4, 9, v4_payload()));
  const auto ckpt = load_checkpoint_file(path);
  ASSERT_TRUE(ckpt.has_value());
  // The v4 fields decode as written...
  EXPECT_EQ(ckpt->segment, 2u);
  EXPECT_TRUE(ckpt->leveling_enabled);
  EXPECT_EQ(ckpt->leveling_spare_rows, 16);
  EXPECT_EQ(ckpt->wear.crossbars_retired, 1);
  EXPECT_EQ(ckpt->result.tenants[0].rows_remapped, 6);
  EXPECT_EQ(ckpt->result.tenants[0].spares_remaining, 10);
  // ...and the fleet surface comes back in the single-shard default state:
  // a pre-fleet frame is shard 0 of a 1-shard fleet with no service
  // models, so resume_with_odin accepts it for the plain serving loop and
  // resume_fleet refuses to graft it onto a multi-shard campaign.
  EXPECT_EQ(ckpt->fleet_shards, 1);
  EXPECT_EQ(ckpt->fleet_shard_index, 0);
  EXPECT_FALSE(ckpt->has_service_models);
  EXPECT_TRUE(ckpt->service_models.empty());
  EXPECT_EQ(ckpt->result.tenants[0].service_s, 0.0);
  EXPECT_EQ(ckpt->result.tenants[0].pipelined_runs, 0);
  std::remove(path.c_str());
}

/// A minimal *version 5* payload: the v4 layout plus the fleet surface,
/// ending exactly where v5 ended — no scenario tail. Pins the decoder's
/// pre-scenario path: a frame written before the campaign engine existed
/// must resume with sojourn retention uncapped and no embedded campaign.
std::string v5_payload() {
  common::ByteWriter out;
  out.u64(2);       // segment
  out.u64(41);      // next_run
  out.i32(6);       // segments
  out.i32(120);     // horizon_runs
  out.f64(1.0);     // t_start_s
  out.f64(1e8);     // t_end_s
  out.u64(1);       // tenant_names
  out.str("TinyNet");
  out.str("Odin");  // result.label
  out.u64(1);       // result.tenants
  {                 // one v5 tenant record
    out.str("TinyNet");
    out.i32(41);   // runs
    out.i32(3);    // reprograms
    out.i32(77);   // mismatches
    out.i32(2);    // retries
    out.i32(1);    // degraded_runs
    out.i32(4);    // updates_accepted
    out.i32(0);    // updates_rejected
    out.i32(0);    // updates_rolled_back
    out.i64(5);    // buffer_dropped
    out.i64(0);    // buffer_quarantined
    out.f64(1.25e-3);  // inference energy/latency
    out.f64(3.5e-4);
    out.f64(4.0e-3);  // reprogram energy/latency
    out.f64(9.0e-4);
    out.f64(0.0);  // v2: slo_s
    out.i32(0);    // shed_runs
    out.i32(0);    // breaker_open_runs
    out.i32(0);    // deadline_misses
    out.i32(0);    // deferred_reprograms
    out.i32(0);    // deadline_stopped_retries
    out.i32(0);    // searches_truncated
    out.i32(0);    // breaker_opens
    out.i32(0);    // breaker_reopens
    out.i32(0);    // breaker_probes
    out.i32(0);    // breaker_closes
    out.i32(0);    // watchdog_stalls
    out.u64(2);    // sojourn samples
    out.f64(3.5e-4);
    out.f64(1.9e-3);
    out.i32(0);    // v3: batches_formed
    out.i32(0);    // batch_members
    out.i32(0);    // max_batch
    out.i32(0);    // batch_slo_capped
    out.i32(6);    // v4: rows_remapped
    out.i32(1);    // crossbars_retired
    out.i64(384);  // writes_leveled
    out.i32(2);    // wear_deferred_reprograms
    out.i32(10);   // spares_remaining
    out.f64(4.75e-3);  // v5: service_s
    out.i32(17);       // pipelined_runs
  }
  out.f64(2.0e-3);  // programming energy/latency
  out.f64(1.0e-4);
  out.i32(3);  // switches
  out.i32(4);  // policy_updates
  {            // controller snapshot (unversioned, same as v1)
    out.f64(12.5);    // programmed_at_s
    out.i32(3);       // reprogram_count
    out.i32(4);       // update_count
    out.f64(1.0);     // health_fraction
    out.boolean(false);
    out.f64(1.0);     // eta_scale
    out.i32(2);       // retry_count
    out.i32(1);       // degraded_runs
    out.i32(4);       // updates_accepted
    out.i32(0);       // updates_rejected
    out.i32(0);       // updates_rolled_back
    out.i32(0);       // probation_left
    out.i64(0);       // probation_mismatches
    out.i64(0);       // probation_layers
    out.f64(0.0);     // pre_update_rate
    out.f64(0.0);     // mismatch_rate_ema
    out.u64(0);       // buffer_entries
    out.u64(0);       // buffer_quarantine
    out.u64(0);       // last_update_batch
    out.u64(5);       // buffer_dropped
    out.u64(0);       // buffer_quarantine_hits
    out.str("");      // policy_blob
    out.str("");      // last_good_blob
  }
  out.boolean(true);  // has_faults
  out.i32(7);         // wear: campaigns
  out.i32(12);        // stuck_cells
  out.i32(1);         // failed_wordlines
  out.i32(0);         // failed_bitlines
  out.u64(0);         // health_maps
  out.boolean(false);  // v2: has_resilience
  out.i32(0);          // shed_policy
  out.u64(0);          // queue_capacity
  out.f64(0.0);        // busy_until_s
  out.u64(0);          // pending_runs
  out.u64(0);          // breakers
  out.u64(0);          // fallback_ous
  out.boolean(false);  // v3: batching_enabled
  out.i32(0);          // batch_cap
  out.boolean(true);   // v4: leveling_enabled
  out.i32(16);         // leveling_spare_rows
  out.f64(0.8);        // leveling_wear_budget
  out.i32(1);          // wear.crossbars_retired
  out.i32(4);          // wear_seg_base_rows_remapped
  out.i32(1);          // wear_seg_base_crossbars_retired
  out.i64(256);        // wear_seg_base_writes_leveled
  out.i32(2);          // controller.wear_deferred_reprograms
  out.i32(1);          // controller.retired_seen
  out.u64(0);          // wear_maps
  out.i32(2);          // v5: fleet_shards
  out.i32(1);          // fleet_shard_index
  out.boolean(true);   // has_service_models
  out.u64(1);          // service_models
  out.f64(1.5e-9);     // noc_extra.energy_j
  out.f64(2.5e-7);     // noc_extra.latency_s
  out.f64(0.62);       // pipeline_overlap
  return out.bytes();
}

TEST(Checkpoint, Version5FrameDecodesWithScenarioDefaults) {
  const std::string path = temp_base("v5scenario") + ".a";
  write_file(path, frame_with_version(5, 9, v5_payload()));
  const auto ckpt = load_checkpoint_file(path);
  ASSERT_TRUE(ckpt.has_value());
  // The v5 fields decode as written...
  EXPECT_EQ(ckpt->segment, 2u);
  EXPECT_EQ(ckpt->fleet_shards, 2);
  EXPECT_EQ(ckpt->fleet_shard_index, 1);
  ASSERT_EQ(ckpt->service_models.size(), 1u);
  EXPECT_EQ(ckpt->service_models[0].pipeline_overlap, 0.62);
  ASSERT_EQ(ckpt->result.tenants.size(), 1u);
  EXPECT_EQ(ckpt->result.tenants[0].service_s, 4.75e-3);
  EXPECT_EQ(ckpt->result.tenants[0].pipelined_runs, 17);
  // ...and the scenario surface comes back in the pre-campaign default
  // state: retention uncapped (the vector holds every sample, so the
  // sketch fallback never triggers), no embedded campaign, a
  // default-constructed CampaignState.
  EXPECT_EQ(ckpt->sojourn_cap, 0u);
  EXPECT_FALSE(ckpt->has_scenario);
  EXPECT_EQ(ckpt->scenario.seed, 0u);
  EXPECT_EQ(ckpt->scenario.next_event, 0u);
  EXPECT_TRUE(ckpt->scenario.shard_pes.empty());
  EXPECT_TRUE(ckpt->scenario.storm_shard_mask.empty());
  EXPECT_EQ(ckpt->scenario.slack_p1.count(), 0u);
  EXPECT_EQ(ckpt->result.tenants[0].sojourn_sketch.count(), 0u);
  EXPECT_EQ(ckpt->result.tenants[0].sojourn_dropped, 0);
  ASSERT_EQ(ckpt->result.tenants[0].sojourn_s.size(), 2u);
  EXPECT_EQ(ckpt->result.tenants[0].sojourn_s[1], 1.9e-3);
  std::remove(path.c_str());
}

/// A minimal *version 6* payload: the v5 layout plus the scenario surface,
/// ending exactly where v6 ended — no cluster tail. Pins the decoder's
/// pre-cluster path: a frame written before the cluster layer existed must
/// resume as a single-mesh cluster with replication and failover off. The
/// v6 sub-blocks (sojourn sketch, campaign state) use the public codecs —
/// their layouts are pinned by their own round-trip tests.
std::string v6_payload() {
  common::ByteWriter out;
  out.u64(2);       // segment
  out.u64(41);      // next_run
  out.i32(6);       // segments
  out.i32(120);     // horizon_runs
  out.f64(1.0);     // t_start_s
  out.f64(1e8);     // t_end_s
  out.u64(1);       // tenant_names
  out.str("TinyNet");
  out.str("Odin");  // result.label
  out.u64(1);       // result.tenants
  {                 // one v6 tenant record
    out.str("TinyNet");
    out.i32(41);   // runs
    out.i32(3);    // reprograms
    out.i32(77);   // mismatches
    out.i32(2);    // retries
    out.i32(1);    // degraded_runs
    out.i32(4);    // updates_accepted
    out.i32(0);    // updates_rejected
    out.i32(0);    // updates_rolled_back
    out.i64(5);    // buffer_dropped
    out.i64(0);    // buffer_quarantined
    out.f64(1.25e-3);  // inference energy/latency
    out.f64(3.5e-4);
    out.f64(4.0e-3);  // reprogram energy/latency
    out.f64(9.0e-4);
    out.f64(0.0);  // v2: slo_s
    out.i32(0);    // shed_runs
    out.i32(0);    // breaker_open_runs
    out.i32(0);    // deadline_misses
    out.i32(0);    // deferred_reprograms
    out.i32(0);    // deadline_stopped_retries
    out.i32(0);    // searches_truncated
    out.i32(0);    // breaker_opens
    out.i32(0);    // breaker_reopens
    out.i32(0);    // breaker_probes
    out.i32(0);    // breaker_closes
    out.i32(0);    // watchdog_stalls
    out.u64(2);    // sojourn samples
    out.f64(3.5e-4);
    out.f64(1.9e-3);
    out.i32(0);    // v3: batches_formed
    out.i32(0);    // batch_members
    out.i32(0);    // max_batch
    out.i32(0);    // batch_slo_capped
    out.i32(6);    // v4: rows_remapped
    out.i32(1);    // crossbars_retired
    out.i64(384);  // writes_leveled
    out.i32(2);    // wear_deferred_reprograms
    out.i32(10);   // spares_remaining
    out.f64(4.75e-3);  // v5: service_s
    out.i32(17);       // pipelined_runs
    SojournSketch sketch;  // v6: live sojourn sketch + dropped counter
    sketch.add(3.5e-4);
    sketch.add(1.9e-3);
    encode_sojourn_sketch(sketch, out);
    out.i64(11);  // sojourn_dropped
  }
  out.f64(2.0e-3);  // programming energy/latency
  out.f64(1.0e-4);
  out.i32(3);  // switches
  out.i32(4);  // policy_updates
  {            // controller snapshot (unversioned, same as v1)
    out.f64(12.5);    // programmed_at_s
    out.i32(3);       // reprogram_count
    out.i32(4);       // update_count
    out.f64(1.0);     // health_fraction
    out.boolean(false);
    out.f64(1.0);     // eta_scale
    out.i32(2);       // retry_count
    out.i32(1);       // degraded_runs
    out.i32(4);       // updates_accepted
    out.i32(0);       // updates_rejected
    out.i32(0);       // updates_rolled_back
    out.i32(0);       // probation_left
    out.i64(0);       // probation_mismatches
    out.i64(0);       // probation_layers
    out.f64(0.0);     // pre_update_rate
    out.f64(0.0);     // mismatch_rate_ema
    out.u64(0);       // buffer_entries
    out.u64(0);       // buffer_quarantine
    out.u64(0);       // last_update_batch
    out.u64(5);       // buffer_dropped
    out.u64(0);       // buffer_quarantine_hits
    out.str("");      // policy_blob
    out.str("");      // last_good_blob
  }
  out.boolean(true);  // has_faults
  out.i32(7);         // wear: campaigns
  out.i32(12);        // stuck_cells
  out.i32(1);         // failed_wordlines
  out.i32(0);         // failed_bitlines
  out.u64(0);         // health_maps
  out.boolean(false);  // v2: has_resilience
  out.i32(0);          // shed_policy
  out.u64(0);          // queue_capacity
  out.f64(0.0);        // busy_until_s
  out.u64(0);          // pending_runs
  out.u64(0);          // breakers
  out.u64(0);          // fallback_ous
  out.boolean(false);  // v3: batching_enabled
  out.i32(0);          // batch_cap
  out.boolean(true);   // v4: leveling_enabled
  out.i32(16);         // leveling_spare_rows
  out.f64(0.8);        // leveling_wear_budget
  out.i32(1);          // wear.crossbars_retired
  out.i32(4);          // wear_seg_base_rows_remapped
  out.i32(1);          // wear_seg_base_crossbars_retired
  out.i64(256);        // wear_seg_base_writes_leveled
  out.i32(2);          // controller.wear_deferred_reprograms
  out.i32(1);          // controller.retired_seen
  out.u64(0);          // wear_maps
  out.i32(2);          // v5: fleet_shards
  out.i32(1);          // fleet_shard_index
  out.boolean(true);   // has_service_models
  out.u64(1);          // service_models
  out.f64(1.5e-9);     // noc_extra.energy_j
  out.f64(2.5e-7);     // noc_extra.latency_s
  out.f64(0.62);       // pipeline_overlap
  out.u64(64);         // v6: sojourn_cap
  out.boolean(false);  // has_scenario
  encode_campaign_state(CampaignState{}, out);
  return out.bytes();
}

TEST(Checkpoint, Version6FrameDecodesAsSingleMeshCluster) {
  const std::string path = temp_base("v6cluster") + ".a";
  write_file(path, frame_with_version(6, 9, v6_payload()));
  const auto ckpt = load_checkpoint_file(path);
  ASSERT_TRUE(ckpt.has_value());
  // The v6 fields decode as written...
  EXPECT_EQ(ckpt->segment, 2u);
  EXPECT_EQ(ckpt->sojourn_cap, 64u);
  ASSERT_EQ(ckpt->result.tenants.size(), 1u);
  EXPECT_EQ(ckpt->result.tenants[0].sojourn_sketch.count(), 2u);
  EXPECT_EQ(ckpt->result.tenants[0].sojourn_dropped, 11);
  // ...and the cluster surface comes back in the pre-cluster default
  // state: a single-mesh cluster with replication and failover off,
  // nothing fired, empty per-mesh/per-tenant vectors, zeroed ledgers —
  // and zeroed per-tenant failover counters.
  EXPECT_FALSE(ckpt->has_cluster);
  EXPECT_EQ(ckpt->cluster.meshes, 1);
  EXPECT_EQ(ckpt->cluster.replication_epochs, 0);
  EXPECT_FALSE(ckpt->cluster.failover);
  EXPECT_EQ(ckpt->cluster.outages_fired, 0);
  EXPECT_EQ(ckpt->cluster.replication_rounds, 0);
  EXPECT_TRUE(ckpt->cluster.mesh_down.empty());
  EXPECT_TRUE(ckpt->cluster.replica_runs.empty());
  EXPECT_TRUE(ckpt->cluster.breakers.empty());
  EXPECT_EQ(ckpt->cluster.failovers, 0);
  EXPECT_EQ(ckpt->cluster.outage_dropped, 0);
  EXPECT_EQ(ckpt->cluster.rpo_max_s, 0.0);
  EXPECT_EQ(ckpt->result.tenants[0].failovers, 0);
  EXPECT_EQ(ckpt->result.tenants[0].restored_stale, 0);
  EXPECT_EQ(ckpt->result.tenants[0].lost_runs, 0);
  EXPECT_EQ(ckpt->result.tenants[0].outage_dropped, 0);
  EXPECT_EQ(ckpt->result.tenants[0].rpo_s, 0.0);
  EXPECT_EQ(ckpt->result.tenants[0].rto_s, 0.0);
  std::remove(path.c_str());
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

TEST(Checkpoint, FutureVersionFrameIsRejectedNotMisparsed) {
  // A payload from a newer build has an unknown layout; guessing would be
  // silent corruption. Same bytes, same CRC — only the version differs.
  const std::string path = temp_base("v3frame") + ".a";
  write_file(path, frame_with_version(kCheckpointVersion + 1, 9, v1_payload()));
  EXPECT_FALSE(load_checkpoint_file(path).has_value());
  write_file(path, frame_with_version(0, 9, v1_payload()));
  EXPECT_FALSE(load_checkpoint_file(path).has_value());
  std::remove(path.c_str());
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
