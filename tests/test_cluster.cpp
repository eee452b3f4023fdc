// Cluster-layer tests (DESIGN.md §18): the one-mesh ledgers, mesh-loss
// fault domains with failover evacuation vs unbounded loss with failover
// off, replica staleness (RPO) surfacing, the outage-during-storm overlap
// with byte-identical replay and mid-failover crash/resume through
// checkpoint payload v9, the wrong-cluster-geometry resume refusal (a
// multi-mesh frame refuses resume_campaign), the refusal of CRC-valid
// frames whose state does not fit the geometry, the ClusterState codec,
// the cluster scenario-file parser, campaign and cluster output against
// CRC-32s recorded before the lockstep sketches, and the per-tenant
// ledger invariants over 20 seeds.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/crc32.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster.hpp"
#include "core/scenario.hpp"
#include "core/serving.hpp"
#include "simd_modes.hpp"

namespace odin::core {
namespace {

std::string temp_base(const std::string& tag) {
  return ::testing::TempDir() + "odin_cluster_" + tag;
}

void remove_slots(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

/// A small three-mesh cluster campaign with one pinned outage on mesh 0.
/// The knobs the tests below vary are spelled out, defaults included.
ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.campaign.scenario.seed = 11;
  cfg.campaign.scenario.tenants = 48;
  cfg.campaign.scenario.requests = 20'000;
  cfg.campaign.shards = 4;
  cfg.campaign.autoscale.enabled = true;
  cfg.campaign.epochs = 12;
  cfg.meshes = 3;
  cfg.replication_epochs = 4;
  cfg.failover.enabled = true;
  MeshOutage outage;
  outage.start_frac = 0.55;
  outage.duration_frac = 0.25;
  outage.mesh = 0;
  cfg.outages = {outage};
  return cfg;
}

std::uint32_t crc_of(const std::string& bytes) {
  return common::crc32(bytes.data(), bytes.size());
}

/// CRC-32 of the fleet sojourn sketch and every tenant's, in wire order:
/// all four P² lanes of each, bit for bit.
std::uint32_t sketch_crc(const CampaignResult& r) {
  common::ByteWriter out;
  out.field(r.state.sojourn);
  for (const TenantStats& t : r.tenants) out.field(t.sojourn_sketch);
  return crc_of(out.bytes());
}

/// A 300-tenant campaign loaded enough to shed (flash crowds at 8x on a
/// 0.75-utilized fleet).
CampaignConfig shedding_campaign(std::uint64_t seed, long long requests) {
  CampaignConfig c;
  c.scenario.seed = seed;
  c.scenario.tenants = 300;
  c.scenario.requests = requests;
  c.scenario.target_utilization = 0.75;
  c.scenario.flash_multiplier = 8.0;
  c.shards = 6;
  c.epochs = 24;
  return c;
}

using testing::in_both_simd_modes;

TEST(Cluster, SingleMeshClusterNeverFailsOverOrReplicates) {
  ClusterConfig cfg = small_cluster();
  cfg.meshes = 1;
  cfg.outages.clear();
  cfg.mesh_outages = 0;  // no outage windows: the plain-campaign shape
  const ClusterResult one = run_cluster(cfg);
  EXPECT_EQ(one.meshes, 1);
  EXPECT_EQ(one.cluster.failovers, 0);
  EXPECT_EQ(one.cluster.outage_dropped, 0);
  EXPECT_EQ(one.cluster.replication_rounds, 0);  // nowhere to replicate
  EXPECT_EQ(one.victim_recovery(), 1.0);
}

TEST(Cluster, SummaryIsByteIdenticalAcrossRuns) {
  const ClusterConfig cfg = small_cluster();
  const ClusterResult a = run_cluster(cfg);
  const ClusterResult b = run_cluster(cfg);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.cluster.outages_fired, 1);
  EXPECT_GT(a.cluster.replication_rounds, 0);
}

// The CRC-32s below were recorded from the engine before its sojourn
// sketches ran in lockstep and its arrival pick went branch-free; both
// SIMD dispatch modes must reproduce them, so campaign output is tied
// across commits, not only across reruns.
TEST(Cluster, CampaignMatchesItsRecordedCrcs) {
  const CampaignConfig cfg = shedding_campaign(9, 30'000);
  in_both_simd_modes([&] {
    const CampaignResult r = run_campaign(cfg);
    EXPECT_EQ(r.state.sheds, 992);
    EXPECT_EQ(crc_of(r.summary()), 0xe791b953u);
    EXPECT_EQ(sketch_crc(r), 0x524adbfau);
  });
}

TEST(Cluster, ThreeMeshOutageMatchesItsRecordedCrcs) {
  const ClusterConfig cfg = small_cluster();
  in_both_simd_modes([&] {
    const ClusterResult r = run_cluster(cfg);
    EXPECT_EQ(r.cluster.failovers, 17);
    EXPECT_EQ(crc_of(r.summary()), 0x759a8b2au);
    EXPECT_EQ(sketch_crc(r.campaign), 0xf7bcf180u);
  });
}

/// Totals of the paths the ledger check below saw, so a seed sweep can
/// show it was not vacuous.
struct LedgerPaths {
  std::int64_t sheds = 0;
  std::int64_t breaker_open = 0;
  std::int64_t dropped = 0;
};

/// Per tenant, every arrival is served or dropped, shed and breaker-open
/// serves are serves, and the tenant's sojourn sketch saw exactly its
/// serves; fleet-wide, the tenants' sheds are the shed ledger and the
/// fleet sketch saw every serve.
void expect_ledgers_balance(const CampaignResult& r, long long requests,
                            LedgerPaths& seen) {
  EXPECT_EQ(r.requests(), requests);
  std::int64_t handled = 0, runs = 0, sheds = 0;
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    const TenantStats& t = r.tenants[i];
    EXPECT_LE(t.shed_runs + t.breaker_open_runs, t.runs) << "tenant " << i;
    EXPECT_EQ(t.sojourn_sketch.count(), static_cast<std::uint64_t>(t.runs))
        << "tenant " << i;
    handled += t.runs + t.outage_dropped;
    runs += t.runs;
    sheds += t.shed_runs;
    seen.breaker_open += t.breaker_open_runs;
    seen.dropped += t.outage_dropped;
  }
  EXPECT_EQ(handled, requests);
  EXPECT_EQ(sheds, r.state.sheds);
  EXPECT_EQ(r.state.sojourn.count(), static_cast<std::uint64_t>(runs));
  seen.sheds += sheds;
}

TEST(Cluster, LedgersBalanceOverTwentySeeds) {
  LedgerPaths campaigns, clusters;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const CampaignConfig camp = shedding_campaign(seed, 6'000);
    expect_ledgers_balance(run_campaign(camp), camp.scenario.requests,
                           campaigns);
    ClusterConfig cfg = small_cluster();
    cfg.campaign.scenario.seed = seed;
    cfg.campaign.scenario.requests = 8'000;
    expect_ledgers_balance(run_cluster(cfg).campaign,
                           cfg.campaign.scenario.requests, clusters);
  }
  // The sweep reached the shed, breaker-open and outage-drop paths.
  EXPECT_GT(campaigns.sheds, 0);
  EXPECT_GT(clusters.breaker_open, 0);
  EXPECT_GT(clusters.dropped, 0);
}

TEST(Cluster, MeshOutageWithFailoverEvacuatesWithinRto) {
  const ClusterConfig cfg = small_cluster();
  const ClusterResult on = run_cluster(cfg);
  ClusterConfig off_cfg = cfg;
  off_cfg.failover.enabled = false;
  const ClusterResult off = run_cluster(off_cfg);

  // The outage fired and failover actually evacuated tenants.
  ASSERT_EQ(on.cluster.outages_fired, 1);
  EXPECT_GT(on.cluster.failovers, 0);
  EXPECT_GT(on.cluster.bootstrap_campaigns, 0);
  EXPECT_GT(on.cluster.degraded_runs, 0);
  // Every evacuation reports a bounded, nonzero recovery time that is at
  // least the detection delay.
  EXPECT_GE(on.rto_mean_s(), cfg.failover.detection_s);
  EXPECT_GE(on.cluster.rto_max_s, on.rto_mean_s());
  // Replication moved real bytes over the inter-mesh link.
  EXPECT_GT(on.cluster.replication_bytes, 0.0);
  EXPECT_GT(on.cluster.replication_energy_j, 0.0);

  // With failover off nobody is evacuated: the dark mesh's arrivals are
  // dropped for the whole outage and recovery is strictly worse.
  EXPECT_EQ(off.cluster.failovers, 0);
  EXPECT_EQ(off.cluster.bootstrap_campaigns, 0);
  EXPECT_GT(off.cluster.outage_dropped, on.cluster.outage_dropped);
  EXPECT_GT(on.victim_recovery(), off.victim_recovery());
  // The acceptance bar: failover serves >= 95% of victim traffic.
  EXPECT_GE(on.victim_recovery(), 0.95);
  // Victim tenants are marked, and the drop/serve ledgers reconcile.
  std::int64_t victims = 0;
  for (std::uint8_t v : on.cluster.tenant_victim) victims += v;
  EXPECT_EQ(victims, on.cluster.failovers);
  EXPECT_GE(on.cluster.victim_offered, on.cluster.victim_served);
}

TEST(Cluster, StaleReplicaSurfacesRpoAndCounter) {
  // Replications land when epochs 3, 7, 11 close (R = 4, E = 12); the
  // outage at 0.55 h hits between rounds, so every victim that served
  // after the 0.33 h replication restores from a stale replica.
  const ClusterConfig cfg = small_cluster();
  const ClusterResult r = run_cluster(cfg);
  ASSERT_GT(r.cluster.failovers, 0);
  EXPECT_GT(r.cluster.restored_stale, 0);
  EXPECT_GT(r.cluster.lost_runs, 0);
  EXPECT_GT(r.cluster.rpo_max_s, 0.0);
  EXPECT_GE(r.cluster.rpo_max_s, r.rpo_mean_s());
  // The per-tenant counters mirror the cluster ledgers exactly — the
  // regression pin for the staleness edge.
  std::int64_t stale = 0, lost = 0, failovers = 0, dropped = 0;
  double rpo_max = 0.0, rto_max = 0.0;
  for (const TenantStats& t : r.campaign.tenants) {
    stale += t.restored_stale;
    lost += t.lost_runs;
    failovers += t.failovers;
    dropped += t.outage_dropped;
    rpo_max = std::max(rpo_max, t.rpo_s);
    rto_max = std::max(rto_max, t.rto_s);
  }
  EXPECT_EQ(stale, r.cluster.restored_stale);
  EXPECT_EQ(lost, r.cluster.lost_runs);
  EXPECT_EQ(failovers, r.cluster.failovers);
  EXPECT_EQ(dropped, r.cluster.outage_dropped);
  EXPECT_EQ(rpo_max, r.cluster.rpo_max_s);
  EXPECT_EQ(rto_max, r.cluster.rto_max_s);
  // A stale restore lost exactly the post-replication serves, never more
  // than the victim's total.
  for (const TenantStats& t : r.campaign.tenants) {
    EXPECT_LE(t.lost_runs, static_cast<long long>(t.runs));
    if (t.restored_stale > 0) {
      EXPECT_GT(t.rpo_s, 0.0);
    }
  }
}

TEST(Cluster, OutageDuringStormReplaysAndResumesByteIdentical) {
  const std::string base = temp_base("stormoutage");
  remove_slots(base);
  ClusterConfig cfg = small_cluster();
  // A wide storm spanning [0.45 h, 0.80 h] overlaps the outage window
  // [0.55 h, 0.80 h]: the mesh dies while the fleet is mid-storm.
  FaultStorm storm;
  storm.start_frac = 0.45;
  storm.duration_frac = 0.35;
  storm.drift_multiplier = 3.0;
  storm.center_pe = 7;
  storm.radius = 1;
  storm.campaigns = 4;
  cfg.campaign.scenario.storms = {storm};
  cfg.campaign.checkpoint.base_path = base;
  cfg.campaign.checkpoint.every_runs = 500;

  const ClusterResult full = run_cluster(cfg);
  EXPECT_EQ(full.campaign.state.storms_fired, 1);
  ASSERT_EQ(full.cluster.outages_fired, 1);
  // Same-seed replay of the overlap is byte-identical.
  EXPECT_EQ(run_cluster(cfg).summary(), full.summary());

  // Kill mid-failover: at 70% of the request budget the clock sits inside
  // both the storm and the outage window.
  ClusterConfig crash = cfg;
  crash.campaign.max_requests = cfg.campaign.scenario.requests * 7 / 10;
  const ClusterResult interrupted = run_cluster(crash);
  const double h = cfg.campaign.scenario.horizon_s;
  EXPECT_GT(interrupted.campaign.state.clock_s, 0.55 * h);
  EXPECT_LT(interrupted.campaign.state.clock_s, 0.80 * h);
  EXPECT_EQ(interrupted.campaign.state.storms_fired, 1);
  EXPECT_EQ(interrupted.cluster.outages_fired, 1);

  const auto resumed = resume_cluster(cfg);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed->campaign.resumed);
  // Bitwise: the resumed cluster reproduces the uninterrupted summary,
  // including the failover ledgers and every sketch-derived percentile.
  EXPECT_EQ(resumed->summary(), full.summary());
  remove_slots(base);
}

TEST(Cluster, ResumeRefusesWrongClusterGeometry) {
  const std::string base = temp_base("geometry");
  remove_slots(base);
  ClusterConfig cfg = small_cluster();
  cfg.campaign.checkpoint.base_path = base;
  cfg.campaign.checkpoint.every_runs = 500;
  cfg.campaign.max_requests = cfg.campaign.scenario.requests * 7 / 10;
  run_cluster(cfg);  // leaves a mid-campaign cluster checkpoint behind
  cfg.campaign.max_requests = 0;

  {
    ClusterConfig wrong = cfg;
    wrong.meshes = 2;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  {
    ClusterConfig wrong = cfg;
    wrong.replication_epochs = 8;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  {
    ClusterConfig wrong = cfg;
    wrong.failover.enabled = false;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  {
    ClusterConfig wrong = cfg;
    wrong.campaign.scenario.seed += 1;
    EXPECT_FALSE(resume_cluster(wrong).has_value());
  }
  // A cluster frame must never resume as a plain campaign: the campaign
  // fingerprint inside it describes the *global* shard layout and the
  // cluster ledgers would be silently dropped.
  EXPECT_FALSE(resume_campaign(cfg.campaign).has_value());
  // The unmodified geometry still resumes.
  EXPECT_TRUE(resume_cluster(cfg).has_value());
  remove_slots(base);
}

TEST(Cluster, ResumeRefusesStateThatDoesNotFitTheGeometry) {
  const std::string base = temp_base("fits");
  const std::string bad = temp_base("fits_bad");
  remove_slots(base);
  CampaignConfig cfg = small_cluster().campaign;
  cfg.checkpoint.base_path = base;
  cfg.checkpoint.every_runs = 500;
  cfg.max_requests = cfg.scenario.requests * 7 / 10;
  run_campaign(cfg);  // leaves a mid-campaign one-mesh frame behind
  cfg.max_requests = 0;
  const auto good = load_latest_checkpoint(base);
  ASSERT_TRUE(good.has_value());

  // Each edit keeps the fingerprint and the CRC valid, so the frame loads;
  // resume must refuse it instead of indexing out of range.
  struct Case {
    const char* what;
    void (*edit)(ServingCheckpoint&);
  };
  const Case cases[] = {
      {"tenant shard out of range",
       [](ServingCheckpoint& c) { c.scenario.tenant_shard[0] = 1000; }},
      {"more storms fired than the trace has",
       [](ServingCheckpoint& c) {
         c.scenario.storms_fired += 3;
         c.scenario.storm_shard_mask.resize(
             static_cast<std::size_t>(c.scenario.storms_fired), 0);
       }},
      {"epoch past the trajectory",
       [](ServingCheckpoint& c) { c.scenario.epoch = 99; }},
      {"no shard clocks",
       [](ServingCheckpoint& c) { c.scenario.shard_busy_until_s.clear(); }},
      {"shard blocks overrun the mesh",
       [](ServingCheckpoint& c) { c.scenario.shard_pes[0] = 1000; }},
      {"negative block width, same PE total",
       [](ServingCheckpoint& c) {
         const std::int32_t w = c.scenario.shard_pes[0];
         c.scenario.shard_pes[0] = -w;
         c.scenario.shard_pes[1] += 2 * w;
       }},
  };
  CampaignConfig at_bad = cfg;
  at_bad.checkpoint.base_path = bad;
  for (const Case& c : cases) {
    remove_slots(bad);
    ServingCheckpoint frame = *good;
    c.edit(frame);
    ASSERT_TRUE(CheckpointWriter(bad).write(frame)) << c.what;
    ASSERT_TRUE(load_latest_checkpoint(bad).has_value()) << c.what;
    EXPECT_FALSE(resume_campaign(at_bad).has_value()) << c.what;
  }
  // The same frame rewritten without an edit still resumes.
  remove_slots(bad);
  ServingCheckpoint frame = *good;
  ASSERT_TRUE(CheckpointWriter(bad).write(frame));
  EXPECT_TRUE(resume_campaign(at_bad).has_value());
  remove_slots(bad);
  remove_slots(base);
}

TEST(Cluster, ClusterStateCodecRoundTripsExactly) {
  const ClusterResult r = run_cluster(small_cluster());
  common::ByteWriter out;
  encode_cluster_state(r.cluster, out);
  common::ByteReader in(out.bytes());
  const auto decoded = decode_cluster_state(in);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->meshes, r.cluster.meshes);
  EXPECT_EQ(decoded->outages_fired, r.cluster.outages_fired);
  EXPECT_EQ(decoded->replication_rounds, r.cluster.replication_rounds);
  EXPECT_EQ(decoded->mesh_down, r.cluster.mesh_down);
  EXPECT_EQ(decoded->mesh_served, r.cluster.mesh_served);
  EXPECT_EQ(decoded->replica_runs, r.cluster.replica_runs);
  EXPECT_EQ(decoded->replica_time_s, r.cluster.replica_time_s);
  EXPECT_EQ(decoded->replica_mesh, r.cluster.replica_mesh);
  EXPECT_EQ(decoded->tenant_victim, r.cluster.tenant_victim);
  EXPECT_EQ(decoded->failovers, r.cluster.failovers);
  EXPECT_EQ(decoded->restored_stale, r.cluster.restored_stale);
  EXPECT_EQ(decoded->rpo_max_s, r.cluster.rpo_max_s);
  EXPECT_EQ(decoded->replication_bytes, r.cluster.replication_bytes);
  // Re-encoding reproduces the identical byte stream, so every field
  // (including the breaker snapshots) survived the round trip.
  common::ByteWriter again;
  encode_cluster_state(*decoded, again);
  EXPECT_EQ(out.bytes(), again.bytes());
  // Truncated prefixes are refused, never misparsed.
  for (std::size_t cut : {std::size_t{0}, std::size_t{7},
                          out.bytes().size() / 2, out.bytes().size() - 1}) {
    common::ByteReader short_in(std::string_view(out.bytes()).substr(0, cut));
    EXPECT_FALSE(decode_cluster_state(short_in).has_value()) << "cut=" << cut;
  }
}

TEST(Cluster, ParserAcceptsTheDocumentedFormat) {
  std::istringstream in(
      "# a seeded cluster campaign (docs/scenario_format.md)\n"
      "seed 42\n"
      "tenants 96\n"
      "requests 50000\n"
      "shards 4\n"
      "epochs 24\n"
      "autoscale on\n"
      "meshes 3\n"
      "replication-epochs 6\n"
      "failover on\n"
      "outage 0.5 0.2 1\n"
      "outage 0.8 0.1\n"
      "mesh-outages 2\n"
      "outage-duration-frac 0.15\n"
      "detection-s 20\n"
      "restore-s 1.5\n"
      "degraded-window 10\n");
  const auto cfg = parse_cluster(in);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->campaign.scenario.seed, 42u);
  EXPECT_EQ(cfg->campaign.scenario.tenants, 96);
  EXPECT_EQ(cfg->campaign.shards, 4);
  EXPECT_EQ(cfg->campaign.epochs, 24);
  EXPECT_TRUE(cfg->campaign.autoscale.enabled);
  EXPECT_EQ(cfg->meshes, 3);
  EXPECT_EQ(cfg->replication_epochs, 6);
  EXPECT_TRUE(cfg->failover.enabled);
  ASSERT_EQ(cfg->outages.size(), 2u);
  EXPECT_EQ(cfg->outages[0].start_frac, 0.5);
  EXPECT_EQ(cfg->outages[0].duration_frac, 0.2);
  EXPECT_EQ(cfg->outages[0].mesh, 1);
  EXPECT_EQ(cfg->outages[1].mesh, -1);  // drawn from the seed
  EXPECT_EQ(cfg->mesh_outages, 2);
  EXPECT_EQ(cfg->outage_duration_frac, 0.15);
  EXPECT_EQ(cfg->failover.detection_s, 20.0);
  EXPECT_EQ(cfg->failover.restore_s, 1.5);
  EXPECT_EQ(cfg->failover.degraded_window, 10);
}

TEST(Cluster, ParserRejectsMalformedInputWithNullopt) {
  {
    std::istringstream in("meshes 9\n");  // above the [1, 8] clamp
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("meshes three\n");
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("replication-epochs 0\n");
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("failover maybe\n");  // strict tri-state
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("outage 0.5\n");  // too few fields
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("outage-duration-frac 1.5\n");  // out of (0, 1]
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  {
    std::istringstream in("tennants 96\n");  // scenario typo still refused
    EXPECT_FALSE(parse_cluster(in).has_value());
  }
  EXPECT_FALSE(parse_cluster_file("/nonexistent/cluster.scn").has_value());
}

}  // namespace
}  // namespace odin::core
