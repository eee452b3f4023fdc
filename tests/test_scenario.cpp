// Scenario-engine tests (DESIGN.md §17): trace expansion determinism and
// shaping (tiers, churn, diurnal, flash, storm adjacency), the replayable
// arrival stream, the branch-free tenant pick against std::upper_bound,
// the arrival stream against its recorded CRC-32, campaign-summary bitwise
// determinism, mid-storm crash/resume through one-mesh cluster frames
// (payload v8) with the wrong-geometry refusal, the autoscaled-vs-static
// flash-phase comparison, the streaming percentile sketches against exact
// nearest-rank, the capped TenantStats fallback, rescale_shard_blocks
// invariants, the scenario-file parser, and the trace -> serving-schedule
// export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "core/resilience.hpp"
#include "core/scenario.hpp"
#include "core/serving.hpp"
#include "core/sketch.hpp"

namespace odin::core {
namespace {

std::string temp_base(const std::string& tag) {
  return ::testing::TempDir() + "odin_campaign_" + tag;
}

void remove_slots(const std::string& base) {
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

ScenarioConfig small_scenario() {
  ScenarioConfig sc;
  sc.seed = 11;
  sc.tenants = 24;
  sc.requests = 6000;
  return sc;
}

/// A small campaign with one wide explicit storm so a kill at half the
/// request budget provably lands inside the storm window.
CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.scenario = small_scenario();
  FaultStorm storm;
  storm.start_frac = 0.30;
  storm.duration_frac = 0.40;
  storm.drift_multiplier = 3.0;
  storm.center_pe = 14;
  storm.radius = 1;
  storm.campaigns = 4;
  cfg.scenario.storms = {storm};
  cfg.shards = 4;
  cfg.autoscale.enabled = true;  // the default; the resume refusals flip it
  cfg.epochs = 12;
  return cfg;
}

TEST(Scenario, TraceExpansionIsDeterministic) {
  const ScenarioConfig sc = small_scenario();
  const ScenarioTrace a = build_trace(sc);
  const ScenarioTrace b = build_trace(sc);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].name, b.tenants[i].name);
    EXPECT_EQ(a.tenants[i].tier, b.tenants[i].tier);
    EXPECT_EQ(a.tenants[i].slo_s, b.tenants[i].slo_s);
    EXPECT_EQ(a.tenants[i].weight, b.tenants[i].weight);
    EXPECT_EQ(a.tenants[i].service_s, b.tenants[i].service_s);
    EXPECT_EQ(a.tenants[i].energy_j, b.tenants[i].energy_j);
    EXPECT_EQ(a.tenants[i].arrive_s, b.tenants[i].arrive_s);
    EXPECT_EQ(a.tenants[i].depart_s, b.tenants[i].depart_s);
    EXPECT_EQ(a.tenants[i].flash_mask, b.tenants[i].flash_mask);
  }
  ASSERT_EQ(a.storms.size(), b.storms.size());
  for (std::size_t s = 0; s < a.storms.size(); ++s) {
    EXPECT_EQ(a.storms[s].start_frac, b.storms[s].start_frac);
    EXPECT_EQ(a.storms[s].center_pe, b.storms[s].center_pe);
  }
  EXPECT_EQ(a.base_rate, b.base_rate);
  // A different seed produces a different cast.
  ScenarioConfig other = sc;
  other.seed = 12;
  const ScenarioTrace c = build_trace(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.tenants.size(); ++i)
    any_diff = any_diff || a.tenants[i].weight != c.tenants[i].weight;
  EXPECT_TRUE(any_diff);
}

TEST(Scenario, TiersChurnAndSlosFollowTheConfig) {
  const ScenarioConfig sc = small_scenario();
  const ScenarioTrace trace = build_trace(sc);
  // Tier populations by index share: 10% gold, next 30% silver.
  double gold_slo = 0.0, silver_slo = 0.0, bronze_slo = 0.0;
  int gold_n = 0, silver_n = 0, bronze_n = 0;
  for (const ScenarioTenant& t : trace.tenants) {
    switch (t.tier) {
      case PriorityTier::kGold: gold_slo = t.slo_s; ++gold_n; break;
      case PriorityTier::kSilver: silver_slo = t.slo_s; ++silver_n; break;
      case PriorityTier::kBronze: bronze_slo = t.slo_s; ++bronze_n; break;
    }
  }
  EXPECT_EQ(gold_n, 2);     // floor(24 * 0.10)
  EXPECT_EQ(silver_n, 7);   // up to floor(24 * (0.10 + 0.30))
  EXPECT_EQ(bronze_n, 15);  // the remainder
  // Gold pays for priority with the tightest deadline budget.
  EXPECT_GT(gold_slo, 0.0);
  EXPECT_LT(gold_slo, silver_slo);
  EXPECT_LT(silver_slo, bronze_slo);
  // Tenant 0 is pinned always-active; churned tenants have a partial
  // window, non-churned ones never depart.
  EXPECT_EQ(trace.tenants[0].arrive_s, 0.0);
  EXPECT_TRUE(std::isinf(trace.tenants[0].depart_s));
  int churned = 0;
  for (const ScenarioTenant& t : trace.tenants) {
    if (std::isinf(t.depart_s)) {
      EXPECT_EQ(t.arrive_s, 0.0);
    } else {
      ++churned;
      EXPECT_GE(t.depart_s, 0.55 * sc.horizon_s);
      EXPECT_LE(t.depart_s, sc.horizon_s);
      EXPECT_LE(t.arrive_s, 0.5 * sc.horizon_s);
    }
  }
  EXPECT_GT(churned, 0);
  EXPECT_LT(churned, sc.tenants);
}

TEST(Scenario, DiurnalAndFlashShapeTheWeights) {
  const ScenarioConfig sc = small_scenario();
  const ScenarioTrace trace = build_trace(sc);
  const double h = sc.horizon_s;
  // One cycle, trough at t = 0, crest half-way.
  EXPECT_NEAR(trace.diurnal(0.0), 1.0 - sc.diurnal_amplitude, 1e-12);
  EXPECT_NEAR(trace.diurnal(0.5 * h), 1.0 + sc.diurnal_amplitude, 1e-12);
  ASSERT_FALSE(trace.flash.empty());
  const FlashCrowd& crowd = trace.flash[0];
  const double mid = (crowd.start_frac + 0.5 * crowd.duration_frac) * h;
  const double before = (crowd.start_frac - 0.01) * h;
  EXPECT_TRUE(trace.crowd_active(0, mid));
  EXPECT_TRUE(trace.in_flash_phase(mid));
  EXPECT_FALSE(trace.crowd_active(0, before));
  // A targeted, active tenant's pick weight is amplified by the crowd.
  bool checked = false;
  for (std::size_t i = 0; i < trace.tenants.size() && !checked; ++i) {
    const ScenarioTenant& t = trace.tenants[i];
    if ((t.flash_mask & 1u) == 0) continue;
    if (mid < t.arrive_s || mid >= t.depart_s) continue;
    if (before < t.arrive_s || before >= t.depart_s) continue;
    EXPECT_EQ(trace.tenant_weight(i, mid),
              crowd.multiplier * trace.tenant_weight(i, before));
    checked = true;
  }
  EXPECT_TRUE(checked);
  // Outside its active window a tenant's weight is exactly zero.
  for (std::size_t i = 0; i < trace.tenants.size(); ++i) {
    const ScenarioTenant& t = trace.tenants[i];
    if (t.arrive_s > 0.0) {
      EXPECT_EQ(trace.tenant_weight(i, 0.5 * t.arrive_s), 0.0);
    }
  }
}

TEST(Scenario, StormFootprintIsChebyshevAdjacency) {
  ScenarioConfig sc = small_scenario();
  FaultStorm corner;  // clipped at the mesh edge
  corner.center_pe = 0;
  corner.radius = 1;
  FaultStorm interior;
  interior.center_pe = 14;  // (2, 2) on the 6x6 mesh
  interior.radius = 2;
  sc.storms = {corner, interior};
  const ScenarioTrace trace = build_trace(sc);
  ASSERT_EQ(trace.storms.size(), 2u);
  for (std::size_t s = 0; s < trace.storms.size(); ++s) {
    const FaultStorm& storm = trace.storms[s];
    const int cx = storm.center_pe % trace.pim.mesh_x;
    const int cy = storm.center_pe / trace.pim.mesh_x;
    const std::vector<int> pes = trace.storm_pes(s);
    // Exactly the PEs within Chebyshev distance `radius` of the center —
    // spatial adjacency on the mesh, not independent draws.
    EXPECT_NE(std::find(pes.begin(), pes.end(), storm.center_pe), pes.end());
    for (int pe : pes) {
      ASSERT_GE(pe, 0);
      ASSERT_LT(pe, trace.pim.pes);
      const int dx = std::abs(pe % trace.pim.mesh_x - cx);
      const int dy = std::abs(pe / trace.pim.mesh_x - cy);
      EXPECT_LE(std::max(dx, dy), storm.radius);
    }
    int expected = 0;
    for (int pe = 0; pe < trace.pim.pes; ++pe) {
      const int dx = std::abs(pe % trace.pim.mesh_x - cx);
      const int dy = std::abs(pe / trace.pim.mesh_x - cy);
      if (std::max(dx, dy) <= storm.radius) ++expected;
    }
    EXPECT_EQ(static_cast<int>(pes.size()), expected);
  }
  // The corner storm is clipped: 2x2, not (2r+1)^2.
  EXPECT_EQ(trace.storm_pes(0).size(), 4u);
  EXPECT_EQ(trace.storm_pes(1).size(), 25u);
}

TEST(Scenario, ArrivalStreamReplaysViaSkip) {
  const ScenarioTrace trace = build_trace(small_scenario());
  ArrivalGenerator full(trace);
  std::vector<ArrivalGenerator::Arrival> events;
  for (int i = 0; i < 500; ++i) events.push_back(full.next());
  double prev = 0.0;
  for (const auto& e : events) {
    EXPECT_GE(e.t_s, prev);
    prev = e.t_s;
    ASSERT_GE(e.tenant, 0);
    ASSERT_LT(e.tenant, static_cast<int>(trace.tenants.size()));
    // The picked tenant was active (nonzero weight) at its arrival time.
    EXPECT_GT(trace.tenant_weight(static_cast<std::size_t>(e.tenant), e.t_s),
              0.0);
  }
  // skip(n) reaches the identical stream state n calls of next() would —
  // the replay idiom resume relies on instead of serializing the RNG.
  ArrivalGenerator resumed(trace);
  resumed.skip(200);
  EXPECT_EQ(resumed.emitted(), 200u);
  for (std::size_t i = 200; i < events.size(); ++i) {
    const auto e = resumed.next();
    EXPECT_EQ(e.t_s, events[i].t_s);
    EXPECT_EQ(e.tenant, events[i].tenant);
  }
}

TEST(Scenario, BranchFreePickIsStdUpperBound) {
  // cdf_upper_bound against std::upper_bound over 10,000 random
  // nondecreasing cdfs of 1-2,000 entries with zero-weight runs (repeated
  // values, leading zeros, all-zero cdfs), picked at 0, exactly on cdf
  // values and one ulp either side, between values, one ulp below the
  // total and at it.
  common::Rng rng(0xcdf);
  std::vector<double> cdf;
  long long picks = 0;
  for (int trial = 0; trial < 10'000; ++trial) {
    const auto n = static_cast<std::size_t>(1 + rng.uniform_index(2'000));
    cdf.resize(n);
    double sum = 0.0;
    std::uint64_t zero_run = 0;
    for (double& c : cdf) {
      if (zero_run == 0 && rng.uniform() < 0.1)
        zero_run = 1 + rng.uniform_index(40);
      if (zero_run > 0)
        --zero_run;
      else
        sum += trial % 2 == 0 ? rng.uniform()
                              : static_cast<double>(1 + rng.uniform_index(3));
      c = sum;
    }
    const double total = cdf.back();
    std::vector<double> probes = {0.0, total, std::nextafter(total, 0.0)};
    for (int k = 0; k < 8; ++k) {
      const double on = cdf[static_cast<std::size_t>(rng.uniform_index(n))];
      probes.push_back(on);
      probes.push_back(std::nextafter(on, -1.0));
      probes.push_back(std::nextafter(on, total + 1.0));
      probes.push_back(rng.uniform() * total);
    }
    for (const double pick : probes) {
      const auto want = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), pick) - cdf.begin());
      ASSERT_EQ(cdf_upper_bound(cdf.data(), n, pick), want)
          << "n=" << n << " pick=" << pick;
      ++picks;
    }
  }
  EXPECT_GE(picks, 350'000);
  // Outside the range, a NaN pick (upper_bound's end) and an empty cdf.
  const std::vector<double> three = {1.0, 2.0, 2.0};
  EXPECT_EQ(cdf_upper_bound(three.data(), 3, -1.0), 0u);
  EXPECT_EQ(cdf_upper_bound(three.data(), 3, 5.0), 3u);
  EXPECT_EQ(cdf_upper_bound(three.data(), 3,
                            std::numeric_limits<double>::quiet_NaN()),
            3u);
  EXPECT_EQ(cdf_upper_bound(three.data(), 0, 1.0), 0u);
}

TEST(Scenario, ArrivalStreamMatchesItsRecordedCrc) {
  // The first 200,000 arrivals (time bits and tenant) of a fixed
  // 1,000-tenant trace, recorded while the pick was still std::upper_bound:
  // every gap draw, boundary restart and pick reproduces them bit for bit.
  ScenarioConfig sc;
  sc.seed = 5;
  sc.tenants = 1'000;
  sc.requests = 200'000;
  const ScenarioTrace trace = build_trace(sc);
  ArrivalGenerator gen(trace);
  common::ByteWriter stream;
  for (int i = 0; i < 200'000; ++i) {
    const ArrivalGenerator::Arrival a = gen.next();
    stream.f64(a.t_s);
    stream.i32(a.tenant);
  }
  EXPECT_EQ(common::crc32(stream.bytes().data(), stream.bytes().size()),
            0x2f27938cu);
}

TEST(Scenario, CampaignSummaryIsByteIdenticalAcrossRuns) {
  const CampaignConfig cfg = small_campaign();
  const CampaignResult a = run_campaign(cfg);
  const CampaignResult b = run_campaign(cfg);
  EXPECT_EQ(a.requests(), cfg.scenario.requests);
  EXPECT_EQ(a.summary(), b.summary());
  // The campaign actually exercised the chaos surface.
  EXPECT_EQ(a.state.storms_fired, 1);
  EXPECT_GT(a.state.storm_campaigns_fired, 0);
  EXPECT_GT(a.state.rescales, 0);
}

TEST(Scenario, CampaignStateCodecRoundTripsExactly) {
  const CampaignResult r = run_campaign(small_campaign());
  common::ByteWriter out;
  encode_campaign_state(r.state, out);
  common::ByteReader in(out.bytes());
  const auto decoded = decode_campaign_state(in);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seed, r.state.seed);
  EXPECT_EQ(decoded->next_event, r.state.next_event);
  EXPECT_EQ(decoded->clock_s, r.state.clock_s);
  EXPECT_EQ(decoded->misses, r.state.misses);
  EXPECT_EQ(decoded->shard_pes, r.state.shard_pes);
  EXPECT_EQ(decoded->tenant_shard, r.state.tenant_shard);
  EXPECT_EQ(decoded->storm_shard_mask, r.state.storm_shard_mask);
  EXPECT_TRUE(decoded->slack_p1 == r.state.slack_p1);
  EXPECT_TRUE(decoded->sojourn == r.state.sojourn);
  ASSERT_EQ(decoded->shard_wear.size(), r.state.shard_wear.size());
  for (std::size_t k = 0; k < decoded->shard_wear.size(); ++k)
    EXPECT_EQ(decoded->shard_wear[k].campaigns, r.state.shard_wear[k].campaigns);
  // Re-encoding the decoded state reproduces the identical byte stream, so
  // every field (including the epoch sketch vector) survived.
  common::ByteWriter again;
  encode_campaign_state(*decoded, again);
  EXPECT_EQ(out.bytes(), again.bytes());
  // Truncated prefixes are refused, never misparsed.
  for (std::size_t cut : {std::size_t{0}, std::size_t{9},
                          out.bytes().size() / 2, out.bytes().size() - 1}) {
    common::ByteReader short_in(std::string_view(out.bytes()).substr(0, cut));
    EXPECT_FALSE(decode_campaign_state(short_in).has_value()) << "cut=" << cut;
  }
}

TEST(Scenario, MidStormCrashResumeIsBitwise) {
  const std::string base = temp_base("midstorm");
  remove_slots(base);
  CampaignConfig cfg = small_campaign();
  cfg.checkpoint.base_path = base;
  cfg.checkpoint.every_runs = 500;

  const CampaignResult full = run_campaign(cfg);

  CampaignConfig crash = cfg;
  crash.max_requests = cfg.scenario.requests / 2;
  const CampaignResult interrupted = run_campaign(crash);
  EXPECT_LT(interrupted.requests(), full.requests());
  // The kill point really is mid-storm: the storm spans [0.30 h, 0.70 h]
  // and the clock at half the request budget sits inside it.
  const double h = cfg.scenario.horizon_s;
  EXPECT_GT(interrupted.state.clock_s, 0.30 * h);
  EXPECT_LT(interrupted.state.clock_s, 0.70 * h);
  EXPECT_EQ(interrupted.state.storms_fired, 1);

  const auto resumed = resume_campaign(cfg);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->requests(), full.requests());
  // Bitwise: the resumed campaign's deterministic summary is identical to
  // the uninterrupted run's, including every sketch-derived percentile.
  EXPECT_EQ(resumed->summary(), full.summary());
  remove_slots(base);
}

TEST(Scenario, ResumeRefusesWrongGeometry) {
  const std::string base = temp_base("geometry");
  remove_slots(base);
  CampaignConfig cfg = small_campaign();
  cfg.checkpoint.base_path = base;
  cfg.checkpoint.every_runs = 500;
  cfg.max_requests = cfg.scenario.requests / 2;
  run_campaign(cfg);  // leaves a mid-campaign checkpoint behind
  cfg.max_requests = 0;

  {
    CampaignConfig wrong = cfg;
    wrong.scenario.seed = cfg.scenario.seed + 1;
    EXPECT_FALSE(resume_campaign(wrong).has_value());
  }
  {
    CampaignConfig wrong = cfg;
    wrong.scenario.requests *= 2;
    EXPECT_FALSE(resume_campaign(wrong).has_value());
  }
  {
    CampaignConfig wrong = cfg;
    wrong.scenario.tenants += 1;
    EXPECT_FALSE(resume_campaign(wrong).has_value());
  }
  {
    CampaignConfig wrong = cfg;
    wrong.shards += 1;
    EXPECT_FALSE(resume_campaign(wrong).has_value());
  }
  {
    CampaignConfig wrong = cfg;
    wrong.epochs += 1;
    EXPECT_FALSE(resume_campaign(wrong).has_value());
  }
  {
    CampaignConfig wrong = cfg;
    wrong.autoscale.enabled = false;
    EXPECT_FALSE(resume_campaign(wrong).has_value());
  }
  {
    CampaignConfig wrong = cfg;
    wrong.sojourn_cap += 1;
    EXPECT_FALSE(resume_campaign(wrong).has_value());
  }
  // The unmodified geometry still resumes.
  EXPECT_TRUE(resume_campaign(cfg).has_value());
  remove_slots(base);
}

TEST(Scenario, AutoscaledBeatsStaticOnFlashPhaseSlack) {
  CampaignConfig cfg;
  cfg.scenario.seed = 1;
  cfg.scenario.tenants = 120;
  cfg.scenario.requests = 30'000;
  FaultStorm storm1;
  storm1.start_frac = 0.40;
  storm1.duration_frac = 0.25;
  storm1.drift_multiplier = 3.0;
  storm1.radius = 1;
  storm1.campaigns = 4;
  FaultStorm storm2;
  storm2.start_frac = 0.78;
  storm2.duration_frac = 0.05;
  storm2.drift_multiplier = 5.0;
  storm2.radius = 2;
  storm2.campaigns = 6;
  cfg.scenario.storms = {storm1, storm2};
  cfg.shards = 6;
  cfg.epochs = 96;
  cfg.queue_shed_slo_mult = 400.0;  // keep flash backlogs visible

  cfg.autoscale.enabled = true;
  const CampaignResult autoscaled = run_campaign(cfg);
  cfg.autoscale.enabled = false;
  const CampaignResult fixed = run_campaign(cfg);

  EXPECT_GT(autoscaled.state.rescales, 0);
  EXPECT_GT(autoscaled.state.migrations, 0);
  EXPECT_EQ(fixed.state.rescales, 0);
  EXPECT_EQ(fixed.state.migrations, 0);
  // Rebalancing PE blocks under the flash crowds buys real tail slack
  // during the flash phase — the autoscaler's reason to exist.
  EXPECT_GT(autoscaled.flash_p99_slack_s(), fixed.flash_p99_slack_s());
  // Migration costs are charged to their own ledger, off the serving path.
  EXPECT_GT(autoscaled.state.migration_s, 0.0);
}

TEST(Scenario, QuantileSketchTracksExactNearestRank) {
  common::Rng rng(0x5ca1e);
  QuantileSketch p1(0.01);
  SojournSketch sojourn;
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    // Skewed positive samples (squared uniform) — a sojourn-like shape.
    const double u = rng.uniform();
    const double x = 1e-3 + u * u;
    samples.push_back(x);
    p1.add(x);
    sojourn.add(x);
  }
  EXPECT_EQ(p1.count(), 20'000u);
  const double exact_p1 = percentile(samples, 1.0);
  EXPECT_NEAR(p1.estimate(), exact_p1, 0.05 * exact_p1 + 1e-4);
  const double exact_p50 = percentile(samples, 50.0);
  const double exact_p99 = percentile(samples, 99.0);
  EXPECT_NEAR(sojourn.percentile(50.0), exact_p50, 0.05 * exact_p50);
  EXPECT_NEAR(sojourn.percentile(99.0), exact_p99, 0.05 * exact_p99);
  // Extremes and the mean are exact, not estimated.
  EXPECT_EQ(sojourn.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(sojourn.max(), *std::max_element(samples.begin(), samples.end()));
  double sum = 0.0;
  for (double x : samples) sum += x;
  EXPECT_NEAR(sojourn.mean(), sum / 20'000.0, 1e-12);
}

TEST(Scenario, CappedTenantStatsFallBackToTheSketch) {
  common::Rng rng(0xcab);
  TenantStats capped;
  TenantStats uncapped;
  std::vector<double> samples;
  for (int i = 0; i < 5'000; ++i) {
    const double u = rng.uniform();
    const double x = 1e-3 + u * u;
    samples.push_back(x);
    capped.record_sojourn(x, 32);
    uncapped.record_sojourn(x, 0);
  }
  // The cap bounds the raw vector; the sketch absorbed every sample.
  EXPECT_EQ(capped.sojourn_s.size(), 32u);
  EXPECT_EQ(capped.sojourn_dropped, 5'000 - 32);
  EXPECT_EQ(capped.sojourn_sketch.count(), 5'000u);
  EXPECT_EQ(uncapped.sojourn_s.size(), 5'000u);
  EXPECT_EQ(uncapped.sojourn_dropped, 0);
  // Uncapped reporting stays exact; capped reporting switches to the
  // sketch and stays close to the exact nearest-rank percentile.
  const double exact_p99 = percentile(samples, 99.0);
  EXPECT_EQ(uncapped.sojourn_percentile(99.0), exact_p99);
  EXPECT_NEAR(capped.sojourn_percentile(99.0), exact_p99, 0.05 * exact_p99);
}

TEST(Scenario, RescaleShardBlocksKeepsTheFillOrderInvariants) {
  const arch::PimConfig pim;
  const std::vector<int> order = fleet_fill_order(pim, true);
  {
    // Demand-proportional: the hot shard gets the biggest block, every
    // shard keeps at least one PE, and the concatenated blocks are exactly
    // the snake order (contiguity — neighbours trade adjacent PEs).
    const std::vector<double> demand = {8.0, 1.0, 1.0, 0.0};
    const auto blocks = rescale_shard_blocks(pim, true, demand);
    ASSERT_EQ(blocks.size(), demand.size());
    std::vector<int> concat;
    for (const auto& b : blocks) {
      EXPECT_GE(b.size(), 1u);
      concat.insert(concat.end(), b.begin(), b.end());
    }
    EXPECT_EQ(concat, order);
    EXPECT_GT(blocks[0].size(), blocks[1].size());
    EXPECT_EQ(blocks[3].size(), 1u);  // zero demand floors at one PE
  }
  {
    // All-zero demand degenerates to the near-equal static cut.
    const auto blocks = rescale_shard_blocks(pim, true, {0.0, 0.0, 0.0, 0.0});
    std::size_t lo = blocks[0].size(), hi = blocks[0].size();
    std::size_t total = 0;
    for (const auto& b : blocks) {
      lo = std::min(lo, b.size());
      hi = std::max(hi, b.size());
      total += b.size();
    }
    EXPECT_EQ(total, static_cast<std::size_t>(pim.pes));
    EXPECT_LE(hi - lo, 1u);
  }
}

TEST(Scenario, ParserAcceptsTheDocumentedFormat) {
  std::istringstream in(
      "# a seeded campaign (docs/scenario_format.md)\n"
      "seed 42\n"
      "tenants 96\n"
      "requests 50000\n"
      "horizon-s 3600\n"
      "diurnal-cycles 2\n"
      "diurnal-amplitude 0.4\n"
      "churn-frac 0.2\n"
      "target-utilization 0.5\n"
      "gold-share 0.2\n"
      "silver-share 0.3\n"
      "gold-slo-mult 10\n"
      "flash 0.25 0.05 6.0 0.15\n"
      "flash 0.70 0.02 9.0\n"
      "storm 0.40 0.10 3.5 2 5 14\n"
      "shards 5\n"
      "epochs 24\n"
      "autoscale off\n"
      "sojourn-cap 128\n"
      "checkpoint /tmp/campaign_ckpt\n"
      "checkpoint-every 1000\n"
      "fault-seed 7\n"
      "shed-slo-mult 16\n");
  const auto cfg = parse_scenario(in);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->scenario.seed, 42u);
  EXPECT_EQ(cfg->scenario.tenants, 96);
  EXPECT_EQ(cfg->scenario.requests, 50'000);
  EXPECT_EQ(cfg->scenario.horizon_s, 3600.0);
  EXPECT_EQ(cfg->scenario.diurnal_cycles, 2);
  EXPECT_EQ(cfg->scenario.diurnal_amplitude, 0.4);
  EXPECT_EQ(cfg->scenario.churn_frac, 0.2);
  EXPECT_EQ(cfg->scenario.target_utilization, 0.5);
  EXPECT_EQ(cfg->scenario.gold_share, 0.2);
  EXPECT_EQ(cfg->scenario.gold_slo_mult, 10.0);
  ASSERT_EQ(cfg->scenario.flash.size(), 2u);
  EXPECT_EQ(cfg->scenario.flash[0].start_frac, 0.25);
  EXPECT_EQ(cfg->scenario.flash[0].tenant_frac, 0.15);
  EXPECT_EQ(cfg->scenario.flash[1].multiplier, 9.0);
  ASSERT_EQ(cfg->scenario.storms.size(), 1u);
  EXPECT_EQ(cfg->scenario.storms[0].drift_multiplier, 3.5);
  EXPECT_EQ(cfg->scenario.storms[0].radius, 2);
  EXPECT_EQ(cfg->scenario.storms[0].campaigns, 5);
  EXPECT_EQ(cfg->scenario.storms[0].center_pe, 14);
  EXPECT_EQ(cfg->shards, 5);
  EXPECT_EQ(cfg->epochs, 24);
  EXPECT_FALSE(cfg->autoscale.enabled);
  EXPECT_EQ(cfg->sojourn_cap, 128u);
  EXPECT_EQ(cfg->checkpoint.base_path, "/tmp/campaign_ckpt");
  EXPECT_EQ(cfg->checkpoint.every_runs, 1000);
  EXPECT_EQ(cfg->fault_seed, 7u);
  EXPECT_EQ(cfg->queue_shed_slo_mult, 16.0);
}

TEST(Scenario, ParserRejectsMalformedInputWithNullopt) {
  // Unknown keys are an error, not silently ignored — a typo must never
  // run a subtly different campaign.
  {
    std::istringstream in("tennants 96\n");
    EXPECT_FALSE(parse_scenario(in).has_value());
  }
  {
    std::istringstream in("tenants ninety\n");  // unparsable value
    EXPECT_FALSE(parse_scenario(in).has_value());
  }
  {
    std::istringstream in("tenants 0\n");  // out of range
    EXPECT_FALSE(parse_scenario(in).has_value());
  }
  {
    std::istringstream in("flash 0.5\n");  // too few storm/flash fields
    EXPECT_FALSE(parse_scenario(in).has_value());
  }
  {
    std::istringstream in("autoscale maybe\n");  // strict tri-state
    EXPECT_FALSE(parse_scenario(in).has_value());
  }
  {
    std::istringstream in("diurnal-amplitude 1.5\n");  // out of [0, 1)
    EXPECT_FALSE(parse_scenario(in).has_value());
  }
  // A missing file is a nullopt too, not a crash.
  EXPECT_FALSE(parse_scenario_file("/nonexistent/campaign.scn").has_value());
}

TEST(Scenario, TraceExportShapesTheServingSchedule) {
  const ScenarioTrace trace = build_trace(small_scenario());
  ServingConfig sc;
  sc.horizon.runs = 60;
  sc.segments = 6;
  apply_trace_to_serving(trace, sc);
  ASSERT_EQ(sc.schedule.size(), 60u);
  // Ascending times, affinely mapped into the serving horizon.
  for (std::size_t i = 1; i < sc.schedule.size(); ++i)
    EXPECT_GE(sc.schedule[i], sc.schedule[i - 1]);
  EXPECT_GE(sc.schedule.front(), sc.horizon.t_start_s);
  EXPECT_LE(sc.schedule.back(), sc.horizon.t_end_s);
  // Per-segment run counts follow the arrival density but always keep the
  // segment alive.
  ASSERT_EQ(sc.segment_sizes.size(), 6u);
  std::size_t total = 0;
  for (std::size_t n : sc.segment_sizes) {
    EXPECT_GE(n, 1u);
    total += n;
  }
  EXPECT_EQ(total, 60u);
  // Density shaping is visible: the crest-adjacent segment (the diurnal
  // peak sits at the segment-2/3 boundary, before churn departures start
  // thinning the roster) carries strictly more runs than the trough
  // segment at the start of the horizon.
  EXPECT_EQ(*std::max_element(sc.segment_sizes.begin(),
                              sc.segment_sizes.end()),
            sc.segment_sizes[2]);
  EXPECT_GT(sc.segment_sizes[2], sc.segment_sizes[0]);
}

}  // namespace
}  // namespace odin::core
