// Serving-resilience layer: per-request deadline budgets, admission control
// with load shedding, per-tenant circuit breakers, the hung-work watchdog,
// and checkpoint/resume of all of it (core/resilience.hpp, DESIGN.md §13).
//
// The scenario tests steer the deterministic serving walk with quantities
// measured from the fixture itself (plain inference latency, full-reprogram
// latency) so the SLO thresholds track the cost model instead of hard-coded
// seconds. One empirical anchor they rely on: a drift burst of [3s, 11s]
// x 1e9 over the 120-run log-spaced horizon makes segment-0 runs 8..15
// reprogram on every run (the storm), while a fresh programming pass stays
// feasible — the burst multiplies elapsed-since-programming, not the
// post-reprogram reference point, so the campaigns are never "unrecoverable".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/checkpoint.hpp"
#include "core/serving.hpp"
#include "reram/fault_injection.hpp"
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
  policy::OuPolicy policy() const {
    return policy::OuPolicy(ou::OuLevelGrid(128));
  }
};

/// Latency scales of the fixture, measured instead of hard-coded so the
/// SLO thresholds below survive cost-model retuning.
struct Costs {
  double inference_s = 0.0;  ///< one plain full-service inference
  double reprogram_s = 0.0;  ///< one whole-model write-verify campaign
};

Costs measure_costs(const Fixture& fx) {
  OdinController ctl(fx.tenant_a, fx.nonideal, fx.cost, fx.policy(), {});
  const RunResult run = ctl.run_inference(1.0);
  return {run.inference.latency_s, ctl.full_reprogram_cost().latency_s};
}

std::vector<double> pooled_sojourns(const ServingResult& r) {
  std::vector<double> all;
  for (const TenantStats& t : r.tenants)
    all.insert(all.end(), t.sojourn_s.begin(), t.sojourn_s.end());
  return all;
}

/// A breaker config that can never trip (the 64-bit window cannot hold
/// threshold failures), for tests that isolate the deadline/queue paths.
BreakerConfig never_trips() {
  BreakerConfig b;
  b.failure_threshold = 1'000'000;
  return b;
}

// --- CircuitBreaker unit tests (pure state machine, no serving loop) ---

TEST(CircuitBreaker, OpensAfterThresholdFailuresAndProbesAfterHold) {
  CircuitBreaker b({.window = 4, .failure_threshold = 2, .hold_runs = 3});
  EXPECT_TRUE(b.allow());
  b.record(false);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  b.record(false);  // second failure in the window trips it
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 1);
  // hold_runs = 3: two denied runs, then the third is the probe.
  EXPECT_FALSE(b.allow());
  EXPECT_FALSE(b.allow());
  EXPECT_TRUE(b.allow());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(b.probes(), 1);
  b.record(true);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.closes(), 1);
  // Recovery cleared the window: one fresh failure must not re-trip.
  b.record(false);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeBacksOffExponentiallyWithCap) {
  CircuitBreaker b({.window = 4, .failure_threshold = 1, .hold_runs = 2,
                    .backoff_factor = 2.0, .hold_max_runs = 5});
  auto denied_before_probe = [&b] {
    int denied = 0;
    while (!b.allow()) ++denied;
    return denied;
  };
  b.record(false);  // trip (threshold 1)
  EXPECT_EQ(denied_before_probe(), 1);  // hold 2 = 1 denied + probe
  b.record(false);                      // probe fails: hold 2 -> 4
  EXPECT_EQ(b.reopens(), 1);
  EXPECT_EQ(denied_before_probe(), 3);
  b.record(false);  // hold 4 -> 8, capped at 5
  EXPECT_EQ(denied_before_probe(), 4);
  b.record(true);  // recovery resets the backoff to the base hold
  EXPECT_EQ(b.closes(), 1);
  b.record(false);
  EXPECT_EQ(denied_before_probe(), 1);
  EXPECT_EQ(b.opens(), 2);
}

TEST(CircuitBreaker, SnapshotRestoreRoundTripsMidEpisode) {
  CircuitBreaker a({.window = 8, .failure_threshold = 3, .hold_runs = 4});
  a.record(true);
  a.record(false);
  a.record(false);
  a.record(false);  // open
  EXPECT_FALSE(a.allow());
  const CircuitBreaker::Snapshot snap = a.snapshot();

  CircuitBreaker b({.window = 8, .failure_threshold = 3, .hold_runs = 4});
  b.restore(snap);
  // Both continue identically from the middle of the hold.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(a.allow(), b.allow());
  a.record(true);
  b.record(true);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.closes(), b.closes());
}

TEST(Percentile, NearestRankSemantics) {
  EXPECT_EQ(percentile({}, 99.0), 0.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
}

// --- Serving-loop scenario tests ---

TEST(ServingResilience, EnabledWithoutSloServesEveryArrivalOnce) {
  Fixture fx;
  ServingConfig cfg = fx.config();
  cfg.resilience.enabled = true;  // default SLO = infinity: no deadlines
  const auto result = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                      fx.policy(), cfg);
  EXPECT_EQ(result.total_runs(), 120);
  for (const TenantStats& t : result.tenants) {
    EXPECT_EQ(static_cast<int>(t.sojourn_s.size()), t.runs);
    EXPECT_EQ(t.slo_s, 0.0);  // no SLO in force
    EXPECT_GT(t.sojourn_percentile(50.0), 0.0);
  }
  EXPECT_EQ(result.total_deadline_misses(), 0);
  EXPECT_EQ(result.total_shed_runs(), 0);
  EXPECT_EQ(result.total_breaker_opens(), 0);
  EXPECT_EQ(result.total_watchdog_stalls(), 0);
}

TEST(ServingResilience, DeadlineBoundsTailLatencyUnderDriftBurst) {
  // The acceptance scenario: a drift burst makes the unbounded controller
  // reprogram on every storm run and grind through the full K-step search,
  // while the deadline arm truncates each search at best-so-far and defers
  // the campaigns — p99 sojourn must come out >= 10x tighter.
  Fixture fx;
  const Costs costs = measure_costs(fx);
  ASSERT_LT(costs.inference_s, 0.5 * costs.reprogram_s);

  ServingConfig cfg = fx.config();
  cfg.odin.search_steps = 6;  // deep search: the work the deadline bounds
  cfg.resilience.enabled = true;
  cfg.resilience.queue_capacity = 1'000;  // isolate the deadline effect
  cfg.resilience.shed = ShedPolicy::kBlock;
  cfg.resilience.breaker = never_trips();
  cfg.resilience.search_eval_cost_s = 5e-3;

  reram::FaultScheduleParams storm;
  storm.bursts = {{3.0, 8.0, 1e9}};

  ServingConfig bounded = cfg;
  bounded.resilience.default_slo_s = 0.5 * costs.reprogram_s;
  reram::FaultInjector faults_bounded(storm, 0x5eed);
  const auto with_deadline =
      serve_with_odin(fx.tenants(), fx.nonideal, fx.cost, fx.policy(),
                      bounded, &faults_bounded);

  reram::FaultInjector faults_unbounded(storm, 0x5eed);
  const auto unbounded =
      serve_with_odin(fx.tenants(), fx.nonideal, fx.cost, fx.policy(), cfg,
                      &faults_unbounded);

  EXPECT_EQ(with_deadline.total_runs(), 120);
  EXPECT_EQ(unbounded.total_runs(), 120);
  // The storm reprograms in the unbounded arm and defers in the deadline
  // arm (the SLO budget cannot absorb a campaign's latency).
  int unbounded_reprograms = 0;
  for (const TenantStats& t : unbounded.tenants)
    unbounded_reprograms += t.reprograms;
  EXPECT_GE(unbounded_reprograms, 4);
  EXPECT_EQ(unbounded.total_deferred_reprograms(), 0);
  int bounded_reprograms = 0;
  for (const TenantStats& t : with_deadline.tenants)
    bounded_reprograms += t.reprograms;
  EXPECT_EQ(bounded_reprograms, 0);
  EXPECT_GE(with_deadline.total_deferred_reprograms(), 4);
  EXPECT_GE(with_deadline.total_searches_truncated(), 100);
  EXPECT_EQ(unbounded.total_searches_truncated(), 0);

  const double p99_bounded =
      percentile(pooled_sojourns(with_deadline), 99.0);
  const double p99_unbounded = percentile(pooled_sojourns(unbounded), 99.0);
  ASSERT_GT(p99_bounded, 0.0);
  EXPECT_GE(p99_unbounded, 10.0 * p99_bounded)
      << "p99 unbounded=" << p99_unbounded << " bounded=" << p99_bounded;
}

TEST(ServingResilience, ShedPoliciesBoundQueueAndTailUnderOverload) {
  // Inflate per-run service (search evaluations charged at 0.5 s each)
  // far past the early-horizon inter-arrival gaps: the run queue backs up
  // and the shed policy decides who eats the backlog.
  Fixture fx;
  ServingConfig cfg = fx.config();
  cfg.resilience.enabled = true;  // SLO stays infinite: pure queue pressure
  cfg.resilience.queue_capacity = 2;
  cfg.resilience.search_eval_cost_s = 0.5;

  auto serve_with = [&](ShedPolicy shed) {
    ServingConfig arm = cfg;
    arm.resilience.shed = shed;
    return serve_with_odin(fx.tenants(), fx.nonideal, fx.cost, fx.policy(),
                           arm);
  };
  const auto block = serve_with(ShedPolicy::kBlock);
  const auto oldest = serve_with(ShedPolicy::kShedOldest);
  const auto newest = serve_with(ShedPolicy::kShedNewest);

  // Every arrival is served exactly once under every policy.
  for (const ServingResult* r : {&block, &oldest, &newest}) {
    EXPECT_EQ(r->total_runs(), 120);
    EXPECT_EQ(static_cast<int>(pooled_sojourns(*r).size()), 120);
  }
  // Blocking absorbs the overload as waiting time; shedding converts it
  // into degraded fallback serves.
  EXPECT_EQ(block.total_shed_runs(), 0);
  EXPECT_GT(oldest.total_shed_runs(), 0);
  EXPECT_GT(newest.total_shed_runs(), 0);
  const double worst_block = percentile(pooled_sojourns(block), 100.0);
  const double worst_oldest = percentile(pooled_sojourns(oldest), 100.0);
  const double worst_newest = percentile(pooled_sojourns(newest), 100.0);
  EXPECT_LT(worst_oldest, worst_block);
  EXPECT_LT(worst_newest, worst_block);
}

TEST(ServingResilience, BreakerIsolatesChronicallyFailingTenant) {
  // Tenant 0 gets an unmeetable SLO: every full serve misses, the breaker
  // opens, and the tenant is served by the degraded fallback. The other
  // tenants' energy-delay product must stay within 5% of a run where
  // tenant 0 is healthy.
  Fixture fx;
  ServingConfig cfg = fx.config();
  cfg.odin.buffer_capacity = 1'000'000;  // freeze the policy: arms compare
  cfg.resilience.enabled = true;
  cfg.resilience.breaker = {.window = 8, .failure_threshold = 4,
                            .hold_runs = 4};

  ServingConfig failing = cfg;
  failing.resilience.tenant_slo_s = {1e-9, 0.0, 0.0};
  const auto isolated = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        fx.policy(), failing);
  const auto healthy = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                       fx.policy(), cfg);

  const TenantStats& bad = isolated.tenants[0];
  EXPECT_EQ(bad.slo_s, 1e-9);
  EXPECT_GE(bad.deadline_misses, 4);
  EXPECT_GE(bad.breaker_opens, 1);
  EXPECT_GE(bad.breaker_open_runs, 10);
  EXPECT_GE(bad.breaker_probes, 1);
  EXPECT_GE(bad.breaker_reopens, 1);  // probes keep missing the SLO
  EXPECT_EQ(bad.breaker_closes, 0);
  EXPECT_EQ(bad.runs, 40);  // still served every arrival (degraded)

  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    const TenantStats& t = isolated.tenants[i];
    EXPECT_EQ(t.breaker_opens, 0) << "tenant " << i;
    EXPECT_EQ(t.deadline_misses, 0) << "tenant " << i;
    EXPECT_EQ(t.shed_runs, 0) << "tenant " << i;
    const double edp = (t.inference + t.reprogram).edp();
    const double edp_healthy = (healthy.tenants[i].inference +
                                healthy.tenants[i].reprogram)
                                   .edp();
    EXPECT_NEAR(edp, edp_healthy, 0.05 * edp_healthy) << "tenant " << i;
  }
}

TEST(ServingResilience, BreakerRecoversThroughHalfOpenProbeAfterBurst) {
  // Transient failure: the drift-burst storm (segment-0 runs 8..15) makes
  // every full serve reprogram, overshooting an SLO sized to fit plain
  // inference but not a campaign. The breaker opens during the storm, its
  // first probe lands inside the burst and fails (backoff), and the second
  // probe lands after the burst, succeeds, and restores full service.
  Fixture fx;
  const Costs costs = measure_costs(fx);
  ASSERT_LT(costs.inference_s, 0.5 * costs.reprogram_s);

  ServingConfig cfg = fx.config();
  cfg.resilience.enabled = true;
  // A campaign fits the budget (no deferral) but blows the SLO. Only the
  // burst-hit tenant gets the tight SLO: late in the horizon the OTHER
  // tenants legitimately reprogram on natural drift, and those misses
  // would be theirs, not collateral from tenant 0.
  cfg.resilience.tenant_slo_s = {costs.reprogram_s, 0.0, 0.0};
  cfg.resilience.breaker = {.window = 8, .failure_threshold = 3,
                            .hold_runs = 2, .backoff_factor = 2.0,
                            .hold_max_runs = 64};

  reram::FaultScheduleParams storm;
  storm.bursts = {{3.0, 8.0, 1e9}};
  reram::FaultInjector faults(storm, 0x5eed);
  const auto result = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                      fx.policy(), cfg, &faults);

  const TenantStats& hit = result.tenants[0];  // segment 0 owns the burst
  EXPECT_GE(hit.deadline_misses, 3);
  EXPECT_EQ(hit.breaker_opens, 1);
  EXPECT_GE(hit.breaker_probes, 2);
  EXPECT_GE(hit.breaker_reopens, 1);  // the in-burst probe fails
  EXPECT_GE(hit.breaker_closes, 1);   // ...the post-burst probe recovers
  EXPECT_GE(hit.breaker_open_runs, 3);
  EXPECT_EQ(hit.runs, 40);
  EXPECT_EQ(hit.deferred_reprograms, 0);  // the budget fits the campaign
  // The burst never reaches the other tenants' segments.
  EXPECT_EQ(result.tenants[1].breaker_opens, 0);
  EXPECT_EQ(result.tenants[2].breaker_opens, 0);
  EXPECT_EQ(result.tenants[1].deadline_misses +
                result.tenants[2].deadline_misses,
            0);
}

TEST(ServingResilience, WatchdogCancelsHungRunAndMarksItShed) {
  // The hang hook makes one run spin (polling its CancellationToken) the
  // way a stuck worker would; the watchdog must cancel it within the
  // wall-time bound and the serving loop must shed it — not deadlock.
  Fixture fx;
  const long long stalls_before = common::ThreadPool::stall_count();
  ServingConfig cfg;
  cfg.horizon = HorizonConfig{.t_start_s = 1.0, .t_end_s = 1e6, .runs = 20};
  cfg.segments = 2;
  cfg.resilience.enabled = true;
  // Generous bound: under TSan a healthy run can take tens of ms, and a
  // spurious fire on a healthy run only adds a stall (assertions are >=).
  cfg.resilience.watchdog_bound_s = 0.5;
  cfg.resilience.hang_run_index = 2;
  const auto result =
      serve_with_odin({&fx.tenant_a, &fx.tenant_b}, fx.nonideal, fx.cost,
                      fx.policy(), cfg);

  EXPECT_EQ(result.total_runs(), 20);  // the hung run was still served
  EXPECT_GE(result.total_watchdog_stalls(), 1);
  EXPECT_GE(result.tenants[0].watchdog_stalls, 1);  // run 2 is segment 0
  EXPECT_GE(result.tenants[0].shed_runs, 1);
  EXPECT_EQ(static_cast<int>(result.tenants[0].sojourn_s.size()),
            result.tenants[0].runs);
  EXPECT_GE(common::ThreadPool::stall_count(), stalls_before + 1);
}

// --- Checkpoint/resume of the resilience state ---

void expect_same_tenant(const TenantStats& a, const TenantStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.reprograms, b.reprograms);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.degraded_runs, b.degraded_runs);
  EXPECT_EQ(a.slo_s, b.slo_s);
  EXPECT_EQ(a.shed_runs, b.shed_runs);
  EXPECT_EQ(a.breaker_open_runs, b.breaker_open_runs);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.deferred_reprograms, b.deferred_reprograms);
  EXPECT_EQ(a.deadline_stopped_retries, b.deadline_stopped_retries);
  EXPECT_EQ(a.searches_truncated, b.searches_truncated);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_EQ(a.breaker_reopens, b.breaker_reopens);
  EXPECT_EQ(a.breaker_probes, b.breaker_probes);
  EXPECT_EQ(a.breaker_closes, b.breaker_closes);
  EXPECT_EQ(a.watchdog_stalls, b.watchdog_stalls);
  EXPECT_EQ(a.sojourn_s, b.sojourn_s);  // bitwise, every sample
  EXPECT_EQ(a.inference.energy_j, b.inference.energy_j);
  EXPECT_EQ(a.inference.latency_s, b.inference.latency_s);
  EXPECT_EQ(a.reprogram.energy_j, b.reprogram.energy_j);
  EXPECT_EQ(a.reprogram.latency_s, b.reprogram.latency_s);
}

TEST(ServingResilience, CheckpointResumeRoundTripsResilienceStateBitwise) {
  // Crash mid-horizon with the queue backed up, breakers mid-episode and
  // sheds on the books; the resumed walk must reproduce the uninterrupted
  // walk bit for bit — sojourn samples, counters and energy totals alike.
  Fixture fx;
  ServingConfig cfg = fx.config();
  cfg.resilience.enabled = true;
  cfg.resilience.default_slo_s = 2e-3;        // every full serve misses...
  cfg.resilience.search_eval_cost_s = 0.5;    // ...and overloads the queue
  cfg.resilience.queue_capacity = 2;
  cfg.resilience.shed = ShedPolicy::kShedOldest;
  cfg.resilience.breaker = {.window = 4, .failure_threshold = 2,
                            .hold_runs = 2};

  const auto uninterrupted = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost, fx.policy(), cfg);
  // Sanity: the scenario actually exercises the state being checkpointed.
  EXPECT_GT(uninterrupted.total_shed_runs(), 0);
  EXPECT_GT(uninterrupted.total_deadline_misses(), 0);
  EXPECT_GT(uninterrupted.total_breaker_opens(), 0);

  const std::string base = ::testing::TempDir() + "odin_resilience_ckpt";
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
  ServingConfig crashed = cfg;
  crashed.checkpoint.base_path = base;
  crashed.checkpoint.every_runs = 10;
  crashed.max_runs = 25;  // die inside segment 1
  const auto partial = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                       fx.policy(), crashed);
  EXPECT_LT(partial.total_runs(), 120);

  const auto ckpt = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_TRUE(ckpt->fingerprint.has_resilience);
  EXPECT_EQ(ckpt->fingerprint.shed_policy,
            static_cast<std::int32_t>(ShedPolicy::kShedOldest));
  EXPECT_EQ(ckpt->fingerprint.queue_capacity, 2u);
  EXPECT_EQ(ckpt->breakers.size(), 3u);
  EXPECT_EQ(ckpt->fallback_ous.size(), 3u);

  const auto resumed = resume_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        *ckpt, cfg);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->label, uninterrupted.label);
  EXPECT_EQ(resumed->switches, uninterrupted.switches);
  EXPECT_EQ(resumed->policy_updates, uninterrupted.policy_updates);
  EXPECT_EQ(resumed->programming.energy_j,
            uninterrupted.programming.energy_j);
  EXPECT_EQ(resumed->programming.latency_s,
            uninterrupted.programming.latency_s);
  ASSERT_EQ(resumed->tenants.size(), uninterrupted.tenants.size());
  for (std::size_t i = 0; i < resumed->tenants.size(); ++i)
    expect_same_tenant(resumed->tenants[i], uninterrupted.tenants[i]);

  // The resilience fingerprint is validated: a checkpoint taken under a
  // different admission geometry (or without resilience) must be refused.
  ServingConfig other = cfg;
  other.resilience.queue_capacity = 3;
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                other)
                   .has_value());
  other = cfg;
  other.resilience.shed = ShedPolicy::kShedNewest;
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                other)
                   .has_value());
  other = cfg;
  other.resilience.enabled = false;
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                other)
                   .has_value());
  // A queued arrival at or past the resume cursor cannot come from a real
  // walk: a CRC-valid forged frame carrying one is refused before the walk
  // indexes the schedule with it.
  ServingCheckpoint forged = *ckpt;
  forged.pending_runs.push_back(std::uint64_t{1} << 40);
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, forged,
                                cfg)
                   .has_value());
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

}  // namespace
}  // namespace odin::core
