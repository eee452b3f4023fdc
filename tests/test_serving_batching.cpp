// Deadline-aware batch formation in the resilience serving loop
// (DESIGN.md §14): under queue pressure the drain groups same-tenant
// arrivals into one pipelined pass (the controller search runs once per
// batch, members ride the arch::BatchCost pipeline), but never grows a
// batch past a member's SLO slack. Batching is opt-in; with a cap of 1 the
// walk must be bit-identical to the PR-5 resilience behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
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
  policy::OuPolicy policy() const {
    return policy::OuPolicy(ou::OuLevelGrid(128));
  }
};

/// Overload scenario shared by the formation tests: service inflated far
/// past the early-horizon inter-arrival gaps, deep queue, no shedding, a
/// breaker that cannot trip — the backlog is the only variable.
ServingConfig overloaded(const Fixture& fx) {
  ServingConfig cfg = fx.config();
  cfg.resilience.enabled = true;
  cfg.resilience.queue_capacity = 1'000;
  cfg.resilience.shed = ShedPolicy::kBlock;
  cfg.resilience.search_eval_cost_s = 0.5;
  cfg.resilience.breaker = {.failure_threshold = 1'000'000};
  return cfg;
}

std::vector<double> pooled_sojourns(const ServingResult& r) {
  std::vector<double> all;
  for (const TenantStats& t : r.tenants)
    all.insert(all.end(), t.sojourn_s.begin(), t.sojourn_s.end());
  return all;
}

TEST(ServingBatching, DisabledByDefaultAndCapOneIsTransparent) {
  Fixture fx;
  ServingConfig plain_cfg = overloaded(fx);
  const auto plain = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                     fx.policy(), plain_cfg);
  EXPECT_EQ(plain.total_batches_formed(), 0);
  EXPECT_EQ(plain.total_batch_members(), 0);
  EXPECT_EQ(plain.max_batch(), 0);
  EXPECT_EQ(plain.mean_batch_occupancy(), 0.0);

  // Cap 1: every drain forms a single-member batch that delegates to the
  // plain full-service path — only the occupancy counters may differ.
  ServingConfig capped_cfg = overloaded(fx);
  capped_cfg.resilience.batching.enabled = true;
  capped_cfg.resilience.batching.max_batch = 1;
  const auto capped = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                      fx.policy(), capped_cfg);
  EXPECT_EQ(capped.total_runs(), 120);
  EXPECT_EQ(capped.total_batches_formed(), 120);
  EXPECT_EQ(capped.total_batch_members(), 120);
  EXPECT_EQ(capped.max_batch(), 1);
  EXPECT_EQ(capped.mean_batch_occupancy(), 1.0);
  EXPECT_EQ(capped.total().energy_j, plain.total().energy_j);
  EXPECT_EQ(capped.total().latency_s, plain.total().latency_s);
  ASSERT_EQ(capped.tenants.size(), plain.tenants.size());
  for (std::size_t i = 0; i < capped.tenants.size(); ++i) {
    EXPECT_EQ(capped.tenants[i].runs, plain.tenants[i].runs);
    EXPECT_EQ(capped.tenants[i].sojourn_s, plain.tenants[i].sojourn_s)
        << "tenant " << i;
  }
}

TEST(ServingBatching, OverloadFormsBatchesAndDrainsBacklogFaster) {
  Fixture fx;
  const ServingConfig plain_cfg = overloaded(fx);
  const auto plain = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                     fx.policy(), plain_cfg);

  ServingConfig batched_cfg = overloaded(fx);
  batched_cfg.resilience.batching.enabled = true;
  batched_cfg.resilience.batching.max_batch = 8;
  const auto batched = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                       fx.policy(), batched_cfg);

  // Every arrival is still served exactly once, all through the batch path.
  EXPECT_EQ(batched.total_runs(), 120);
  EXPECT_EQ(batched.total_batch_members(), 120);
  EXPECT_EQ(static_cast<int>(pooled_sojourns(batched).size()), 120);
  // The backlog actually produced multi-member batches...
  EXPECT_LT(batched.total_batches_formed(), 120);
  EXPECT_GE(batched.max_batch(), 2);
  EXPECT_LE(batched.max_batch(), 8);
  EXPECT_GT(batched.mean_batch_occupancy(), 1.0);
  EXPECT_EQ(batched.total_batch_slo_capped(), 0);  // no SLO in force
  // ...and batching one search + a pipelined pass per group drains the
  // queue faster than one full serve per arrival.
  const double worst_plain = percentile(pooled_sojourns(plain), 100.0);
  const double worst_batched = percentile(pooled_sojourns(batched), 100.0);
  EXPECT_LT(worst_batched, worst_plain)
      << "batched=" << worst_batched << " plain=" << worst_plain;
}

TEST(ServingBatching, TightSloCapsBatchGrowth) {
  Fixture fx;
  ServingConfig cfg = overloaded(fx);
  cfg.resilience.batching.enabled = true;
  cfg.resilience.batching.max_batch = 8;
  // Far below the inflated service time: a waiting member's slack can
  // never absorb riding along in a batch, so growth is refused and every
  // arrival is served in its own pass (the leader always ships).
  cfg.resilience.default_slo_s = 1e-3;
  const auto result = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                      fx.policy(), cfg);
  EXPECT_EQ(result.total_runs(), 120);
  EXPECT_GT(result.total_batch_slo_capped(), 0);
  EXPECT_EQ(result.max_batch(), 1);
  EXPECT_EQ(result.total_batch_members(), 120);
}

// --- Checkpoint/resume of the batch-formation state ---

TEST(ServingBatching, CheckpointResumeRoundTripsBatchStateBitwise) {
  Fixture fx;
  ServingConfig cfg = overloaded(fx);
  cfg.resilience.batching.enabled = true;
  cfg.resilience.batching.max_batch = 8;

  const auto uninterrupted = serve_with_odin(
      fx.tenants(), fx.nonideal, fx.cost, fx.policy(), cfg);
  EXPECT_GT(uninterrupted.total_batches_formed(), 0);
  EXPECT_GE(uninterrupted.max_batch(), 2);  // the state is exercised

  const std::string base = ::testing::TempDir() + "odin_batching_ckpt";
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
  ServingConfig crashed = cfg;
  crashed.checkpoint.base_path = base;
  crashed.checkpoint.every_runs = 10;
  crashed.max_runs = 25;  // die inside segment 1 with the queue backed up
  const auto partial = serve_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                       fx.policy(), crashed);
  EXPECT_LT(partial.total_runs(), 120);

  const auto ckpt = load_latest_checkpoint(base);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_TRUE(ckpt->fingerprint.has_resilience);
  EXPECT_TRUE(ckpt->fingerprint.batching_enabled);
  EXPECT_EQ(ckpt->fingerprint.batch_cap, 8);

  const auto resumed = resume_with_odin(fx.tenants(), fx.nonideal, fx.cost,
                                        *ckpt, cfg);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->total_batches_formed(),
            uninterrupted.total_batches_formed());
  EXPECT_EQ(resumed->total_batch_members(),
            uninterrupted.total_batch_members());
  EXPECT_EQ(resumed->max_batch(), uninterrupted.max_batch());
  EXPECT_EQ(resumed->total_batch_slo_capped(),
            uninterrupted.total_batch_slo_capped());
  EXPECT_EQ(resumed->total().energy_j, uninterrupted.total().energy_j);
  EXPECT_EQ(resumed->total().latency_s, uninterrupted.total().latency_s);
  ASSERT_EQ(resumed->tenants.size(), uninterrupted.tenants.size());
  for (std::size_t i = 0; i < resumed->tenants.size(); ++i) {
    const TenantStats& a = resumed->tenants[i];
    const TenantStats& b = uninterrupted.tenants[i];
    EXPECT_EQ(a.runs, b.runs) << "tenant " << i;
    EXPECT_EQ(a.batches_formed, b.batches_formed) << "tenant " << i;
    EXPECT_EQ(a.batch_members, b.batch_members) << "tenant " << i;
    EXPECT_EQ(a.max_batch, b.max_batch) << "tenant " << i;
    EXPECT_EQ(a.batch_slo_capped, b.batch_slo_capped) << "tenant " << i;
    EXPECT_EQ(a.sojourn_s, b.sojourn_s) << "tenant " << i;  // bitwise
  }

  // The batching fingerprint is validated: the queued state must not
  // transfer onto a different batching geometry.
  ServingConfig other = cfg;
  other.resilience.batching.enabled = false;
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                other)
                   .has_value());
  other = cfg;
  other.resilience.batching.max_batch = 4;
  EXPECT_FALSE(resume_with_odin(fx.tenants(), fx.nonideal, fx.cost, *ckpt,
                                other)
                   .has_value());
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

}  // namespace
}  // namespace odin::core
