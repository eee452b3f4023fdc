// Determinism contract of the parallel execution layer: every parallelized
// tier (tile MVM/programming, OU search, experiment sweeps, offline dataset
// generation, set-up pruning, the wide MLP's training products and Adam
// update) must produce results bitwise identical to ODIN_THREADS=1.
// Every comparison below is exact (EXPECT_EQ on doubles), not tolerance-
// based — that is the whole point.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "core/hardware_inference.hpp"
#include "core/serving.hpp"
#include "data/synthetic.hpp"
#include "dnn/pruning.hpp"
#include "dnn/zoo.hpp"
#include "policy/offline.hpp"
#include "policy/policy.hpp"
#include "reram/fault_injection.hpp"
#include "simd_modes.hpp"
#include "test_helpers.hpp"

namespace odin::core {
namespace {

void expect_same(const common::EnergyLatency& a,
                 const common::EnergyLatency& b) {
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.latency_s, b.latency_s);
}

AggregateResult run_odin(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel model = testing::tiny_mapped();
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  OdinController ctl(model, nonideal, cost,
                     policy::OuPolicy(ou::OuLevelGrid(128)));
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e7, .runs = 40};
  return simulate_odin(ctl, horizon);
}

std::vector<dnn::PrunedModel> prune_zoo(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  const auto ds = data::DatasetKind::kCifar10;
  const std::uint64_t seed = Setup{}.prune_seed;
  std::vector<dnn::PrunedModel> out;
  for (auto make : {dnn::make_resnet18, dnn::make_vgg11, dnn::make_googlenet,
                    dnn::make_vit, dnn::make_mobilenetv1})
    out.push_back(dnn::prune_model(make(ds), seed));
  return out;
}

TEST(ParallelDeterminism, PruneModelBitwiseIdentical) {
  // Rows are pruned concurrently; each owns its RNG stream, its quantile
  // sample slots and its mask words.
  const auto seq = prune_zoo(1);
  const auto par = prune_zoo(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t m = 0; m < seq.size(); ++m) {
    ASSERT_EQ(seq[m].patterns.size(), par[m].patterns.size());
    for (std::size_t i = 0; i < seq[m].patterns.size(); ++i)
      EXPECT_TRUE(seq[m].patterns[i] == par[m].patterns[i])
          << seq[m].model.name << " layer " << i;
  }
}

TEST(ParallelDeterminism, OdinExperimentBitwiseIdentical) {
  const AggregateResult seq = run_odin(1);
  const AggregateResult par = run_odin(8);
  expect_same(seq.inference, par.inference);
  expect_same(seq.reprogram, par.reprogram);
  EXPECT_EQ(seq.total_edp(), par.total_edp());
  EXPECT_EQ(seq.mismatches, par.mismatches);
  EXPECT_EQ(seq.reprograms, par.reprograms);
  EXPECT_EQ(seq.policy_updates, par.policy_updates);
  EXPECT_EQ(seq.searches_skipped, par.searches_skipped);
}

std::vector<AggregateResult> run_sweep(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel model = testing::tiny_mapped();
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  const auto baselines = paper_baseline_configs();
  const HorizonConfig horizon{.t_start_s = 1.0, .t_end_s = 1e7, .runs = 60};
  return simulate_homogeneous_sweep(model, nonideal, cost, baselines,
                                    horizon);
}

TEST(ParallelDeterminism, HomogeneousSweepBitwiseIdentical) {
  const auto seq = run_sweep(1);
  const auto par = run_sweep(8);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].label, par[i].label);
    expect_same(seq[i].inference, par[i].inference);
    expect_same(seq[i].reprogram, par[i].reprogram);
    EXPECT_EQ(seq[i].reprograms, par[i].reprograms);
  }
}

ServingResult run_serving(int threads, bool odin) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel a = testing::tiny_mapped();
  ou::MappedModel b = testing::tiny_mapped(128, 0x51ee7);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  ServingConfig cfg;
  cfg.horizon = {.t_start_s = 1.0, .t_end_s = 1e6, .runs = 48};
  cfg.segments = 4;
  if (odin)
    return serve_with_odin({&a, &b}, nonideal, cost,
                           policy::OuPolicy(ou::OuLevelGrid(128)), cfg);
  return serve_with_homogeneous({&a, &b}, nonideal, cost,
                                ou::OuConfig{.rows = 8, .cols = 4}, cfg);
}

void expect_same_serving(const ServingResult& seq, const ServingResult& par) {
  expect_same(seq.programming, par.programming);
  expect_same(seq.total(), par.total());
  EXPECT_EQ(seq.switches, par.switches);
  EXPECT_EQ(seq.sum(&TenantStats::runs), par.sum(&TenantStats::runs));
  EXPECT_EQ(seq.sum(&TenantStats::mismatches),
            par.sum(&TenantStats::mismatches));
  ASSERT_EQ(seq.tenants.size(), par.tenants.size());
  for (std::size_t i = 0; i < seq.tenants.size(); ++i) {
    expect_same(seq.tenants[i].inference, par.tenants[i].inference);
    expect_same(seq.tenants[i].reprogram, par.tenants[i].reprogram);
    EXPECT_EQ(seq.tenants[i].runs, par.tenants[i].runs);
    EXPECT_EQ(seq.tenants[i].reprograms, par.tenants[i].reprograms);
  }
}

TEST(ParallelDeterminism, HomogeneousServingBitwiseIdentical) {
  expect_same_serving(run_serving(1, false), run_serving(8, false));
}

TEST(ParallelDeterminism, OdinServingBitwiseIdentical) {
  expect_same_serving(run_serving(1, true), run_serving(8, true));
}

ServingResult run_faulty_serving(int threads, bool odin) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel a = testing::tiny_mapped();
  ou::MappedModel b = testing::tiny_mapped(128, 0x51ee7);
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  ServingConfig cfg;
  cfg.horizon = {.t_start_s = 1.0, .t_end_s = 1e8, .runs = 48};
  cfg.segments = 4;
  // A schedule that exercises every fault path: wear over the serving
  // lifetime, peripheral failures, flaky writes, and one drift burst.
  reram::FaultScheduleParams p;
  p.endurance.characteristic_cycles = 12.0;
  p.endurance.shape = 1.8;
  p.wordline_fail_rate = 1e-3;
  p.bitline_fail_rate = 1e-3;
  p.write_fail_rate = 0.4;
  p.bursts = {{.start_s = 1e5, .duration_s = 1e6, .multiplier = 5.0}};
  reram::FaultInjector faults(p, 0xfade);
  if (odin)
    return serve_with_odin({&a, &b}, nonideal, cost,
                           policy::OuPolicy(ou::OuLevelGrid(128)), cfg,
                           &faults);
  return serve_with_homogeneous({&a, &b}, nonideal, cost,
                                ou::OuConfig{.rows = 8, .cols = 4}, cfg,
                                &faults);
}

void expect_same_fault_counters(const ServingResult& seq,
                                const ServingResult& par) {
  expect_same_serving(seq, par);
  EXPECT_EQ(seq.sum(&TenantStats::retries), par.sum(&TenantStats::retries));
  EXPECT_EQ(seq.sum(&TenantStats::degraded_runs),
            par.sum(&TenantStats::degraded_runs));
  for (std::size_t i = 0; i < seq.tenants.size(); ++i) {
    EXPECT_EQ(seq.tenants[i].retries, par.tenants[i].retries);
    EXPECT_EQ(seq.tenants[i].degraded_runs, par.tenants[i].degraded_runs);
  }
}

TEST(ParallelDeterminism, FaultyOdinServingBitwiseIdentical) {
  // The injector draws on the controller thread only; candidate evaluation
  // stays pure, so the fault path keeps the bitwise contract.
  expect_same_fault_counters(run_faulty_serving(1, true),
                             run_faulty_serving(8, true));
}

TEST(ParallelDeterminism, FaultyHomogeneousServingBitwiseIdentical) {
  expect_same_fault_counters(run_faulty_serving(1, false),
                             run_faulty_serving(8, false));
}

std::vector<double> run_hardware(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  data::SyntheticDataset dataset(
      data::DatasetSpec::for_kind(data::DatasetKind::kCifar10), 99);
  nn::MultiHeadMlp model(
      nn::MlpConfig{.inputs = dataset.feature_count(4), .hidden = {40},
                    .heads = {10}},
      7);
  // crossbar_size 32 < fan-in, so every layer spans a multi-cell grid and
  // the per-crossbar program/MVM fan-out is actually exercised; noise on so
  // the per-crossbar RNG stream assignment is covered too.
  HardwareMlpRunner runner(model, reram::DeviceParams{}, 32,
                           /*noise_seed=*/42);
  nn::Dataset sample = dataset.as_feature_dataset(2, 4);
  const ou::OuConfig ou{.rows = 8, .cols = 8};
  std::vector<double> out = runner.logits(sample.inputs.row(0), ou, 1e5);
  runner.program(2e5);  // reprogram fans out again, fresh drift clock
  const auto late = runner.logits(sample.inputs.row(1), ou, 3e5);
  out.insert(out.end(), late.begin(), late.end());
  return out;
}

TEST(ParallelDeterminism, HardwareNoisyLogitsBitwiseIdentical) {
  const auto seq = run_hardware(1);
  const auto par = run_hardware(8);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    EXPECT_EQ(seq[i], par[i]) << "logit " << i;
}

// Noiseless batched passes over multi-tile layers on 64-cell crossbars:
// 192-200-10 (3x4 and 4x1 grids) runs its tile tasks on the pool, and
// 192-400-10 (3x7 and 7x1 grids) also its cross-tile reduction (layer 0's
// 7 grid columns).
std::vector<double> run_hardware_batched(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  constexpr int kBatch = 64;
  std::vector<double> panel(kBatch * 192);
  common::Rng rng(21);
  for (double& v : panel) v = rng.uniform(-1.0, 1.0);
  std::vector<double> out;
  std::vector<double> logits(kBatch * 10);
  for (std::size_t hidden : {200, 400}) {
    nn::MultiHeadMlp model(
        nn::MlpConfig{.inputs = 192, .hidden = {hidden}, .heads = {10}},
        13);
    HardwareMlpRunner runner(model, reram::DeviceParams{}, 64);
    for (ou::OuConfig ou : {ou::OuConfig{8, 8}, ou::OuConfig{32, 32}})
      for (double t : {1.0, 2.5e6}) {
        runner.logits(panel, kBatch, 192, ou, t, logits);
        out.insert(out.end(), logits.begin(), logits.end());
      }
  }
  return out;
}

TEST(ParallelDeterminism, HardwareBatchedMultiTileLogitsBitwiseIdentical) {
  const auto seq = run_hardware_batched(1);
  const auto par = run_hardware_batched(8);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seq[i]),
              std::bit_cast<std::uint64_t>(par[i]))
        << "logit " << i;
}

nn::Dataset run_offline(int threads) {
  common::ThreadPool::instance().set_threads(threads);
  ou::MappedModel a = testing::tiny_mapped();
  ou::MappedModel b = testing::tiny_mapped(128, 0x7777);
  const ou::MappedModel* known[] = {&a, &b};
  ou::NonIdealityModel nonideal{reram::DeviceParams{},
                                ou::NonIdealityParams{}};
  ou::OuCostModel cost{ou::CostParams{}, reram::DeviceParams{}};
  policy::OfflineTrainConfig cfg;
  cfg.time_samples = 3;
  cfg.t_end_s = 1e6;
  cfg.max_examples = 100;
  return policy::build_offline_dataset(known, nonideal, cost,
                                       ou::OuLevelGrid(128), cfg);
}

TEST(ParallelDeterminism, OfflineDatasetBitwiseIdentical) {
  const nn::Dataset seq = run_offline(1);
  const nn::Dataset par = run_offline(8);
  ASSERT_EQ(seq.inputs.rows(), par.inputs.rows());
  ASSERT_EQ(seq.inputs.cols(), par.inputs.cols());
  for (std::size_t r = 0; r < seq.inputs.rows(); ++r) {
    const auto sr = seq.inputs.row(r);
    const auto pr = par.inputs.row(r);
    for (std::size_t c = 0; c < seq.inputs.cols(); ++c)
      ASSERT_EQ(sr[c], pr[c]) << "example " << r << " feature " << c;
  }
  EXPECT_EQ(seq.labels, par.labels);
}

/// 50 replay-shaped rows (features in [0, 1), labels on the grid), one
/// dataset per seed.
nn::Dataset retrain_data(std::uint64_t seed, const ou::OuLevelGrid& grid) {
  common::Rng rng(seed);
  nn::Dataset data;
  for (int i = 0; i < 50; ++i) {
    const policy::Features f{rng.uniform(), rng.uniform(), rng.uniform(),
                             rng.uniform()};
    const int rl = static_cast<int>(rng.uniform_index(grid.levels()));
    const int cl = static_cast<int>(rng.uniform_index(grid.levels()));
    policy::OuPolicy::append_example(data, f, grid, grid.config_at(rl, cl));
  }
  return data;
}

TEST(ParallelDeterminism, ConcurrentPolicyRetrainsMatchSequential) {
  // Fleet shards retrain their own policies at the same time. Each model
  // owns its training workspace, so four clones retrained concurrently on
  // different datasets must each match the same retrain run alone, bit for
  // bit; a workspace shared between models would race (and TSan reports
  // it in the tsan lane).
  common::ThreadPool::instance().set_threads(4);
  const ou::OuLevelGrid grid(128);
  policy::OuPolicy base(grid);
  nn::TrainOptions opt;
  opt.epochs = 30;
  opt.batch_size = 10;
  constexpr std::size_t kClones = 4;
  std::vector<nn::Dataset> data;
  std::vector<policy::OuPolicy> seq, par;
  for (std::size_t i = 0; i < kClones; ++i) {
    data.push_back(retrain_data(100 + i, grid));
    seq.push_back(base.clone());
    par.push_back(base.clone());
  }
  std::vector<double> seq_loss;
  for (std::size_t i = 0; i < kClones; ++i)
    seq_loss.push_back(seq[i].train(data[i], opt).final_loss);
  const std::vector<double> par_loss = common::parallel_transform(
      kClones, 1,
      [&](std::size_t i) { return par[i].train(data[i], opt).final_loss; });
  for (std::size_t i = 0; i < kClones; ++i) {
    EXPECT_EQ(seq_loss[i], par_loss[i]) << "clone " << i;
    const auto a = seq[i].mlp().parameters();
    const auto b = par[i].mlp().parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
      const auto av = a[p]->value.flat();
      const auto bv = b[p]->value.flat();
      for (std::size_t k = 0; k < av.size(); ++k)
        ASSERT_EQ(av[k], bv[k]) << "clone " << i << " parameter " << p
                                << " element " << k;
    }
  }
  // The four datasets really are different retrains.
  EXPECT_NE(seq_loss[0], seq_loss[1]);
}

/// Two Adam steps of 192-1024-10 (one epoch of 64 rows at batch 32): its
/// first layer's products and Adam update are above the pool's cutoff, so
/// above one thread they run as tasks over column blocks and chunks.
struct WideFit {
  nn::TrainResult result;
  std::vector<nn::Matrix> values, grads;
};

WideFit fit_wide(int threads, const nn::Dataset& data) {
  common::ThreadPool::instance().set_threads(threads);
  nn::MultiHeadMlp model(
      nn::MlpConfig{.inputs = 192, .hidden = {1024}, .heads = {10}}, 41);
  nn::TrainOptions opt;
  opt.epochs = 1;
  opt.batch_size = 32;
  opt.learning_rate = 3e-3;
  opt.shuffle_seed = 42;
  WideFit fit;
  fit.result = nn::fit(model, data, opt);
  for (nn::Parameter* p : model.parameters()) {
    fit.values.push_back(p->value);
    fit.grads.push_back(p->grad);
  }
  return fit;
}

void expect_same_bits(const std::vector<nn::Matrix>& a,
                      const std::vector<nn::Matrix>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto av = a[p].flat();
    const auto bv = b[p].flat();
    ASSERT_EQ(av.size(), bv.size());
    for (std::size_t k = 0; k < av.size(); ++k)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(av[k]),
                std::bit_cast<std::uint64_t>(bv[k]))
          << what << " of parameter " << p << " element " << k;
  }
}

TEST(ParallelDeterminism, WideMlpFitBitwiseIdentical) {
  // hw-crossbar's wide reference net on its own feature rows: every weight,
  // the last step's gradients and both losses at 4 threads equal 1
  // thread's, under the row kernels and under the AVX2 tiles.
  const data::SyntheticDataset dataset(
      data::DatasetSpec::for_kind(data::DatasetKind::kCifar10), 5);
  const nn::Dataset data = dataset.as_feature_dataset(64, 4);
  testing::in_both_simd_modes([&] {
    const WideFit seq = fit_wide(1, data);
    const WideFit par = fit_wide(4, data);
    EXPECT_EQ(seq.result.epochs_run, 1);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seq.result.initial_loss),
              std::bit_cast<std::uint64_t>(par.result.initial_loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seq.result.final_loss),
              std::bit_cast<std::uint64_t>(par.result.final_loss));
    expect_same_bits(seq.values, par.values, "value");
    expect_same_bits(seq.grads, par.grads, "gradient");
  });
}

}  // namespace
}  // namespace odin::core
