// Ablation — epochs per online policy update in a serving fleet (the arm
// behind ServingConfig's kServingUpdateEpochs).
//
// Alg. 1 retrains the policy for 100 epochs each time the 50-entry mismatch
// buffer fills. This sweep serves the repo benchmark's serve-zoo fleet
// (ResNet18 / VGG11 / GoogLeNet on 4 shards, policy bootstrapped offline
// from ViT alone, 3,000 log-uniform arrivals over [10 s, 1e8 s], 1 s SLO,
// queue 8, shed-oldest) with every other setting fixed and only the update
// epochs varied. 0 epochs freezes the offline policy: the buffer still
// fills and resets, but no training step runs. Host time is one
// serve_fleet call per cell, at the pool's thread count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"

using namespace odin;

namespace {

/// serve-zoo's arrivals for `seed`: log-uniform over [10 s, 1e8 s],
/// sorted (drift is a power law in time, so every decade gets equal
/// traffic).
std::vector<double> arrivals(std::uint64_t seed, int runs) {
  common::Rng rng(seed ^ 0x5e12e200ULL);
  const double lo = std::log(10.0), hi = std::log(1e8);
  std::vector<double> t(static_cast<std::size_t>(runs));
  for (double& x : t) x = std::exp(rng.uniform(lo, hi));
  std::sort(t.begin(), t.end());
  return t;
}

}  // namespace

int main() {
  bench::banner("Ablation: epochs per serving policy update");
  const core::Setup setup = bench::default_setup();
  const ou::NonIdealityModel nonideal = setup.make_nonideality();
  const ou::OuCostModel cost = setup.make_cost();

  bench::Stopwatch clock;
  const auto cifar = data::DatasetKind::kCifar10;
  const ou::MappedModel resnet = setup.make_mapped(dnn::make_resnet18(cifar));
  const ou::MappedModel vgg = setup.make_mapped(dnn::make_vgg11(cifar));
  const ou::MappedModel googlenet =
      setup.make_mapped(dnn::make_googlenet(cifar));
  const ou::MappedModel vit = setup.make_mapped(dnn::make_vit(cifar));
  const std::vector<const ou::MappedModel*> tenants{&resnet, &vgg,
                                                    &googlenet};
  const ou::MappedModel* known[] = {&vit};
  policy::OuPolicy offline = policy::train_offline_policy(
      known, nonideal, cost, ou::OuLevelGrid(128));
  std::printf("[setup] 4 models mapped, policy bootstrapped from ViT in "
              "%.1fs\n",
              clock.seconds());

  core::FleetConfig fleet;
  fleet.shards = 4;
  fleet.serving.horizon = {.t_start_s = 10.0, .t_end_s = 1e8, .runs = 3000};
  fleet.serving.segments = 6;
  core::ResilienceConfig& res = fleet.serving.resilience;
  res.enabled = true;
  res.default_slo_s = 1.0;
  res.queue_capacity = 8;
  res.shed = core::ShedPolicy::kShedOldest;

  common::Table table({"seed", "epochs", "EDP/req (Js)", "vs 100 epochs %",
                       "gain vs 16x16", "updates", "mismatches",
                       "host ms"});
  for (std::uint64_t seed : {1u, 3u}) {
    fleet.serving.schedule = arrivals(seed, fleet.serving.horizon.runs);
    core::FleetResult homogeneous;  // one device; a fleet result for its EDP
    homogeneous.shards.push_back(core::serve_with_homogeneous(
        tenants, nonideal, cost, ou::OuConfig{16, 16}, fleet.serving));
    double refit_edp = 0.0;
    for (int epochs : {100, 20, 10, 5, 2, 1, 0}) {
      fleet.serving.odin.update_options.epochs = epochs;
      bench::Stopwatch serve_clock;
      const core::FleetResult r = core::serve_fleet(
          tenants, nonideal, cost, offline.clone(), fleet);
      const double host_ms = serve_clock.seconds() * 1e3;
      int updates = 0, mismatches = 0;
      for (const core::ServingResult& shard : r.shards) {
        updates += shard.policy_updates;
        mismatches += shard.sum(&core::TenantStats::mismatches);
      }
      const double edp = r.edp_per_request();
      if (epochs == 100) refit_edp = edp;
      table.add_row({common::Table::integer(static_cast<long long>(seed)),
                     common::Table::integer(epochs),
                     common::Table::num(edp, 5),
                     common::Table::num(100.0 * (edp / refit_edp - 1.0), 3),
                     common::Table::num(homogeneous.edp_per_request() / edp,
                                        4),
                     common::Table::integer(updates),
                     common::Table::integer(mismatches),
                     common::Table::num(host_ms, 3)});
    }
  }
  common::print_table(
      "serve-zoo fleet, 3000 arrivals, update epochs swept (host ms at " +
          std::to_string(common::ThreadPool::instance().threads()) +
          " threads)",
      table);
  std::printf("\n[shape] EDP per request barely moves with the update "
              "epochs, down to a frozen policy, while each update's host "
              "cost falls with them; a frozen policy mismatches about twice "
              "as often. Serving fine-tunes for %d epochs; the paper "
              "figures keep Alg. 1's 100. (%.1fs)\n",
              core::kServingUpdateEpochs, clock.seconds());
  return 0;
}
