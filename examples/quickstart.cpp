// Quickstart: the shortest path through the Odin public API.
//
//   1. Build a DNN workload description and prune it (crossbar-aware).
//   2. Map it onto ReRAM crossbars.
//   3. Ask the analytical models for the best OU configuration of a layer.
//   4. Run the Odin online-learning controller for a few inference runs and
//      compare its energy-delay product against a homogeneous 16x16 OU.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>

#include "core/experiment.hpp"
#include "ou/search.hpp"

using namespace odin;

int main() {
  // One Setup bundles Tables I-II plus the calibrated model constants.
  const core::Setup setup;

  // 1+2. A paper workload, pruned and mapped onto 128x128 crossbars.
  ou::MappedModel vgg11 =
      setup.make_mapped(dnn::make_vgg11(data::DatasetKind::kCifar10));
  std::printf("VGG11 on CIFAR-10: %zu layers, %lld weights, %.1f%% sparse, "
              "%lld crossbars occupied\n",
              vgg11.layer_count(),
              static_cast<long long>(vgg11.model().total_weights()),
              100.0 * vgg11.model().overall_sparsity(),
              static_cast<long long>(
                  setup.make_system().map(vgg11.model()).crossbars_used));

  // 3. Best OU for layer 0 at t0, straight from the analytical models.
  const ou::NonIdealityModel nonideal = setup.make_nonideality();
  const ou::OuCostModel cost = setup.make_cost();
  const ou::OuLevelGrid grid(vgg11.crossbar_size());
  ou::LayerContext ctx{
      .mapping = &vgg11.mapping(0),
      .cost = &cost,
      .nonideal = &nonideal,
      .grid = &grid,
      .elapsed_s = setup.device.t0_s,
      .sensitivity = nonideal.layer_sensitivity(
          0, static_cast<int>(vgg11.layer_count()))};
  const ou::SearchResult best = ou::exhaustive_search(ctx);
  std::printf("layer 0 ('%s'): best OU at t0 is %s (EDP %.3g Js, %d "
              "configurations evaluated)\n",
              vgg11.model().layers[0].name.c_str(),
              best.best.to_string().c_str(), best.edp, best.evaluations);

  // 4. Odin online loop vs a homogeneous 16x16 baseline across the full
  //    drift horizon, where the baseline's reprogramming burden shows up.
  //    (The per-figure reproductions live in bench/.)
  core::OdinController odin(vgg11, nonideal, cost, policy::OuPolicy(grid));
  const core::HorizonConfig horizon{.runs = 200};
  const auto odin_result = core::simulate_odin(odin, horizon);
  const auto base_result =
      core::simulate_homogeneous(vgg11, nonideal, cost, {16, 16}, horizon);
  std::printf("over %d runs in [1, 1e8] s:\n", horizon.runs);
  std::printf("  Odin : %.3g J, %.3g s, EDP %.3g Js "
              "(%d policy updates, %d reprograms)\n",
              odin_result.total().energy_j, odin_result.total().latency_s,
              odin_result.total_edp(), odin_result.policy_updates,
              odin_result.reprograms);
  std::printf("  16x16: %.3g J, %.3g s, EDP %.3g Js (%d reprograms)\n",
              base_result.total().energy_j, base_result.total().latency_s,
              base_result.total_edp(), base_result.reprograms);
  std::printf("  Odin EDP advantage: %.2fx\n",
              base_result.total_edp() / odin_result.total_edp());
  return 0;
}
